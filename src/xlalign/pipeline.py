"""Config-driven experiment pipelines: data, training, alignment, reports.

Seeds for the individual components are derived from the experiment seed by
fixed offsets, so a config + seed pins every random draw in the run.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint, parse_metadata, save_checkpoint
from .cipher import gen_cipher_corpus, write_corpus_files
from .config import ConfigError
from .encoders import EncoderParams, encode_sentences, encode_sif_matrix, new_encoder
from .evaluation import (accuracy_curve, neighbor_report, retrieval_accuracy,
                         write_curve_csv, write_retrieval_csv)
from .mapping import fit_orthogonal_map, fit_word_dictionary_map, save_map
from .objectives import (TrainSchedule, new_decoder, new_head, train_joint_infersent,
                         train_joint_seq2seq, train_transfer, write_trace)
from .text import (NoiseParams, ParallelCorpus, build_vocab, load_dictionary,
                   load_parallel, load_word2vec, make_splits)

SEED_PIVOT_ENC, SEED_NEW_ENC, SEED_DECODER, SEED_HEAD = 1, 2, 3, 4
SEED_PRETRAIN, SEED_TRAIN, SEED_INFERSENT = 10, 11, 12
SEED_TABLE_SRC, SEED_TABLE_TGT = 20, 21
SEED_NOISE = 30


@dataclass
class ExperimentData:
    train_corpus: ParallelCorpus
    test_pairs: list
    vocabs: dict           # lang -> Vocabulary
    cipher: object | None  # CipherCorpus when corpus=cipher
    tables: dict           # lang -> word-embedding matrix for SIF / ingest


def materialize(cfg):
    """Generate or load the corpus, hold out the test tail, build vocabularies."""
    pivot, other = cfg.pivot_lang(), cfg.other_lang()
    cc = None
    if cfg.corpus == "cipher":
        nli = cfg.nli_size if cfg.framework == "joint_infersent" else 0
        cc = gen_cipher_corpus(cfg.cipher_vocab, cfg.cipher_sentences + cfg.test_size,
                               (cfg.cipher_min_len, cfg.cipher_max_len), cfg.seed,
                               nli_size=nli, src_lang=other, tgt_lang=pivot)
        corpus = cc.corpus
    else:
        corpus = load_parallel(cfg.src_path, cfg.tgt_path, other, pivot)
    if len(corpus) <= cfg.test_size:
        raise ConfigError(f"corpus of {len(corpus)} pairs cannot spare {cfg.test_size} test pairs")
    train_pairs = corpus.pairs[:-cfg.test_size]
    test_pairs = corpus.pairs[-cfg.test_size:]
    train_corpus = ParallelCorpus(train_pairs, other, pivot)
    try:
        make_splits(len(train_corpus), cfg.splits)
    except ValueError as exc:
        raise ConfigError(f"splits do not fit the training corpus: {exc}") from exc

    extra = {other: [], pivot: []}
    if cc is not None and cc.nli:
        for lang in (other, pivot):
            extra[lang] = cc.nli[lang].premises + cc.nli[lang].hypotheses
    vocabs = {
        other: build_vocab(train_corpus.source_sentences() + extra[other], cfg.min_count),
        pivot: build_vocab(train_corpus.target_sentences() + extra[pivot], cfg.min_count),
    }
    tables = {
        other: _word_table(cfg, vocabs[other], cfg.embeddings_src, cfg.seed + SEED_TABLE_SRC),
        pivot: _word_table(cfg, vocabs[pivot], cfg.embeddings_tgt, cfg.seed + SEED_TABLE_TGT),
    }
    return ExperimentData(train_corpus, test_pairs, vocabs, cc, tables)


def _word_table(cfg, vocab, path, seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1, 1, size=(len(vocab), cfg.dim)) / np.sqrt(cfg.dim)
    if path:
        words, matrix = load_word2vec(path)
        if matrix.shape[1] != cfg.dim:
            raise ConfigError(f"embedding file {path} has dim {matrix.shape[1]}, config says {cfg.dim}")
        for w, row in zip(words, matrix):
            wid = vocab.token_to_id.get(w)
            if wid is not None:
                table[wid] = row
    return table


def pretrain_sdae(sentences, vocab, cfg, lang, enc_seed):
    """Monolingual denoising pretraining (reconstruction of the clean input)."""
    enc = new_encoder(len(vocab), cfg.dim, cfg.hidden, lang, enc_seed)
    dec = new_decoder(len(vocab), cfg.dim, enc.output_dim, cfg.hidden, lang,
                      cfg.seed + SEED_DECODER)
    mono = ParallelCorpus([(s, s) for s in sentences], lang, lang)
    sched = TrainSchedule(cfg.batch, cfg.pivot_steps, cfg.lr, [lang], cfg.seed + SEED_PRETRAIN)
    noise = NoiseParams(cfg.p_del, cfg.p_swap, cfg.seed + SEED_NOISE)
    result = train_joint_seq2seq(mono, {lang: enc}, dec, {lang: vocab}, lang, sched, noise)
    return enc, result.trace


# ---------------------------------------------------------------------------
# per-framework embedder factories
# ---------------------------------------------------------------------------

class Experiment:
    """Builds, per split size, the configured framework's (embed_src, embed_tgt)
    pair and the artifacts to save, keyed by output file name.
    """

    def __init__(self, cfg, data):
        self.cfg = cfg
        self.data = data
        self.pivot, self.other = cfg.pivot_lang(), cfg.other_lang()
        self._enc_seed = {self.pivot: SEED_PIVOT_ENC, self.other: SEED_NEW_ENC}
        self._pretrained = {}  # pretrain.<lang>.csv -> (write_trace, trace)
        self._built = {}       # split size -> ((embed_src, embed_tgt), artifacts)
        setups = {"transfer": self._transfer, "joint_seq2seq": self._joint_seq2seq,
                  "joint_infersent": self._joint_infersent,
                  "sentence_map": self._sentence_map, "word_dict_map": self._word_dict_map}
        if cfg.framework not in setups:
            raise ConfigError(f"framework {cfg.framework!r} has no pipeline")
        # split-independent work (pretraining, inference training, word maps) runs here;
        # the returned callable trains and aligns one split
        self._build_split = setups[cfg.framework]()

    def factory(self, train_pairs):
        return self.build(train_pairs)[0]

    def build(self, train_pairs):
        """((embed_src, embed_tgt), {file name: (writer, object)}) for one split."""
        size = len(train_pairs)
        if size not in self._built:
            split = ParallelCorpus(list(train_pairs), self.other, self.pivot)
            embedders, artifacts = self._build_split(split)
            self._built[size] = embedders, {**self._pretrained, **artifacts}
        return self._built[size]

    # -- frameworks ----------------------------------------------------------------

    def _transfer(self):
        pivot_enc = self._pretrain(self.pivot)

        def build(split):
            new_enc = self._new_encoder(self.other)
            result = train_transfer(split, pivot_enc, new_enc, self.data.vocabs[self.other],
                                    self.data.vocabs[self.pivot], self._schedule(SEED_TRAIN))
            return (self._embed(new_enc), self._embed(pivot_enc)), {
                f"encoder.{self.pivot}.ckpt": (save_params, pivot_enc),
                f"encoder.{self.other}.ckpt": (save_params, new_enc),
                "train.csv": (write_trace, result.trace)}
        return build

    def _joint_seq2seq(self):
        cfg = self.cfg

        def build(split):
            encoders = self._encoder_pair()
            decoder = new_decoder(len(self.data.vocabs[self.pivot]), cfg.dim, 2 * cfg.hidden,
                                  cfg.hidden, self.pivot, cfg.seed + SEED_DECODER)
            sched = self._schedule(SEED_TRAIN)
            sched.language_order = [self.pivot, self.other]
            noise = NoiseParams(cfg.p_del, cfg.p_swap, cfg.seed + SEED_NOISE)
            result = train_joint_seq2seq(split, encoders, decoder, self.data.vocabs,
                                         self.pivot, sched, noise)
            return self._embed_pair(encoders), {
                **_encoder_files(encoders), "decoder.ckpt": (save_params, decoder),
                "train.csv": (write_trace, result.trace)}
        return build

    def _joint_infersent(self):
        cfg = self.cfg
        encoders = self._encoder_pair()
        head = new_head(2 * cfg.hidden, cfg.infersent_hidden, cfg.seed + SEED_HEAD)
        result = train_joint_infersent(self.data.cipher.nli, encoders, head, self.data.vocabs,
                                       self._schedule(SEED_INFERSENT))
        built = self._embed_pair(encoders), {
            **_encoder_files(encoders), "head.ckpt": (save_params, head),
            "train.csv": (write_trace, result.trace)}
        return lambda split: built

    def _sentence_map(self):
        embed_src, embed_tgt, encoder_files = self._mono_embedders()

        def build(split):
            m = fit_orthogonal_map(embed_src(split.source_sentences()),
                                   embed_tgt(split.target_sentences()),
                                   src_space=self.other, tgt_space=self.pivot)
            return (lambda sentences: embed_src(sentences) @ m.w, embed_tgt), {
                "map.ckpt": (save_map, m), **encoder_files}
        return build

    def _word_dict_map(self):
        cfg, data = self.cfg, self.data
        if cfg.dict_path:
            pairs = load_dictionary(cfg.dict_path)
        elif data.cipher is not None:
            pairs = [(c, b) for b, c in sorted(data.cipher.cipher.items())]
        else:
            raise ConfigError("word_dict_map needs dict_path when corpus=files")
        m = fit_word_dictionary_map(
            pairs,
            data.vocabs[self.other].id_to_token, data.tables[self.other],
            data.vocabs[self.pivot].id_to_token, data.tables[self.pivot],
            src_space=f"words:{self.other}", tgt_space=f"words:{self.pivot}")
        embed_src, embed_tgt, _ = self._mono_embedders()
        built = ((lambda sentences: embed_src(sentences) @ m.w, embed_tgt),
                 {"map.ckpt": (save_map, m)})
        return lambda split: built

    # -- shared pieces -------------------------------------------------------------

    def _schedule(self, seed_offset):
        cfg = self.cfg
        return TrainSchedule(cfg.batch, cfg.steps, cfg.lr, [], cfg.seed + seed_offset)

    def _new_encoder(self, lang):
        cfg = self.cfg
        return new_encoder(len(self.data.vocabs[lang]), cfg.dim, cfg.hidden, lang,
                           cfg.seed + self._enc_seed[lang])

    def _encoder_pair(self):
        return {lang: self._new_encoder(lang) for lang in (self.pivot, self.other)}

    def _pretrain(self, lang):
        corpus = self.data.train_corpus
        sentences = corpus.target_sentences() if lang == self.pivot else corpus.source_sentences()
        enc, trace = pretrain_sdae(sentences, self.data.vocabs[lang], self.cfg, lang,
                                   self.cfg.seed + self._enc_seed[lang])
        self._pretrained[f"pretrain.{lang}.csv"] = (write_trace, trace)
        return enc

    def _embed(self, enc):
        vocab = self.data.vocabs[enc.lang]
        return lambda sentences: encode_sentences(sentences, vocab, enc)

    def _embed_pair(self, encoders):
        return self._embed(encoders[self.other]), self._embed(encoders[self.pivot])

    def _mono_embedders(self):
        """Independently trained (embed_src, embed_tgt) and the files of their encoders."""
        cfg, data = self.cfg, self.data
        if cfg.encoder == "sif":
            def sif_fn(lang):
                table, vocab = data.tables[lang], data.vocabs[lang]
                return lambda sentences: encode_sif_matrix(sentences, table, vocab, cfg.sif_a)
            return sif_fn(self.other), sif_fn(self.pivot), {}
        encoders = {lang: self._pretrain(lang) for lang in (self.pivot, self.other)}
        return (*self._embed_pair(encoders), _encoder_files(encoders))


def _encoder_files(encoders):
    return {f"encoder.{lang}.ckpt": (save_params, enc) for lang, enc in sorted(encoders.items())}


# ---------------------------------------------------------------------------
# parameter-set checkpoints
# ---------------------------------------------------------------------------

def save_params(path, params):
    """Checkpoint a parameter set: its arrays named `<kind>.<name>`, its
    metadata (`lang`) as one comment line of `key=value` tokens."""
    meta = [f"{name}={getattr(params, name)}"
            for name, _, is_array in ad.name_table(type(params)) if not is_array]
    save_checkpoint(path, params.named_arrays(f"{params.kind}."),
                    comments=[" ".join(meta)] if meta else [])


def load_params(path, cls):
    """The `cls` that `save_params` wrote to `path`. Tensor names other than
    the class's, or a missing metadata key, are a ValueError naming the file."""
    tensors, comments = load_checkpoint(path)
    metadata = parse_metadata(path, comments)
    table = [(f"{cls.kind}.{name}", tensors) if is_array else (name, metadata)
             for name, _, is_array in ad.name_table(cls)]
    expected = {key for key, source in table if source is tensors}
    if tensors.keys() != expected:
        raise ValueError(f"{path} is not a {cls.__name__} checkpoint: missing tensors "
                         f"{sorted(expected - set(tensors))}, extra {sorted(set(tensors) - expected)}")
    missing = [key for key, source in table if key not in source]
    if missing:
        raise ValueError(f"{path} has no {missing[0]}= comment")
    return ad.build_params(cls, (source[key] for key, source in table))


# the names the benchmark calls
save_encoder = save_params
load_encoder = functools.partial(load_params, cls=EncoderParams)


# ---------------------------------------------------------------------------
# full experiment run
# ---------------------------------------------------------------------------

def run_experiment(cfg):
    """train -> align -> evaluate; writes the artifacts and the manifest.

    Returns the list of files written (relative to cfg.out_dir).
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    produced = []

    def out(name):
        produced.append(name)
        return os.path.join(cfg.out_dir, name)

    data = materialize(cfg)
    if data.cipher is not None:
        for path in write_corpus_files(os.path.join(cfg.out_dir, "corpus"), data.cipher):
            produced.append(os.path.relpath(path, cfg.out_dir))

    exp = Experiment(cfg, data)
    write_curve_csv(out("curve.csv"), curve_points(exp))

    (embed_src, embed_tgt), artifacts = exp.build(data.train_corpus.pairs[:cfg.splits[-1]])
    x, y = heldout_embeddings(data, embed_src, embed_tgt)
    reports = [retrieval_accuracy(x, y, f"{exp.other}>{exp.pivot}"),
               retrieval_accuracy(y, x, f"{exp.pivot}>{exp.other}")]
    write_retrieval_csv(out("retrieval.csv"), reports)
    write_neighbors(out("neighbors.txt"), exp, x, y)

    for name, (write, obj) in artifacts.items():
        write(out(name), obj)

    produced.append("manifest.txt")
    with open(os.path.join(cfg.out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("XLALIGN-MANIFEST 1\n")
        fh.write(f"config_hash={cfg.digest()}\n")
        for line in cfg.as_lines():
            fh.write(line + "\n")
        fh.write("# files\n")
        for name in produced:
            fh.write(name + "\n")
    return produced


def curve_points(exp):
    """Held-out retrieval accuracy in both directions at every split size."""
    data = exp.data
    sizes = make_splits(len(data.train_corpus), exp.cfg.splits)
    return accuracy_curve(exp.factory, data.train_corpus, sizes,
                          [(exp.other, exp.pivot), (exp.pivot, exp.other)],
                          data.test_pairs, model_tag=exp.cfg.framework)


def heldout_embeddings(data, embed_src, embed_tgt):
    """(x, y): the held-out source and target sentences, row-aligned."""
    return (embed_src([s for s, _ in data.test_pairs]),
            embed_tgt([t for _, t in data.test_pairs]))


def write_neighbors(path, exp, x, y, queries=5, k=3):
    """Write (and return) the nearest-neighbour report of the first held-out
    source sentences against both held-out pools."""
    test_src = [" ".join(s) for s, _ in exp.data.test_pairs]
    test_tgt = [" ".join(t) for _, t in exp.data.test_pairs]
    report = neighbor_report([(test_src[i], x[i]) for i in range(min(queries, len(test_src)))],
                             {exp.other: (test_src, x), exp.pivot: (test_tgt, y)}, k=k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report)
    return report
