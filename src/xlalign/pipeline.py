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
from .cipher import CipherCorpus, gen_cipher_corpus, read_corpus_files, write_corpus_files
from .config import ConfigError
from .encoders import EncoderParams, encode_sentences, encode_sif_matrix, new_encoder
from .evaluation import CurvePoint, RetrievalReport, neighbor_report, retrieval_accuracy
from .mapping import fit_orthogonal_map, fit_word_dictionary_map, save_map
from .objectives import (TrainSchedule, new_decoder, new_head, train_joint_infersent,
                         train_joint_seq2seq, train_transfer, write_trace)
from .text import NoiseParams, ParallelCorpus, build_vocab, load_word2vec, write_csv

SEED_PIVOT_ENC, SEED_NEW_ENC, SEED_DECODER, SEED_HEAD = 1, 2, 3, 4
SEED_PRETRAIN, SEED_TRAIN, SEED_INFERSENT = 10, 11, 12
SEED_TABLE_SRC, SEED_TABLE_TGT = 20, 21
SEED_NOISE = 30


@dataclass
class ExperimentData:
    train_corpus: ParallelCorpus
    heldout: ParallelCorpus  # the corpus's last test_size rows
    vocabs: dict             # lang -> Vocabulary
    source: CipherCorpus     # the whole corpus, its word dictionary and NLI sets
    tables: dict             # lang -> word-embedding matrix, SIF only (else empty)


def materialize(cfg, dictionary=False):
    """Generate the cipher corpus, or read `cfg.corpus_dir`; hold out the
    test tail and build vocabularies. `dictionary` asks for the word
    dictionary, which word_dict_map always needs.

    Training rows that repeat a held-out row in every language are dropped,
    so no split trains on an evaluation row.
    """
    pivot, other = cfg.languages
    dictionary = dictionary or cfg.framework == "word_dict_map"
    cc = (read_corpus_files(cfg.corpus_dir, (other, pivot), cfg.framework == "joint_infersent",
                            dictionary) if cfg.corpus_dir else generate_corpus(cfg))
    corpus = cc.corpus
    if len(corpus) <= cfg.test_size:
        raise ConfigError(f"corpus of {len(corpus)} rows cannot spare {cfg.test_size} test rows")
    heldout = corpus[-cfg.test_size:]
    train_corpus = corpus[:-cfg.test_size].without(heldout)
    if cfg.splits[-1] > len(train_corpus):
        raise ConfigError(f"splits do not fit the training corpus: largest split "
                          f"{cfg.splits[-1]} exceeds corpus size {len(train_corpus)}")

    text = dict(train_corpus.items())
    if cc.nli:
        text = {lang: s + cc.nli[lang].premises + cc.nli[lang].hypotheses
                for lang, s in text.items()}
    vocabs = {lang: build_vocab(s, cfg.min_count) for lang, s in text.items()}
    seeds = {other: SEED_TABLE_SRC, pivot: SEED_TABLE_TGT}
    tables = {lang: _word_table(cfg, vocabs[lang], lang, cfg.seed + seeds[lang])
              for lang in (other, pivot) if cfg.encoder == "sif"}
    return ExperimentData(train_corpus, heldout, vocabs, cc, tables)


def generate_corpus(cfg):
    """The config's cipher corpus, whose files `run` writes to `corpus/`."""
    return gen_cipher_corpus(cfg.cipher_vocab, cfg.cipher_sentences + cfg.test_size, seed=cfg.seed,
                             nli_size=cfg.nli_size if cfg.framework == "joint_infersent" else 0,
                             langs=cfg.languages[::-1])  # (other, pivot)


def _word_table(cfg, vocab, lang, seed):
    """Uniform random word vectors, with the rows of the words in
    `<corpus_dir>/<lang>.vec`, when that file exists, replaced by its vectors."""
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1, 1, size=(len(vocab), cfg.dim)) / np.sqrt(cfg.dim)
    path = os.path.join(cfg.corpus_dir, f"{lang}.vec")
    if not (cfg.corpus_dir and os.path.exists(path)):
        return table
    words, matrix = load_word2vec(path)
    if matrix.shape[1] != cfg.dim:
        raise ConfigError(f"{path}:1: dim {matrix.shape[1]}, config says {cfg.dim}")
    for w, row in zip(words, matrix):
        wid = vocab.token_to_id.get(w)
        if wid is not None:
            table[wid] = row
    return table


# ---------------------------------------------------------------------------
# per-framework embedder factories
# ---------------------------------------------------------------------------

class Experiment:
    """Builds and evaluates, per split size, the configured framework's
    {lang: embed} map and the artifacts to save, keyed by output file name.
    """

    def __init__(self, cfg, data):
        self.cfg = cfg
        self.data = data
        self.pivot, self.other = cfg.languages
        # the order of every report: (query language, pool language)
        self.directions = [(self.other, self.pivot), (self.pivot, self.other)]
        self._enc_seed = {self.pivot: SEED_PIVOT_ENC, self.other: SEED_NEW_ENC}
        self._pretrained = {}  # pretrain.<lang>.csv -> (write_trace, trace)
        setups = {"transfer": self._transfer, "joint_seq2seq": self._joint_seq2seq,
                  "joint_infersent": self._joint_infersent,
                  "sentence_map": self._sentence_map, "word_dict_map": self._word_dict_map}
        if cfg.framework not in setups:
            raise ConfigError(f"framework {cfg.framework!r} has no pipeline")
        # split-independent work (pretraining, inference training, word maps) runs here;
        # the returned callable trains and aligns one split
        self._build_split = setups[cfg.framework]()
        self._scored = None  # (embedders, held-out matrices, reports) of the last evaluate

    def build(self, size):
        """({lang: embed}, {file name: (writer, object)}) for the split of the
        first `size` training rows."""
        embedders, artifacts = self._build_split(self.data.train_corpus[:size])
        return embedders, {**self._pretrained, **artifacts}

    def evaluate(self, size):
        """Build the split of the first `size` training rows, embed each
        language's held-out rows once and score every report direction.

        Returns (artifacts, {lang: held-out matrix}, [RetrievalReport per direction]).
        A model built once for every split (joint_infersent, word_dict_map) is
        embedded and scored once; later splits repeat its matrices and reports.
        """
        embedders, artifacts = self.build(size)
        if self._scored is None or self._scored[0] is not embedders:
            heldout = {lang: embedders[lang](sentences)
                       for lang, sentences in self.data.heldout.items()}
            reports = [retrieval_accuracy(heldout[q], heldout[p], f"{q}>{p}")
                       for q, p in self.directions]
            self._scored = embedders, heldout, reports
        return (artifacts, *self._scored[1:])

    # -- frameworks ----------------------------------------------------------------

    def _transfer(self):
        pivot_enc = self._pretrain(self.pivot)

        def build(split):
            new_enc = self._new_encoder(self.other)
            result = train_transfer(split, pivot_enc, new_enc, self.data.vocabs[self.other],
                                    self.data.vocabs[self.pivot], self._schedule(SEED_TRAIN))
            return self._embedders([pivot_enc, new_enc]), {
                f"encoder.{self.pivot}.ckpt": (save_params, pivot_enc),
                f"encoder.{self.other}.ckpt": (save_params, new_enc),
                "train.csv": (write_trace, result.trace)}
        return build

    def _joint_seq2seq(self):
        cfg = self.cfg

        def build(split):
            encoders = self._new_encoders()
            decoder = new_decoder(len(self.data.vocabs[self.pivot]), cfg.dim, 2 * cfg.hidden,
                                  cfg.hidden, self.pivot, cfg.seed + SEED_DECODER)
            sched = self._schedule(SEED_TRAIN, cfg.languages)
            noise = NoiseParams(cfg.p_del, cfg.p_swap, cfg.seed + SEED_NOISE)
            result = train_joint_seq2seq(split, encoders, decoder, self.data.vocabs,
                                         self.pivot, sched, noise)
            return self._embedders(encoders.values()), {
                **_encoder_files(encoders), "decoder.ckpt": (save_params, decoder),
                "train.csv": (write_trace, result.trace)}
        return build

    def _joint_infersent(self):
        cfg = self.cfg
        encoders = self._new_encoders()
        head = new_head(2 * cfg.hidden, seed=cfg.seed + SEED_HEAD)
        result = train_joint_infersent(self.data.source.nli, encoders, head, self.data.vocabs,
                                       self._schedule(SEED_INFERSENT))
        built = self._embedders(encoders.values()), {
            **_encoder_files(encoders), "head.ckpt": (save_params, head),
            "train.csv": (write_trace, result.trace)}
        return lambda split: built

    def _sentence_map(self):
        mono, encoder_files = self._mono_embedders()

        def build(split):
            m = fit_orthogonal_map(mono[self.other](split[self.other]),
                                   mono[self.pivot](split[self.pivot]),
                                   src_space=self.other, tgt_space=self.pivot)
            return self._mapped(mono, m), {"map.ckpt": (save_map, m), **encoder_files}
        return build

    def _word_dict_map(self):
        data = self.data
        pairs = [(c, b) for b, c in sorted(data.source.cipher.items())]
        m = fit_word_dictionary_map(
            pairs,
            data.vocabs[self.other].id_to_token, data.tables[self.other],
            data.vocabs[self.pivot].id_to_token, data.tables[self.pivot],
            src_space=f"words:{self.other}", tgt_space=f"words:{self.pivot}")
        built = self._mapped(self._mono_embedders()[0], m), {"map.ckpt": (save_map, m)}
        return lambda split: built

    # -- shared pieces -------------------------------------------------------------

    def _schedule(self, seed_offset, order=()):
        cfg = self.cfg
        return TrainSchedule(cfg.batch, cfg.steps, cfg.lr, list(order), cfg.seed + seed_offset)

    def _new_encoder(self, lang):
        cfg = self.cfg
        return new_encoder(len(self.data.vocabs[lang]), cfg.dim, cfg.hidden, lang,
                           cfg.seed + self._enc_seed[lang])

    def _new_encoders(self):
        return {lang: self._new_encoder(lang) for lang in self.cfg.languages}

    def _pretrain(self, lang):
        """Monolingual denoising pretraining on the training rows of `lang`."""
        cfg, vocab = self.cfg, self.data.vocabs[lang]
        enc = self._new_encoder(lang)
        dec = new_decoder(len(vocab), cfg.dim, enc.output_dim, cfg.hidden, lang,
                          cfg.seed + SEED_DECODER)
        mono = ParallelCorpus(zip(self.data.train_corpus[lang]), lang)
        sched = TrainSchedule(cfg.batch, cfg.pivot_steps, cfg.lr, [lang], cfg.seed + SEED_PRETRAIN)
        noise = NoiseParams(cfg.p_del, cfg.p_swap, cfg.seed + SEED_NOISE)
        trace = train_joint_seq2seq(mono, {lang: enc}, dec, {lang: vocab}, lang, sched, noise).trace
        self._pretrained[f"pretrain.{lang}.csv"] = (write_trace, trace)
        return enc

    def _embedders(self, encoders):
        """{enc.lang: embed} for each encoder, embedding a list of sentences."""
        return {enc.lang: functools.partial(encode_sentences, vocab=self.data.vocabs[enc.lang],
                                            enc=enc) for enc in encoders}

    def _mapped(self, mono, m):
        """`mono` with the non-pivot embedder sent through the map `m`."""
        embed = mono[self.other]
        return {**mono, self.other: lambda sentences: embed(sentences) @ m.w}

    def _mono_embedders(self):
        """Independently trained {lang: embed} and the files of their encoders."""
        cfg, data = self.cfg, self.data
        if cfg.encoder == "sif":
            return {lang: functools.partial(encode_sif_matrix, table=data.tables[lang],
                                            vocab=data.vocabs[lang])
                    for lang in cfg.languages}, {}
        encoders = {lang: self._pretrain(lang) for lang in cfg.languages}
        return self._embedders(encoders.values()), _encoder_files(encoders)


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
    """The `cls` that `save_params` wrote to `path`, its arrays in `ad.DTYPE`
    (a float64 checkpoint loads rounded). Tensor names other than the class's,
    a missing metadata key, or a tensor shape that disagrees with the others
    (`cls.shapes`) are a ConfigError naming the file."""
    tensors, comments = load_checkpoint(path)
    tensors = {name: arr.astype(ad.DTYPE) for name, arr in tensors.items()}
    metadata = parse_metadata(path, comments)
    table = [(f"{cls.kind}.{name}", tensors) if is_array else (name, metadata)
             for name, _, is_array in ad.name_table(cls)]
    expected = {key for key, source in table if source is tensors}
    if tensors.keys() != expected:
        raise ConfigError(f"{path} is not a {cls.__name__} checkpoint: missing tensors "
                          f"{sorted(expected - set(tensors))}, extra {sorted(set(tensors) - expected)}")
    missing = [key for key, source in table if key not in source]
    if missing:
        raise ConfigError(f"{path} has no {missing[0]}= comment")
    _check_shapes(path, cls, tensors)
    return ad.build_params(cls, (source[key] for key, source in table))


def _check_shapes(path, cls, tensors):
    """Each tensor's shape against `cls.shapes`, its dims as symbols: in that
    order a symbol keeps the size it has where first met, so the tensor named
    is the first to disagree with those before it; `4H` is four `H`."""
    sizes = {}
    for name, dims in cls.shapes.items():
        name, known = f"{cls.kind}.{name}", dict(sizes)
        shape = tensors[name].shape
        fits = len(shape) == len(dims)
        for size, dim in zip(shape, dims):
            k = int(dim[:-1] or 1)
            fits = fits and size % k == 0 and sizes.setdefault(dim[-1], size // k) == size // k
        if not fits:
            given = " with " + ", ".join(f"{s}={n}" for s, n in known.items()) if known else ""
            raise ConfigError(f"{path}: tensor {name!r} has shape {shape}, expected "
                              f"({', '.join(dims)}){given}")


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
    if not cfg.corpus_dir:
        for path in write_corpus_files(os.path.join(cfg.out_dir, "corpus"), data.source):
            produced.append(os.path.relpath(path, cfg.out_dir))

    exp = Experiment(cfg, data)
    points, (artifacts, heldout, reports) = evaluate_splits(exp)
    write_csv(out("curve.csv"), CurvePoint._fields, points)
    write_csv(out("retrieval.csv"), RetrievalReport._fields, reports)
    write_neighbors(out("neighbors.txt"), exp, heldout, k=min(3, cfg.test_size))

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


def evaluate_splits(exp):
    """Evaluate every configured split in order, keeping only the last
    split's result: (the `curve.csv` rows, the last split's `evaluate` result).
    """
    points = []
    for size in exp.cfg.splits:
        artifacts, heldout, reports = exp.evaluate(size)
        points += [CurvePoint(size, exp.cfg.framework, r.direction, r.accuracy) for r in reports]
    return points, (artifacts, heldout, reports)


def write_neighbors(path, exp, heldout, queries=5, k=3):
    """Write (and return) the nearest-neighbour report of the first held-out
    non-pivot sentences against each language's held-out pool."""
    texts = {lang: [" ".join(s) for s in sentences]
             for lang, sentences in exp.data.heldout.items()}
    report = neighbor_report(list(zip(texts[exp.other][:queries], heldout[exp.other][:queries])),
                             {lang: (texts[lang], heldout[lang]) for lang in heldout}, k=k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report)
    return report
