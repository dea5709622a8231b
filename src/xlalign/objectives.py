"""Training objectives and loops.

Five procedures share the BiLSTM encoder:

  * denoising reconstruction (noisy input, clean target, same language);
  * translation without attention (source input, pivot-language target);
  * joint training of several encoders against one shared decoder,
    alternating the batch language round-robin;
  * cross-lingual inference classification with a single shared softmax head,
    premise and hypothesis languages drawn independently per batch;
  * frozen-pivot representation transfer with an L1 regression loss.

The decoder is conditioned by concatenating the sentence embedding to the
previous-token embedding at every step; there is no attention. All loops are
deterministic functions of (seed, data, schedule).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoders import (EncoderParams, LSTMParams, _cell, encode_batch, encode_sentences,
                       init_lstm, pad_batch, _check_ids)
from .optim import fit
from .rand import Xorshift64Star
from .text import BOS, EOS, PAD, corrupt, write_csv

TRACE_HEADER = ("step", "objective", "language_pair", "value")


@dataclass
class TrainSchedule:
    batch_size: int = 16
    steps: int = 100
    lr: float = 1e-3
    language_order: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def write_trace(path, rows):
    write_csv(path, TRACE_HEADER, rows)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

@dataclass
class DecoderParams(ad.Params):
    embeddings: np.ndarray  # (V, D) previous-token table, untied from encoders
    cell: LSTMParams        # input dim D + sentence_dim
    w_out: np.ndarray       # (H, V)
    b_out: np.ndarray       # (V,)
    lang: str

    kind = "dec"
    shapes = {"cell.w_rec": ("H", "4H"), "cell.w_in": ("N", "4H"), "cell.bias": ("4H",),
              "emb": ("V", "D"), "w_out": ("H", "V"), "b_out": ("V",)}

    @property
    def vocab_size(self):
        return self.w_out.shape[1]


def new_decoder(vocab_size, dim, sentence_dim, hidden, lang, seed):
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    emb = rng.uniform(-bound, bound, size=(vocab_size, dim))
    cell = init_lstm(dim + sentence_dim, hidden, rng)
    w_out = rng.uniform(-1.0 / np.sqrt(hidden), 1.0 / np.sqrt(hidden), size=(hidden, vocab_size))
    return DecoderParams(emb.astype(ad.DTYPE), cell, w_out.astype(ad.DTYPE),
                         np.zeros(vocab_size, dtype=ad.DTYPE), lang)


def teacher_forcing_arrays(padded, lengths):
    """Decoder input and target ids of target sentences, from their PAD-padded
    id matrix (as `pad_batch` builds it) and their lengths.

    Step k predicts target token k from [BOS, y_1, .., y_{k-1}]; the final
    step predicts EOS. Both arrays are one column wider than `padded`.
    """
    rows = len(padded)
    dec_in = np.concatenate([np.full((rows, 1), BOS, dtype=padded.dtype), padded], axis=1)
    targets = np.concatenate([padded, np.full((rows, 1), PAD, dtype=padded.dtype)], axis=1)
    targets[np.arange(rows), lengths] = EOS
    return dec_in, targets


def decode_ce_sum(sent_emb, dec_tensors, dec_in, targets, mask):
    """Teacher-forced cross-entropy summed over unmasked target tokens.

    `dec_tensors` is the decoder's `ParamSet`. The sentence embedding is
    appended to the previous-token embedding at every step; all steps' logits
    come from one output projection.
    """
    x = ad.gather_rows(dec_tensors["emb"], ad.time_major(dec_in))
    states = ad.lstm_scan(x, [_cell(dec_tensors, "cell.")], mask, (False,), context=sent_emb)
    logits = ad.add(ad.matmul(states, dec_tensors["w_out"]), dec_tensors["b_out"])
    return ad.softmax_cross_entropy_sum(logits, ad.time_major(targets), ad.time_major(mask))


class IdTable:
    """Sentences as token ids, encoded and padded once, so that a training
    batch only slices rows: `ids` (one list per sentence, what input noise
    reorders), `lengths`, the PAD-padded `padded` ids and `top`, the largest
    id. As a decoder target it also holds the sentences' teacher-forcing
    arrays, built on first use."""

    def __init__(self, sentences, vocab):
        self.ids = [vocab.encode(s) for s in sentences]
        self.padded, _, lengths = pad_batch(self.ids)
        self.lengths = np.array(lengths)
        self.top = int(self.padded.max())
        # row n is the 0/1 mask of n live steps, one step wider than `padded`
        steps = self.padded.shape[1] + 1
        self._masks = (np.arange(steps) < np.arange(steps + 1)[:, None]).astype(np.float64)

    def batch(self, rows, noise=None, noise_rng=None):
        """(ids, mask) of the sentences `rows`, the arrays `pad_batch` builds for
        them; with `noise`, of the sentences corrupted by `corrupt` with `noise_rng`."""
        if noise is not None:
            return pad_batch([corrupt(self.ids[i], noise, noise_rng) for i in rows])[:2]
        n = self.lengths[rows]
        steps = n.max()
        return self.padded[rows, :steps], self._masks[n, :steps]

    @functools.cached_property
    def _forcing(self):
        return teacher_forcing_arrays(self.padded, self.lengths)

    def forcing_batch(self, rows):
        """(dec_in, targets, mask) of the sentences `rows`: the rows of the
        `teacher_forcing_arrays` of the table, cut to the longest row's steps."""
        n = self.lengths[rows]
        steps = n.max() + 1
        dec_in, targets = self._forcing
        return dec_in[rows, :steps], targets[rows, :steps], self._masks[n + 1, :steps]


def _encode_rows(table, rows, enc, enc_tensors, noise=None, noise_rng=None):
    _check_ids(table.top, enc.vocab_size)
    return encode_batch(*table.batch(rows, noise, noise_rng), enc_tensors)


def seq2seq_loss(src, tgt, rows, enc, dec, denoise=None, noise_rng=None):
    """Cross-entropy of reconstructing/translating the sentences `rows` of the
    id table `tgt` (decoder target) from the embeddings of the same rows of
    `src` (encoder input), averaged over non-PAD target tokens.

    With `denoise` set the encoder sees its rows corrupted with `noise_rng`
    while the loss still targets the clean sentences. Corruption reorders and
    drops positions only, so corrupting ids gives the ids of the corrupted
    tokens. Returns (loss, (encoder ParamSet, decoder ParamSet)), in the
    clip-norm summation order of `fit`.
    """
    if tgt.top >= dec.vocab_size:
        raise ValueError(
            f"target vocabulary mismatch: id {tgt.top} outside decoder table of {dec.vocab_size}")
    if denoise is not None and noise_rng is None:
        noise_rng = Xorshift64Star(denoise.seed)
    enc_tensors = ad.ParamSet(enc)
    dec_tensors = ad.ParamSet(dec)
    sent = _encode_rows(src, rows, enc, enc_tensors, denoise, noise_rng)
    dec_in, tgt_arr, mask = tgt.forcing_batch(rows)
    ce = decode_ce_sum(sent, dec_tensors, dec_in, tgt_arr, mask)
    return ad.scale(ce, 1.0 / int(mask.sum())), (enc_tensors, dec_tensors)


# ---------------------------------------------------------------------------
# joint encoder-decoder training
# ---------------------------------------------------------------------------

@dataclass
class JointResult:
    encoders: dict
    decoder: DecoderParams
    trace: list


def train_joint_seq2seq(corpus, encoders, decoder, vocabs, pivot, sched, noise):
    """Alternate batch languages round-robin against one shared decoder.

    Each batch draws rows of `corpus`; a language's encoder reads that
    language's sentences and the decoder writes the pivot's. Pivot batches
    run the denoising reconstruction objective, with `noise` (a NoiseParams);
    every other language runs translation into the pivot. The decoder
    parameter arrays are updated in place, so a single shared set persists
    across all steps. Each language's sentences are encoded once, into an
    `IdTable`.
    """
    order = sched.language_order or sorted(encoders)
    for lang in order:
        if lang not in encoders:
            raise ValueError(f"no encoder for scheduled language {lang!r}")
    noise_rng = Xorshift64Star(noise.seed ^ 0x5DEECE66D)
    rng = np.random.default_rng(sched.seed)
    tables = {lang: IdTable(corpus[lang], vocabs[lang]) for lang in dict.fromkeys([*order, pivot])}
    # per scheduled language: id table, encoder, input noise, objective, pair
    plan = [(tables[lang], encoders[lang], noise if lang == pivot else None,
             "sdae" if lang == pivot else "nmt", f"{lang}>{pivot}") for lang in order]

    def one_step(step):
        table, enc, denoise, objective, pair = plan[step % len(plan)]
        idx = rng.integers(0, len(corpus), size=sched.batch_size)
        loss, tensors = seq2seq_loss(table, tables[pivot], idx, enc, decoder, denoise, noise_rng)
        return loss, tensors, [(step, objective, pair, float(loss.data))]

    trace = fit([decoder, *encoders.values()], sched.steps, sched.lr, one_step)
    return JointResult(encoders, decoder, trace)


# ---------------------------------------------------------------------------
# inference classifier
# ---------------------------------------------------------------------------

@dataclass
class ClassifierHead(ad.Params):
    """One-hidden-layer tanh MLP: the shared InferSent head over pair
    features, and the CLDC classifier over document vectors."""

    w1: np.ndarray  # (in_dim, hidden)
    b1: np.ndarray
    w2: np.ndarray  # (hidden, n_classes)
    b2: np.ndarray

    kind = "head"
    shapes = {"w1": ("I", "K"), "b1": ("K",), "w2": ("K", "C"), "b2": ("C",)}

    def predict(self, x):
        """Class id of each row of the plain array x."""
        return mlp_logits(ad.constant(x), ad.ParamSet(self)).data.argmax(axis=1)


def new_mlp(in_dim, hidden, n_classes, seed):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-1, 1, size=(in_dim, hidden)) / np.sqrt(in_dim)
    w2 = rng.uniform(-1, 1, size=(hidden, n_classes)) / np.sqrt(hidden)
    return ClassifierHead(w1.astype(ad.DTYPE), np.zeros(hidden, dtype=ad.DTYPE),
                          w2.astype(ad.DTYPE), np.zeros(n_classes, dtype=ad.DTYPE))


def new_head(sentence_dim, hidden=128, seed=0):
    return new_mlp(4 * sentence_dim, hidden, 3, seed)


def mlp_logits(x, head_tensors):
    """The head's logits for the rows of x, one `ad.mlp` node."""
    return ad.mlp(x, *(head_tensors[name] for name in ("w1", "b1", "w2", "b2")))


def pair_features(u, v):
    """[u; v; |u - v|; u*v] along the last axis."""
    return ad.concat([u, v, ad.absolute(ad.sub(u, v)), ad.mul(u, v)], axis=-1)


def infersent_loss(premises, hypotheses, rows, labels, enc_p, enc_h, head):
    """Three-way cross-entropy of the shared classifier over the pairs `rows`
    of the id tables `premises` and `hypotheses`; `labels` are those rows'
    labels. The two sides may use different encoders. Returns (loss, (head,
    premise, hypothesis ParamSets), logits), in the clip-norm summation order
    of `fit`; one ParamSet serves both sides when enc_p is enc_h.
    """
    labels = np.asarray(labels, dtype=np.int64)
    enc_tensors_p = ad.ParamSet(enc_p)
    enc_tensors_h = enc_tensors_p if enc_h is enc_p else ad.ParamSet(enc_h)
    head_tensors = ad.ParamSet(head)
    u = _encode_rows(premises, rows, enc_p, enc_tensors_p)
    v = _encode_rows(hypotheses, rows, enc_h, enc_tensors_h)
    logits = head_logits(u, v, head_tensors)
    loss = ad.scale(ad.softmax_cross_entropy_sum(logits, labels), 1.0 / len(labels))
    return loss, (head_tensors, enc_tensors_p, enc_tensors_h), logits


def head_logits(u, v, head_tensors):
    return mlp_logits(pair_features(u, v), head_tensors)


@dataclass
class NLIDataset:
    premises: list
    hypotheses: list
    labels: list

    def __post_init__(self):
        if not (len(self.premises) == len(self.hypotheses) == len(self.labels)):
            raise ValueError("premises, hypotheses and labels must be index-aligned")
        bad = [l for l in self.labels if l not in (0, 1, 2)]
        if bad:
            raise ValueError(f"labels outside {{0,1,2}}: {sorted(set(bad))[:5]}")


@dataclass
class InferSentResult:
    encoders: dict
    head: ClassifierHead
    trace: list
    language_draws: list  # (premise_lang, hypothesis_lang) per step


def draw_language_pair(rng, langs):
    """Premise and hypothesis languages, independent and uniform."""
    return langs[int(rng.integers(len(langs)))], langs[int(rng.integers(len(langs)))]


def train_joint_infersent(datasets, encoders, head, vocabs, sched):
    """Premise and hypothesis languages are drawn independently and uniformly
    per batch; a single classifier head is shared across all languages. Each
    language's premises and hypotheses are encoded once, into `IdTable`s.
    """
    langs = sorted(datasets)
    for lang in langs:
        if lang not in encoders:
            raise ValueError(f"no encoder for language {lang!r}")
    n = len(datasets[langs[0]].premises)
    rng = np.random.default_rng(sched.seed)
    draws = []
    premises = {lang: IdTable(d.premises, vocabs[lang]) for lang, d in datasets.items()}
    hypotheses = {lang: IdTable(d.hypotheses, vocabs[lang]) for lang, d in datasets.items()}
    labels = {lang: np.array(d.labels) for lang, d in datasets.items()}

    def one_step(step):
        p_lang, h_lang = draw_language_pair(rng, langs)
        draws.append((p_lang, h_lang))
        idx = rng.integers(0, n, size=sched.batch_size)
        batch_labels = labels[p_lang][idx]
        loss, tensors, logits = infersent_loss(premises[p_lang], hypotheses[h_lang], idx,
                                               batch_labels, encoders[p_lang], encoders[h_lang],
                                               head)
        acc = float((logits.data.argmax(axis=1) == batch_labels).mean())
        pair = f"{p_lang}|{h_lang}"
        return loss, tensors, [(step, "infersent_loss", pair, float(loss.data)),
                               (step, "infersent_acc", pair, acc)]

    trace = fit([head, *encoders.values()], sched.steps, sched.lr, one_step)
    return InferSentResult(encoders, head, trace, draws)


def infersent_accuracy(datasets, encoders, head, vocabs, p_lang, h_lang):
    """Classification accuracy over a full dataset for one language pairing."""
    data_p, data_h = datasets[p_lang], datasets[h_lang]
    u = encode_sentences(data_p.premises, vocabs[p_lang], encoders[p_lang])
    v = encode_sentences(data_h.hypotheses, vocabs[h_lang], encoders[h_lang])
    logits = head_logits(ad.constant(u), ad.constant(v), ad.ParamSet(head))
    return int((logits.data.argmax(axis=1) == np.array(data_p.labels)).sum()) / len(u)


# ---------------------------------------------------------------------------
# representation transfer
# ---------------------------------------------------------------------------

def transfer_l1_loss(table, rows, target_embeddings, enc):
    """Mean (per pair) L1 distance between the encoder's embeddings of the
    sentences `rows` of the id table `table` and `target_embeddings`, those
    rows' fixed targets. Returns (loss, (encoder ParamSet,)), the form `fit`
    clips.
    """
    enc_tensors = ad.ParamSet(enc)
    emb = _encode_rows(table, rows, enc, enc_tensors)
    diff = ad.absolute(ad.sub(emb, ad.constant(target_embeddings)))
    return ad.scale(ad.tsum(diff), 1.0 / len(rows)), (enc_tensors,)


@dataclass
class TransferResult:
    new_encoder: EncoderParams
    trace: list


def train_transfer(corpus, pivot_enc, new_enc, new_vocab, pivot_vocab, sched):
    """Regress the new encoder's embeddings of `corpus[new_enc.lang]` onto
    the frozen pivot encoder's embeddings of the same rows of
    `corpus[pivot_enc.lang]` (L1 loss, Adam).

    The pivot encoder is never touched; its embeddings are precomputed once.
    """
    if pivot_enc.output_dim != new_enc.output_dim:
        raise ValueError(
            f"embedding dimension mismatch: pivot {pivot_enc.output_dim} vs new {new_enc.output_dim}")
    targets = encode_sentences(corpus[pivot_enc.lang], pivot_vocab, pivot_enc)
    rng = np.random.default_rng(sched.seed)
    table = IdTable(corpus[new_enc.lang], new_vocab)
    pair = f"{new_enc.lang}>{pivot_enc.lang}"

    def one_step(step):
        idx = rng.integers(0, len(corpus), size=sched.batch_size)
        loss, tensors = transfer_l1_loss(table, idx, targets[idx], new_enc)
        return loss, tensors, [(step, "transfer_l1", pair, float(loss.data))]

    trace = fit([new_enc], sched.steps, sched.lr, one_step)
    return TransferResult(new_enc, trace)
