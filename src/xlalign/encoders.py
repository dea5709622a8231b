"""Sentence embedding producers.

Two routes to a fixed-width sentence vector:

  * a single-layer bidirectional LSTM with temporal max-pooling (dimension 2H),
    shared by the reconstruction, translation, inference and transfer
    objectives;
  * smooth-inverse-frequency weighted word averaging (dimension D), the
    bottom-up baseline.

Batched encoding pads to the longest sentence; padded steps copy the previous
LSTM state through and are excluded from the max-pool, so a sentence's
embedding does not depend on what it was batched with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .text import PAD, UNK, sif_weight

BATCH = 64  # rows per inference batch; peak memory grows with it
DIRECTIONS = (False, True)  # the BiLSTM's (fwd, bwd) cells, as `reverse` flags


@dataclass
class LSTMParams:
    w_in: np.ndarray   # (input_dim, 4H), gate layout [i, f, g, o]
    w_rec: np.ndarray  # (H, 4H)
    bias: np.ndarray   # (4H,)

    @property
    def hidden_size(self):
        return self.w_rec.shape[0]


def init_lstm(input_dim, hidden, rng):
    """Uniform in [-1/sqrt(H), 1/sqrt(H)]; forget-gate bias starts at 1.0. In `ad.DTYPE`."""
    bound = 1.0 / np.sqrt(hidden)
    w_in = rng.uniform(-bound, bound, size=(input_dim, 4 * hidden))
    w_rec = rng.uniform(-bound, bound, size=(hidden, 4 * hidden))
    bias = np.zeros(4 * hidden, dtype=ad.DTYPE)
    bias[hidden:2 * hidden] = 1.0
    return LSTMParams(w_in.astype(ad.DTYPE), w_rec.astype(ad.DTYPE), bias)


@dataclass
class EncoderParams(ad.Params):
    embeddings: np.ndarray  # (V, D)
    fwd: LSTMParams
    bwd: LSTMParams
    lang: str

    kind = "enc"
    shapes = {"fwd.w_rec": ("H", "4H"), "fwd.w_in": ("D", "4H"), "fwd.bias": ("4H",),
              "bwd.w_rec": ("H", "4H"), "bwd.w_in": ("D", "4H"), "bwd.bias": ("4H",),
              "emb": ("V", "D")}

    @property
    def vocab_size(self):
        return self.embeddings.shape[0]

    @property
    def hidden_size(self):
        return self.fwd.hidden_size

    @property
    def output_dim(self):
        return 2 * self.hidden_size

    @property
    def prefix(self):
        """Parameter-name prefix used in training, unique per language."""
        return f"{self.kind}.{self.lang}."


def new_encoder(vocab_size, dim, hidden, lang, seed):
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    emb = rng.uniform(-bound, bound, size=(vocab_size, dim)).astype(ad.DTYPE)
    return EncoderParams(emb, init_lstm(dim, hidden, rng), init_lstm(dim, hidden, rng), lang)


# ---------------------------------------------------------------------------
# BiLSTM + max-pool
# ---------------------------------------------------------------------------

def pad_batch(id_seqs):
    """Right-pad with PAD; returns (ids (B,T), mask (B,T) float, lengths)."""
    lengths = [len(s) for s in id_seqs]
    ids, live = _padded(itertools.chain.from_iterable(id_seqs), lengths, PAD)
    return ids, live.astype(np.float64), lengths


def _padded(flat_ids, lengths, pad):
    """The iterable `flat_ids` as a (B, T) matrix of rows of `lengths`, right-padded
    with `pad`, and its bool mask of live steps."""
    if not len(lengths):
        raise ValueError("empty batch")
    lengths = np.asarray(lengths)
    if lengths.min() == 0:
        raise ValueError("cannot encode an empty sentence")
    live = np.arange(lengths.max()) < lengths[:, None]
    ids = np.full(live.shape, pad, dtype=np.int64)
    ids[live] = np.fromiter(flat_ids, np.int64, lengths.sum())
    return ids, live


def id_matrix(sentences, vocab, pad=PAD):
    """Token sequences as one id matrix: the (n, T) ids, unknown tokens UNK,
    right-padded with `pad`, and the (n,) lengths. One bulk lookup over all
    tokens; one sentence is its (1, T) row as it stands."""
    ids = map(vocab.token_to_id.get, itertools.chain.from_iterable(sentences),
              itertools.repeat(UNK))
    if len(sentences) == 1 and sentences[0]:
        return np.fromiter(ids, np.int64)[None], np.array([len(sentences[0])])
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    return _padded(ids, lengths, pad)[0], lengths


def encode_batch(ids, mask, enc_tensors):
    """BiLSTM + masked temporal max-pool over a padded id batch -> (B, 2H).

    `enc_tensors` is the encoder's `ParamSet`. Both directions run in one
    `lstm_scan` node, and one max-pool covers their (T*B, 2H) states.
    """
    x = ad.gather_rows(enc_tensors["emb"], ad.time_major(ids))
    states = ad.lstm_scan(x, [_cell(enc_tensors, "fwd."), _cell(enc_tensors, "bwd.")], mask,
                          DIRECTIONS)
    return ad.masked_maxpool(states, mask)


def _cell(tensors, name):
    """(w_in, w_rec, bias) of the LSTM cell stored under `name`."""
    return tuple(tensors[name + k] for k in ("w_in", "w_rec", "bias"))


def encode_sentences(sentences, vocab, enc):
    """Encode token sequences to a (n, 2H) array of the encoder's dtype; forward
    only, builds no graph.

    The sentences become one id matrix (`id_matrix`), whose ids are checked
    against the embedding table once. Its rows are encoded in order of
    length, in batches of `BATCH` rows cut to their longest row, so a batch
    pads little; the rows come back in input order. A trailing one-row batch
    joins the batch before it: a one-row product takes BLAS's matrix-vector
    path, whose rounding differs from a row of a matrix product. The weights
    are stacked once per call, as `lstm_steps` takes them.
    """
    out = np.empty((len(sentences), enc.output_dim), dtype=enc.embeddings.dtype)
    if not sentences:
        return out
    ids, lengths = id_matrix(sentences, vocab)
    _check_ids(int(ids.max()), enc.vocab_size)
    cells = [np.array([getattr(enc.fwd, n), getattr(enc.bwd, n)])
             for n in ("w_in", "w_rec", "bias")]
    if len(sentences) == 1:
        out[0] = _encode_ids(ids, lengths, enc.embeddings, cells)
        return out
    order = np.argsort(lengths, kind="stable")
    ids, lengths = ids[order], lengths[order]
    bounds = list(range(0, len(ids), BATCH)) + [len(ids)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    for lo, hi in zip(bounds, bounds[1:]):
        out[order[lo:hi]] = _encode_ids(ids[lo:hi, :lengths[hi - 1]], lengths[lo:hi],
                                        enc.embeddings, cells)
    return out


def _encode_ids(ids, lengths, embeddings, cells):
    """BiLSTM + max-pool of a (B, T) id batch of length-sorted rows whose last
    is T long -> (B, 2H), the bits `encode_batch` gives for it. A batch whose
    rows share one length builds no mask and no dead-step work."""
    mask = None if lengths[0] == lengths[-1] else np.arange(ids.shape[1]) < lengths[:, None]
    hs, dead, _ = ad.lstm_steps(embeddings[ids.T], cells, mask, DIRECTIONS)
    return ad.maxpool_forward(hs[1:], dead, DIRECTIONS)


def _check_ids(top, vocab_size):
    """`top`, the largest token id to embed, must index the embedding table."""
    if top >= vocab_size:
        raise ValueError(f"token id {top} out of range for vocabulary of {vocab_size}")


# ---------------------------------------------------------------------------
# SIF weighted averaging
# ---------------------------------------------------------------------------

def encode_sif(tokens, table, vocab, a=1e-3):
    """Length-normalised SIF-weighted sum of word vectors -> (D,) array."""
    return encode_sif_matrix([tokens], table, vocab, a)[0]


def encode_sif_matrix(sentences, table, vocab, a=1e-3):
    """`encode_sif` of each sentence, stacked -> (n, D); no principal-component
    removal.

    The SIF weights are multiplied into the table once. Then one pass over
    token positions adds one weighted row per sentence: every sentence's sum
    grows in token order, as a per-token loop adds it, and is divided by its
    length at the end.
    """
    weights = np.array([sif_weight(freq, vocab.total_count, a) for freq in vocab.frequencies])
    # padded positions read the appended -0.0 row: adding -0.0 leaves every
    # value as it was, signed zeros included
    ids, lengths = id_matrix(sentences, vocab, pad=len(table))
    rows = np.concatenate([weights[:, None] * table, np.full((1, table.shape[1]), -0.0)])
    acc = np.zeros((len(sentences), table.shape[1]))
    for pos in ids.T:
        acc += rows[pos]
    return acc / lengths[:, None]
