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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .text import PAD, sif_weight


@dataclass
class LSTMParams:
    w_in: np.ndarray   # (input_dim, 4H), gate layout [i, f, g, o]
    w_rec: np.ndarray  # (H, 4H)
    bias: np.ndarray   # (4H,)

    @property
    def hidden_size(self):
        return self.w_rec.shape[0]


def init_lstm(input_dim, hidden, rng):
    """Uniform in [-1/sqrt(H), 1/sqrt(H)]; forget-gate bias starts at 1.0."""
    bound = 1.0 / np.sqrt(hidden)
    w_in = rng.uniform(-bound, bound, size=(input_dim, 4 * hidden))
    w_rec = rng.uniform(-bound, bound, size=(hidden, 4 * hidden))
    bias = np.zeros(4 * hidden)
    bias[hidden:2 * hidden] = 1.0
    return LSTMParams(w_in, w_rec, bias)


@dataclass
class EncoderParams(ad.Params):
    embeddings: np.ndarray  # (V, D)
    fwd: LSTMParams
    bwd: LSTMParams
    lang: str

    kind = "enc"

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
    emb = rng.uniform(-bound, bound, size=(vocab_size, dim))
    return EncoderParams(emb, init_lstm(dim, hidden, rng), init_lstm(dim, hidden, rng), lang)


# ---------------------------------------------------------------------------
# BiLSTM + max-pool
# ---------------------------------------------------------------------------

def pad_batch(id_seqs):
    """Right-pad with PAD; returns (ids (B,T), mask (B,T) float, lengths)."""
    if not id_seqs:
        raise ValueError("empty batch")
    lengths = [len(s) for s in id_seqs]
    if min(lengths) == 0:
        raise ValueError("cannot encode an empty sentence")
    t_max = max(lengths)
    ids = np.full((len(id_seqs), t_max), PAD, dtype=np.int64)
    mask = np.zeros((len(id_seqs), t_max))
    for i, seq in enumerate(id_seqs):
        ids[i, :len(seq)] = seq
        mask[i, :len(seq)] = 1.0
    return ids, mask, lengths


def encode_batch(ids, mask, enc_tensors):
    """BiLSTM + masked temporal max-pool over a padded id batch -> (B, 2H).

    `enc_tensors` is the encoder's `ParamSet`.
    """
    x = ad.gather_rows(enc_tensors["emb"], ad.time_major(ids))
    pooled = [ad.masked_maxpool(ad.lstm_scan(x, *_cell(enc_tensors, name), mask, reverse), mask)
              for name, reverse in (("fwd.", False), ("bwd.", True))]
    return ad.concat(pooled, axis=1)


def _cell(tensors, name):
    """(w_in, w_rec, bias) of the LSTM cell stored under `name`."""
    return tuple(tensors[name + k] for k in ("w_in", "w_rec", "bias"))


def encode_sentences(sentences, vocab, enc):
    """Encode token sequences to a (n, 2H) array; forward only, builds no graph."""
    out = np.empty((len(sentences), enc.output_dim))
    step = 64
    for lo in range(0, len(sentences), step):
        batch = sentences[lo:lo + step]
        ids, mask, _ = pad_batch([vocab.encode(s) for s in batch])
        _check_ids(ids, enc.vocab_size)
        x = enc.embeddings[ad.time_major(ids)]
        pooled = [ad.maxpool_forward(ad.lstm_scan_forward(x, cell.w_in, cell.w_rec, cell.bias,
                                                          mask, reverse)[0], mask)[0]
                  for cell, reverse in ((enc.fwd, False), (enc.bwd, True))]
        out[lo:lo + len(batch)] = np.concatenate(pooled, axis=1)
    return out


def _check_ids(ids, vocab_size):
    if ids.size and ids.max() >= vocab_size:
        raise ValueError(f"token id {int(ids.max())} out of range for vocabulary of {vocab_size}")


# ---------------------------------------------------------------------------
# SIF weighted averaging
# ---------------------------------------------------------------------------

def encode_sif(tokens, table, vocab, a=1e-3):
    """Length-normalised SIF-weighted sum of word vectors -> (D,) array."""
    if not tokens:
        raise ValueError("cannot encode an empty sentence")
    total = vocab.total_count
    acc = np.zeros(table.shape[1])
    for tok in tokens:
        wid = vocab.id_of(tok)
        acc += sif_weight(vocab.frequencies[wid], total, a) * table[wid]
    return acc / len(tokens)


def encode_sif_matrix(sentences, table, vocab, a=1e-3, remove_pc=False):
    out = np.stack([encode_sif(s, table, vocab, a) for s in sentences])
    if remove_pc:
        out = remove_principal_component(out)
    return out


def remove_principal_component(x):
    """Subtract each row's projection onto the first right singular vector.

    Off by default in the pipelines; provided for experimentation.
    """
    x = np.asarray(x, dtype=np.float64)
    _, _, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    pc = vt[0]
    return x - np.outer(x @ pc, pc)


def dump_sentence_embeddings(path, matrix):
    """word2vec-style dump with the sentence index in place of the word."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for i, row in enumerate(matrix):
            fh.write(str(i) + " " + " ".join(repr(float(v)) for v in row) + "\n")
