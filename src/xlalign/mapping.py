"""Post-hoc orthogonal alignment between two embedding spaces.

One fitting routine serves both granularities: sentence-level (a parallel
corpus as the dictionary) and word-level (a static dictionary file). The
fitted map is the closed-form minimiser of ||X W - Y||_F over orthogonal W,
i.e. W = U Vt from the SVD of X^T Y. Rows are embeddings; the map applies on
the right (e @ W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError
from .checkpoint import load_checkpoint, parse_metadata, save_checkpoint
from .config import ConfigError

# how far W^T W of a loaded map may stray from the identity
ORTHOGONALITY_TOL = 1e-9


@dataclass
class AlignmentMap:
    w: np.ndarray
    src_space: str
    tgt_space: str
    n_pairs: int
    residual: float  # ||XW - Y||_F on the fitting pairs

    @property
    def dim(self):
        return self.w.shape[0]


def fit_orthogonal_map(x, y, src_space="src", tgt_space="tgt"):
    """Fit W mapping rows of x onto rows of y (paired translations).

    The map is rotation-only: no centering, no scaling. Fewer pairs than the
    embedding width leave it underdetermined, so retrieval hinges on float
    rounding (2H = 64, 50 pairs: top-1 0.46 vs 0.44 for encoders ≤ 2.2e-16
    apart).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"paired embedding matrices must share shape, got {x.shape} and {y.shape}")
    if x.shape[0] < 1:
        raise ValueError("at least one pair is required")
    product = x.T @ y
    if not np.isfinite(product).all():
        raise NonFiniteError("svd input contains non-finite values")
    u, _, vt = np.linalg.svd(product, full_matrices=False)
    w = u @ vt
    residual = float(np.linalg.norm(x @ w - y))
    return AlignmentMap(w, src_space, tgt_space, x.shape[0], residual)


def apply_map(e, m, reverse=False):
    """Map an embedding (or a stack of them) into the target space.

    `reverse=True` applies W^T, taking target-space vectors back to the
    source space (exact because W is orthogonal).
    """
    vec = np.asarray(e, dtype=np.float64)
    if vec.shape[-1] != m.dim:
        raise ValueError(f"embedding dim {vec.shape[-1]} does not match map dim {m.dim}")
    with np.errstate(all="ignore"):  # a non-finite row maps to one; the caller reports it
        return vec @ (m.w.T if reverse else m.w)


def save_map(path, m):
    meta = f"src={m.src_space} tgt={m.tgt_space} pairs={m.n_pairs} residual={m.residual!r}"
    save_checkpoint(path, {"W": m.w}, comments=[meta])


def load_map(path):
    """The map `save_map` wrote to `path`. A tensor other than a square,
    orthogonal W (max |W^T W - I| <= ORTHOGONALITY_TOL, which also rejects
    nan), or a missing or out-of-range metadata value (pairs >= 1, residual
    finite and >= 0), is a ConfigError naming the file and the key."""
    tensors, comments = load_checkpoint(path)
    if tensors.keys() != {"W"}:
        raise ConfigError(f"{path} is not a map checkpoint: tensors {sorted(tensors)}, "
                          "expected ['W']")
    w = tensors["W"]
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigError(f"{path}: W must be a square 2-D matrix, got shape {w.shape}")
    with np.errstate(all="ignore"):  # a non-finite W is reported below
        deviation = np.abs(w.T @ w - np.eye(len(w))).max(initial=0.0)
    if not deviation <= ORTHOGONALITY_TOL:
        raise ConfigError(f"{path}: W is not orthogonal (max |W^T W - I| = {deviation:.3g}), "
                          "so apply_map(reverse=True) would not invert it")
    fields = parse_metadata(path, comments)
    return AlignmentMap(w, *(_metadata(path, fields, key, kind, valid) for key, kind, valid in
                             (("src", str, None), ("tgt", str, None),
                              ("pairs", int, lambda n: n >= 1),
                              ("residual", float, lambda r: 0.0 <= r < math.inf))))


def _metadata(path, fields, key, kind, valid):
    if key not in fields:
        raise ConfigError(f"{path} has no {key}= comment")
    try:
        value = kind(fields[key])
    except ValueError:
        raise ConfigError(f"{path}: {key}={fields[key]!r} is not {kind.__name__}") from None
    if valid is not None and not valid(value):
        raise ConfigError(f"{path}: {key}={fields[key]!r} is out of range")
    return value


def fit_word_dictionary_map(dict_pairs, src_words, src_table, tgt_words, tgt_table,
                            src_space="src-words", tgt_space="tgt-words"):
    """Same fit, with rows drawn from a word dictionary instead of sentences.

    Pairs whose words are missing on either side are dropped; duplicates are
    kept and reweight the fit.
    """
    src_index = {w: i for i, w in enumerate(src_words)}
    tgt_index = {w: i for i, w in enumerate(tgt_words)}
    rows_x, rows_y = [], []
    for s, t in dict_pairs:
        if s in src_index and t in tgt_index:
            rows_x.append(src_table[src_index[s]])
            rows_y.append(tgt_table[tgt_index[t]])
    if not rows_x:
        raise ConfigError("no dictionary pair is covered by both vocabularies")
    return fit_orthogonal_map(np.array(rows_x), np.array(rows_y), src_space, tgt_space)
