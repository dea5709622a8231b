"""Evaluation harness: translation retrieval, neighbor reports, CLDC."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .objectives import mlp_logits, new_mlp
from .optim import fit

# byte budget of one block of similarity rows in retrieval
BUDGET = 16 * 2**20


def _row_norms(x, side):
    """x as float64 and its row norms. A row whose norm is zero (its cosine
    would be 0/0) or not finite is a NonFiniteError naming the side and the row."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.sqrt((x * x).sum(axis=1))
    bad = np.nonzero(~np.isfinite(norms))[0]
    if bad.size:
        raise ad.NonFiniteError(f"non-finite norm at {side} row {int(bad[0])}: "
                         "the embedding holds nan or inf, or overflows")
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise ad.NonFiniteError(f"zero-norm embedding at {side} row {int(bad[0])}: "
                                "cosine undefined")
    return x, norms


def _normalize_rows(x, side):
    x, norms = _row_norms(x, side)
    return x / norms[:, None]


class RetrievalReport(NamedTuple):  # a row of retrieval.csv
    direction: str
    accuracy: float
    n_queries: int


class CurvePoint(NamedTuple):  # a row of curve.csv
    size: int
    model: str
    direction: str
    accuracy: float


def _similarity_blocks(xs, ys):
    """Yield (start, block) over the cosine rows of consecutive query runs:
    block[r] holds the similarities of query start + r to the whole pool,
    in the dtype of the rows.

    Each block is a view of one buffer of at most BUDGET bytes (one row if a
    row alone is larger), so memory stays bounded whatever the pool size;
    the buffer is overwritten by the next block, so use a block before
    asking for the next. A pool of up to 2048 float32 rows (1448 float64
    rows) fits in one block, which is the single GEMM of the unblocked
    product.
    """
    n_queries, n = xs.shape[0], ys.shape[0]
    dtype = np.result_type(xs, ys)
    rows = max(1, BUDGET // (dtype.itemsize * n))
    buf = np.empty((min(rows, n_queries), n), dtype)
    for start in range(0, n_queries, rows):
        block = buf[:min(rows, n_queries - start)]
        np.matmul(xs[start:start + len(block)], ys.T, out=block)
        yield start, block


def _screen_margin(d):
    """How far apart two float32 cosines of d-wide rows must be for their
    float64 cosines to be ordered the same way.

    Let u = 2⁻²⁴ and γ_k = k·u / (1 − k·u). Rounding the float64 unit rows
    a, b to float32 moves each entry by at most u times itself (by 2⁻¹⁵⁰ at
    most below float32's normal range, which the slack below absorbs), so by
    Cauchy–Schwarz |â·b̂ − a·b| ≤ 2u + u². The float32 dot product of the d
    terms adds at most γ_d·|â|·|b̂| ≤ γ_d·(1 + u)², in any summation order.
    Together that is at most γ_{d+2}. The float64 cosine that decides
    differs from a·b by about d·2⁻⁵³, and |a|, |b| from 1 by less, both far
    below the u that γ_{d+3} adds to γ_{d+2}. So every float32 cosine lies
    within γ_{d+3} of its float64 cosine, and a gap wider than twice that
    orders the two the same way in float64.
    """
    k = (d + 3) * 2.0**-24
    return 2 * k / (1 - k) if k < 0.5 else np.inf


def retrieval_accuracy(src, tgt, direction="src>tgt"):
    """Fraction of source rows whose cosine-nearest target row is row i.

    Ties break toward the lowest index. Row i of src must be the translation
    of row i of tgt. Exact in memory bounded by BUDGET: each query's whole
    similarity row is scored within one block.

    The blocks are scored in float32. A query whose gold cosine and best
    other cosine are further apart than `_screen_margin` is decided there;
    any other query is decided in float64 over the pool rows within the
    margin of its gold cosine, gold included.
    """
    x, x_norms = _row_norms(src, "source")
    y, y_norms = _row_norms(tgt, "target")
    if x.shape != y.shape:
        raise ValueError(f"paired matrices must share shape, got {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise ValueError("retrieval needs at least two pairs")
    # float32 unit rows: each entry is the float32 rounding of the float64 one
    xs = np.divide(x, x_norms[:, None], out=np.empty(x.shape, np.float32), casting="same_kind")
    ys = np.divide(y, y_norms[:, None], out=np.empty(y.shape, np.float32), casting="same_kind")
    margin = _screen_margin(x.shape[1])
    hits = 0
    for start, block in _similarity_blocks(xs, ys):
        diagonal = np.arange(len(block)), np.arange(start, start + len(block))
        gold = block[diagonal].astype(np.float64)
        block[diagonal] = -np.inf
        gap = gold - block.max(axis=1)
        hits += int((gap > margin).sum())
        for r in np.nonzero(np.abs(gap) <= margin)[0]:
            i = start + r
            near = block[r] >= gold[r] - margin
            near[i] = True
            cols = np.flatnonzero(near)
            # every row is reduced the same way, so identical pool rows tie
            # exactly and argmax keeps the lowest index
            sims = (y[cols] / y_norms[cols, None] * (x[i] / x_norms[i])).sum(axis=1)
            hits += int(cols[sims.argmax()] == i)
    return RetrievalReport(direction, hits / x.shape[0], x.shape[0])


def nearest_neighbors(query, pool, texts, k):
    """Top-k pool entries by cosine, descending, lowest index first on ties.

    Returns [(text, cosine), ...].
    """
    return _ranked_neighbors(query, _normalize_rows(pool, "pool"), texts, k)


def _ranked_neighbors(query, pool_n, texts, k):
    """nearest_neighbors over a pool whose rows are already unit-normalised."""
    q = _normalize_rows(np.reshape(query, (1, -1)), "query")[0]
    if k > pool_n.shape[0]:
        raise ValueError(f"k={k} exceeds pool size {pool_n.shape[0]}")
    sims = pool_n @ q
    # stable sort on negated sims keeps the lowest index first among ties
    order = np.argsort(-sims, kind="stable")[:k]
    return [(texts[i], float(sims[i])) for i in order]


def neighbor_report(queries, pools, k=3):
    """Plain-text report: each query followed by its top-k neighbors per pool.

    queries: [(label, vector), ...]; pools: {name: (texts, matrix)}. Each
    pool is normalised once for all queries.
    """
    normed = {name: (texts, _normalize_rows(matrix, "pool"))
              for name, (texts, matrix) in pools.items()}
    lines = []
    for label, vec in queries:
        lines.append(f"Query: {label}")
        for name in sorted(normed):
            texts, pool_n = normed[name]
            lines.append(f"  [{name}]")
            for text, cos in _ranked_neighbors(vec, pool_n, texts, k):
                lines.append(f"    {cos:+.4f}  {text}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# cross-lingual document classification
# ---------------------------------------------------------------------------

N_CLDC_CLASSES = 4


class CLDCReport(NamedTuple):  # a row of cldc.csv
    train_lang: str
    test_lang: str
    accuracy: float


def train_mlp(x, y, n_classes, hidden=64, steps=300, lr=1e-3, seed=0):
    """Full-batch Adam on a one-hidden-layer tanh MLP, in `ad.DTYPE`; returns its
    `ClassifierHead`."""
    x = ad.constant(np.asarray(x, dtype=ad.DTYPE))
    y = np.asarray(y, dtype=np.int64)
    head = new_mlp(x.shape[1], hidden, n_classes, seed)

    def one_step(_):
        head_tensors = ad.ParamSet(head)
        loss = ad.softmax_cross_entropy_sum(mlp_logits(x, head_tensors), y)
        return ad.scale(loss, 1.0 / len(y)), (head_tensors,), ()

    fit([head], steps, lr, one_step)
    return head


def mean_document_embedding(doc, embedder):
    """Document vector = unweighted mean of its sentence embeddings."""
    vecs = [np.asarray(embedder(s), dtype=np.float64) for s in doc]
    return np.mean(vecs, axis=0)


def batched_embedder(embed, docs):
    """A per-sentence embedder over the sentences of `docs` ([(doc, label)]),
    served from one `embed` call on their distinct sentences."""
    distinct = list(dict.fromkeys(tuple(s) for doc, _ in docs for s in doc))
    rows = dict(zip(distinct, embed([list(s) for s in distinct])))
    return lambda sentence: rows[tuple(sentence)]


def cldc_train_eval(train_docs, test_docs, embedders, train_lang, test_lang, seed=0):
    """Train an MLP on documents of one language, test on another.

    train_docs/test_docs: [(doc, label)] with doc a list of sentences and
    labels in range(N_CLDC_CLASSES). `embedders` maps each of the two
    languages to a callable that embeds one sentence in the shared
    cross-lingual space.
    """
    train_y = np.array([label for _, label in train_docs])
    present = set(train_y.tolist())
    missing = set(range(N_CLDC_CLASSES)) - present
    if missing:
        raise ValueError(f"classes absent from training set: {sorted(missing)}")
    bad = [l for _, l in list(train_docs) + list(test_docs) if not 0 <= l < N_CLDC_CLASSES]
    if bad:
        raise ValueError(f"labels outside range({N_CLDC_CLASSES}): {sorted(set(bad))[:5]}")

    train_x = np.stack([mean_document_embedding(doc, embedders[train_lang])
                        for doc, _ in train_docs])
    test_x = np.stack([mean_document_embedding(doc, embedders[test_lang]) for doc, _ in test_docs])
    test_y = np.array([label for _, label in test_docs])
    clf = train_mlp(train_x, train_y, N_CLDC_CLASSES, seed=seed)
    accuracy = float((clf.predict(test_x) == test_y).mean())
    return CLDCReport(train_lang, test_lang, accuracy)
