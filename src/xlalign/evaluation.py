"""Evaluation harness: translation retrieval, neighbor reports, CLDC, curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .objectives import mlp_logits, new_mlp
from .optim import fit

# byte budget of one block of similarity rows in retrieval
BUDGET = 16 * 2**20


def _normalize_rows(x, side):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.sqrt((x * x).sum(axis=1))
    bad = np.nonzero(~np.isfinite(norms))[0]
    if bad.size:
        raise ValueError(f"non-finite norm at {side} row {int(bad[0])}: "
                         "the embedding holds nan or inf, or overflows")
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise ValueError(f"zero-norm embedding at {side} row {int(bad[0])}: cosine undefined")
    return x / norms[:, None]


@dataclass
class RetrievalReport:
    direction: str
    accuracy: float
    n_queries: int


def _similarity_blocks(xs, ys):
    """Yield (start, block) over the cosine rows of consecutive query runs:
    block[r] holds the similarities of query start + r to the whole pool.

    Each block is a view of one buffer of at most BUDGET bytes (one row if a
    row alone is larger), so memory stays bounded whatever the pool size;
    the buffer is overwritten by the next block, so use a block before
    asking for the next. A pool of up to 1448 rows fits in one block, which
    is the single GEMM of the unblocked product.
    """
    n_queries, n = xs.shape[0], ys.shape[0]
    rows = max(1, BUDGET // (8 * n))
    buf = np.empty((min(rows, n_queries), n))
    for start in range(0, n_queries, rows):
        block = buf[:min(rows, n_queries - start)]
        np.matmul(xs[start:start + len(block)], ys.T, out=block)
        yield start, block


def retrieval_accuracy(src, tgt, direction="src>tgt"):
    """Fraction of source rows whose cosine-nearest target row is row i.

    Ties break toward the lowest index. Row i of src must be the translation
    of row i of tgt. Exact in memory bounded by BUDGET: each query's whole
    similarity row is scored within one block.
    """
    xs = _normalize_rows(src, "source")
    ys = _normalize_rows(tgt, "target")
    if xs.shape != ys.shape:
        raise ValueError(f"paired matrices must share shape, got {xs.shape} and {ys.shape}")
    if xs.shape[0] < 2:
        raise ValueError("retrieval needs at least two pairs")
    hits = 0
    for start, block in _similarity_blocks(xs, ys):
        hits += int((block.argmax(axis=1) == np.arange(start, start + len(block))).sum())
    return RetrievalReport(direction, hits / xs.shape[0], xs.shape[0])


def nearest_neighbors(query, pool, texts, k):
    """Top-k pool entries by cosine, descending, lowest index first on ties.

    Returns [(text, cosine), ...].
    """
    return _ranked_neighbors(query, _normalize_rows(pool, "pool"), texts, k)


def _ranked_neighbors(query, pool_n, texts, k):
    """nearest_neighbors over a pool whose rows are already unit-normalised."""
    q = np.asarray(query, dtype=np.float64)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError("zero-norm query embedding: cosine undefined")
    if k > pool_n.shape[0]:
        raise ValueError(f"k={k} exceeds pool size {pool_n.shape[0]}")
    sims = pool_n @ (q / qn)
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


@dataclass
class CLDCReport:
    train_lang: str
    test_lang: str
    accuracy: float
    n_classes: int = N_CLDC_CLASSES


def train_mlp(x, y, n_classes, hidden=64, steps=300, lr=1e-3, seed=0):
    """Full-batch Adam on a one-hidden-layer tanh MLP; returns its `ClassifierHead`."""
    x = ad.constant(np.asarray(x, dtype=np.float64))
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


# ---------------------------------------------------------------------------
# accuracy-vs-corpus-size curves
# ---------------------------------------------------------------------------

@dataclass
class CurvePoint:
    size: int
    model: str
    direction: str
    accuracy: float


def accuracy_curve(model_factory, corpus, sizes, directions, test_pairs, model_tag="model"):
    """Refit per split size and evaluate each direction on held-out pairs.

    `sizes` comes from `text.make_splits`; split k trains on the first
    sizes[k] pairs of the corpus. model_factory(train_pairs) must return
    (embed_src, embed_tgt) callables that map a list of sentences into one
    shared space. The held-out pairs must be disjoint from every training
    split (checked by content).
    """
    largest = set(map(_pair_key, corpus.pairs[:sizes[-1]]))
    overlap = [p for p in test_pairs if _pair_key(p) in largest]
    if overlap:
        raise ValueError(
            f"test set overlaps a training split ({len(overlap)} shared pairs); "
            "hold the evaluation pairs out of every split")

    test_src = [s for s, _ in test_pairs]
    test_tgt = [t for _, t in test_pairs]

    points = []
    for size in sizes:
        embed_src, embed_tgt = model_factory(corpus.pairs[:size])
        x = embed_src(test_src)
        y = embed_tgt(test_tgt)
        for q_lang, p_lang in directions:
            a, b = _orient(x, y, corpus, q_lang, p_lang)
            rep = retrieval_accuracy(a, b, direction=f"{q_lang}>{p_lang}")
            points.append(CurvePoint(size, model_tag, rep.direction, rep.accuracy))
    return points


def _pair_key(pair):
    s, t = pair
    return (tuple(s), tuple(t))


def _orient(x, y, corpus, query_lang, pool_lang):
    if (query_lang, pool_lang) == (corpus.src_lang, corpus.tgt_lang):
        return x, y
    if (query_lang, pool_lang) == (corpus.tgt_lang, corpus.src_lang):
        return y, x
    raise ValueError(f"direction {query_lang}>{pool_lang} does not match corpus "
                     f"languages {corpus.src_lang}/{corpus.tgt_lang}")


def write_curve_csv(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("size,model,direction,accuracy\n")
        for p in points:
            fh.write(f"{p.size},{p.model},{p.direction},{p.accuracy!r}\n")


def write_cldc_csv(path, reports):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("train_lang,test_lang,accuracy\n")
        for r in reports:
            fh.write(f"{r.train_lang},{r.test_lang},{r.accuracy!r}\n")


def write_retrieval_csv(path, reports):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("direction,accuracy,n_queries\n")
        for r in reports:
            fh.write(f"{r.direction},{r.accuracy!r},{r.n_queries}\n")
