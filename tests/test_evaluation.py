import math
import tracemalloc

import numpy as np
import pytest

from xlalign import evaluation
from xlalign.cli import main
from xlalign.evaluation import (CurvePoint, accuracy_curve, cldc_train_eval,
                                nearest_neighbors, neighbor_report,
                                retrieval_accuracy, train_mlp, write_curve_csv)
from xlalign.text import ParallelCorpus, make_splits

from conftest import write_dump
from test_mapping import random_orthogonal


def cosine(a, b):
    return float(np.dot(a, b)) / (math.sqrt(float(np.dot(a, a))) *
                                  math.sqrt(float(np.dot(b, b))))


def brute_force_retrieval(src, tgt):
    """O(n^2) oracle with per-pair scalar cosines."""
    n = len(src)
    hits = 0
    argmaxes = []
    for i in range(n):
        best_j, best_cos = -1, -math.inf
        for j in range(n):
            cos = cosine(src[i], tgt[j])
            if cos > best_cos:
                best_j, best_cos = j, cos
        argmaxes.append(best_j)
        hits += best_j == i
    return hits / n, argmaxes


def sign_rows(g, n, d=32, nnz=4):
    """Rows of `nnz` entries ±1 and zeros elsewhere. Their cosines are
    multiples of 1/nnz, exact in every summation order, so equal rows tie
    exactly in the GEMM and in the scalar oracle alike."""
    x = np.zeros((n, d))
    for row in x:
        row[g.choice(d, nnz, replace=False)] = g.choice([-1.0, 1.0], nnz)
    return x


POOL = 300
BLOCK_ROWS = 45  # 300 queries: six blocks of 45 and a last one of 30


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(evaluation, "BUDGET", 8 * POOL * BLOCK_ROWS)


def tied_pairs(seed):
    """POOL pairs with exact duplicate pool rows on both sides of the block
    boundaries at 45 and 90 and far apart, and queries whose gold is beaten."""
    g = np.random.default_rng(seed)
    tgt = sign_rows(g, POOL)
    for a, b in ((44, 45), (89, 90), (10, 200), (299, 3)):
        tgt[b] = tgt[a]
    src = tgt.copy()
    src[::7] = sign_rows(g, len(src[::7]))
    return src, tgt


class TestRetrieval:
    def test_identity_gives_perfect_accuracy(self, rng):
        x = rng.normal(size=(10, 4))
        assert retrieval_accuracy(x, x).accuracy == 1.0

    def test_adversarial_shifted_onehots(self):
        src = np.eye(4)
        tgt = np.roll(np.eye(4), 1, axis=0)  # gold at cosine 0, a distractor at 1
        assert retrieval_accuracy(src, tgt).accuracy == 0.0

    def test_matches_brute_force_oracle(self):
        for seed in range(50):
            g = np.random.default_rng(seed)
            n = int(g.integers(2, 40))
            src = g.normal(size=(n, 6))
            tgt = src + 0.3 * g.normal(size=(n, 6))
            report = retrieval_accuracy(src, tgt)
            oracle_acc, _ = brute_force_retrieval(src, tgt)
            assert report.accuracy == oracle_acc
            assert report.n_queries == n

    def test_zero_norm_row_named(self, rng):
        x = rng.normal(size=(4, 3))
        x[2] = 0.0
        with pytest.raises(ValueError, match="row 2"):
            retrieval_accuracy(x, rng.normal(size=(4, 3)))

    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_row_named(self, rng, side, value):
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        (x if side == "source" else y)[4, 2] = value
        with pytest.raises(ValueError, match=f"non-finite norm at {side} row 4"):
            retrieval_accuracy(x, y)

    def test_non_finite_pool_row_named(self, rng):
        pool = rng.normal(size=(3, 2))
        pool[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite norm at pool row 1"):
            nearest_neighbors(rng.normal(size=2), pool, ["a", "b", "c"], k=1)

    def test_needs_two_pairs(self, rng):
        x = rng.normal(size=(1, 3))
        with pytest.raises(ValueError, match="two"):
            retrieval_accuracy(x, x)

    def test_small_budget_spans_blocks(self, small_budget):
        xs = ys = np.ones((POOL, 4))
        sizes = [len(block) for _, block in evaluation._similarity_blocks(xs, ys)]
        assert sizes == [BLOCK_ROWS] * 6 + [POOL - 6 * BLOCK_ROWS]

    @pytest.mark.parametrize("seed", range(2))
    def test_blocked_matches_brute_force_oracle(self, small_budget, seed):
        src, tgt = tied_pairs(seed)
        g = np.random.default_rng(seed)
        noisy = g.normal(size=(POOL, 6))
        for a, b in ((src, tgt), (tgt, src), (noisy, noisy + 0.8 * g.normal(size=(POOL, 6)))):
            assert retrieval_accuracy(a, b).accuracy == brute_force_retrieval(a, b)[0]

    def test_memory_is_bounded_by_the_block_budget(self, rng):
        x, y = rng.normal(size=(4000, 32)), rng.normal(size=(4000, 32))
        tracemalloc.start()
        try:
            retrieval_accuracy(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * evaluation.BUDGET + 4 * 2**20  # the n x n matrix alone is 128 MB

    def test_eval_retrieval_command_spans_blocks(self, small_budget, tmp_path, capsys):
        src, tgt = tied_pairs(3)
        write_dump(tmp_path / "src.vec", src)
        write_dump(tmp_path / "tgt.vec", tgt)
        assert main(["eval-retrieval", "--src-emb", str(tmp_path / "src.vec"),
                     "--tgt-emb", str(tmp_path / "tgt.vec"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        oracle, _ = brute_force_retrieval(src, tgt)
        assert (tmp_path / "out" / "retrieval.csv").read_text().splitlines()[1] == \
            f"src>tgt,{oracle!r},{POOL}"

    def test_isometry_invariance(self, rng):
        x = rng.normal(size=(25, 6))
        y = rng.normal(size=(25, 6))
        base = retrieval_accuracy(x, y).accuracy
        w = random_orthogonal(6, seed=17)
        assert retrieval_accuracy(x @ w, y @ w).accuracy == base

    def test_positive_rescaling_invariance(self, rng):
        x = rng.normal(size=(20, 5))
        y = rng.normal(size=(20, 5))
        base = retrieval_accuracy(x, y)
        x2 = x.copy()
        x2[7] *= 13.5
        y2 = y.copy()
        y2[3] *= 0.02
        assert retrieval_accuracy(x2, y2).accuracy == base.accuracy


class TestNearestNeighbors:
    def test_full_pool_is_total_ordering(self, rng):
        pool = rng.normal(size=(8, 4))
        texts = [f"s{i}" for i in range(8)]
        ranked = nearest_neighbors(rng.normal(size=4), pool, texts, k=8)
        assert len(ranked) == 8
        cosines = [c for _, c in ranked]
        assert cosines == sorted(cosines, reverse=True)
        assert {t for t, _ in ranked} == set(texts)

    def test_self_match_ranks_first(self, rng):
        pool = rng.normal(size=(6, 5))
        ranked = nearest_neighbors(pool[3], pool, list(range(6)), k=2)
        assert ranked[0][0] == 3
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_sort(self, rng):
        pool = rng.normal(size=(20, 5))
        q = rng.normal(size=5)
        ranked = nearest_neighbors(q, pool, list(range(20)), k=20)
        cos = [float(np.dot(q, p) / (np.linalg.norm(q) * np.linalg.norm(p))) for p in pool]
        oracle = sorted(range(20), key=lambda j: (-cos[j], j))
        assert [t for t, _ in ranked] == oracle

    def test_k_too_large_rejected(self, rng):
        with pytest.raises(ValueError, match="pool size"):
            nearest_neighbors(rng.normal(size=3), rng.normal(size=(2, 3)), ["a", "b"], k=5)

    def test_report_layout(self, rng):
        pool = rng.normal(size=(4, 3))
        report = neighbor_report([("the query", pool[0])],
                                 {"en": (["a", "b", "c", "d"], pool)}, k=2)
        assert report.startswith("Query: the query")
        assert "[en]" in report


IDENTITY = {"en": lambda s: s}  # sentences are already vectors


class TestCldc:
    def _clusters(self, rng, n_per_class, d=8, spread=0.1):
        centers = np.eye(4, d) * 3.0
        docs, labels = [], []
        for c in range(4):
            for _ in range(n_per_class):
                sentences = [centers[c] + spread * rng.normal(size=d) for _ in range(3)]
                docs.append((sentences, c))
        return docs

    def test_separable_clusters_learned(self, rng):
        docs = self._clusters(rng, 30)
        report = cldc_train_eval(docs[::2], docs[1::2], IDENTITY,
                                 train_lang="en", test_lang="en", seed=5)
        assert report.accuracy >= 0.95
        assert report.n_classes == 4

    def test_missing_class_rejected(self, rng):
        docs = [d for d in self._clusters(rng, 5) if d[1] != 2]
        with pytest.raises(ValueError, match="absent"):
            cldc_train_eval(docs, docs, IDENTITY, "en", "en")

    def test_label_out_of_range_rejected(self, rng):
        docs = self._clusters(rng, 2)
        docs[0] = (docs[0][0], 7)
        with pytest.raises(ValueError):
            cldc_train_eval(docs, docs, IDENTITY, "en", "en")

    def test_shuffled_labels_near_chance(self, rng):
        docs = self._clusters(rng, 60)
        labels = [l for _, l in docs]
        shuffled = list(labels)
        rng.shuffle(shuffled)
        train = [(doc, l) for (doc, _), l in zip(docs, shuffled)]
        report = cldc_train_eval(train, docs, IDENTITY, "en", "en", seed=3)
        assert 0.15 <= report.accuracy <= 0.35

    def test_embedder_called_once_per_sentence(self, rng):
        docs = self._clusters(rng, 3)
        calls = []

        def embedder(s):
            calls.append(s)
            return s
        cldc_train_eval(docs, docs[:4], {"en": embedder}, "en", "en")
        assert len(calls) == sum(len(doc) for doc, _ in docs + docs[:4])

    def test_mlp_learns_xorish_split(self, rng):
        x = rng.normal(size=(200, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        clf = train_mlp(x, y, n_classes=2, hidden=16, steps=400, lr=0.05, seed=1)
        assert (clf.predict(x) == y).mean() > 0.9


class TestCurve:
    def _toy_corpus(self, n=12):
        pairs = [([f"s{i}"], [f"t{i}"]) for i in range(n)]
        return ParallelCorpus(pairs, "de", "en")

    def _identity_factory(self, dim=4):
        def factory(train_pairs):
            def embed_by_index(sentences):
                # same vector for s<i> and t<i>: a perfect alignment
                out = np.zeros((len(sentences), dim))
                for i, s in enumerate(sentences):
                    idx = int(s[0][1:])
                    out[i, idx % dim] = 1.0
                    out[i] += 0.01 * np.arange(dim) * idx
                return out
            return embed_by_index, embed_by_index
        return factory

    def test_cardinality(self):
        corpus = self._toy_corpus()
        sizes = make_splits(len(corpus), [2, 5])
        test_pairs = [([f"s{i}"], [f"t{i}"]) for i in range(20, 24)]
        points = accuracy_curve(self._identity_factory(), corpus, sizes,
                                [("de", "en"), ("en", "de")], test_pairs)
        assert len(points) == 2 * 2
        assert {p.size for p in points} == {2, 5}

    def test_overlapping_test_set_rejected(self):
        corpus = self._toy_corpus()
        sizes = make_splits(len(corpus), [2, 5])
        with pytest.raises(ValueError, match="overlaps"):
            accuracy_curve(self._identity_factory(), corpus, sizes,
                           [("de", "en")], corpus.pairs[:2])

    def test_identity_model_is_perfect_at_every_size(self):
        corpus = self._toy_corpus()
        sizes = make_splits(len(corpus), [2, 5, 9])
        test_pairs = [([f"s{i}"], [f"t{i}"]) for i in range(50, 60)]
        points = accuracy_curve(self._identity_factory(), corpus, sizes,
                                [("de", "en")], test_pairs)
        assert all(p.accuracy == 1.0 for p in points)

    def test_unknown_direction_rejected(self):
        corpus = self._toy_corpus()
        sizes = make_splits(len(corpus), [2])
        with pytest.raises(ValueError, match="direction"):
            accuracy_curve(self._identity_factory(), corpus, sizes,
                           [("fr", "en")], [(["s90"], ["t90"]), (["s91"], ["t91"])])

    def test_csv_format(self, tmp_path):
        points = [CurvePoint(100, "transfer", "de>en", 0.5)]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, points)
        assert path.read_text().splitlines() == ["size,model,direction,accuracy",
                                                 "100,transfer,de>en,0.5"]
