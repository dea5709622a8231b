"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line (visible under `pytest -s`).
The heavyweight artifacts (the 2000-pair corpus, the pretrained pivot and the
transfer/joint runs on it) are module-scoped fixtures shared across criteria.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from xlalign import autodiff as ad
from xlalign.checkpoint import save_checkpoint
from xlalign.cipher import gen_cipher_corpus
from xlalign.cli import main as cli_main
from xlalign.encoders import encode_sentences, encode_sif_matrix, new_encoder
from xlalign.evaluation import (cldc_train_eval, nearest_neighbors,
                                retrieval_accuracy)
from xlalign.mapping import apply_map, fit_orthogonal_map
from xlalign.objectives import (IdTable, TrainSchedule, draw_language_pair, infersent_loss,
                                infersent_accuracy, new_decoder, new_head,
                                seq2seq_loss, train_joint_infersent,
                                train_joint_seq2seq, train_transfer,
                                transfer_l1_loss)
from xlalign.optim import optimizer_params
from xlalign.text import NoiseParams, ParallelCorpus, build_vocab

from conftest import as_float64, finite_difference_grads, max_relative_error

D = H = 32
BATCH = 16


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# shared heavyweight artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_setup():
    cc = gen_cipher_corpus(60, 2200, (3, 8), seed=5)
    train, test = cc.corpus[:2000], cc.corpus[2000:]
    vocabs = {lang: build_vocab(train[lang], 1) for lang in train.langs}
    return train, test, vocabs


@pytest.fixture(scope="module")
def pivot_encoder(corpus_setup):
    train, _, vocabs = corpus_setup
    t0 = time.monotonic()
    enc = new_encoder(len(vocabs["la"]), D, H, "la", seed=1)
    dec = new_decoder(len(vocabs["la"]), D, 2 * H, H, "la", seed=2)
    mono = ParallelCorpus(zip(train["la"]), "la")
    train_joint_seq2seq(mono, {"la": enc}, dec, {"la": vocabs["la"]}, "la",
                        TrainSchedule(BATCH, 800, 1e-3, ["la"], seed=3),
                        NoiseParams(0.1, 0.1, 9))
    return enc, time.monotonic() - t0


def _retrieval(test, enc_b, enc_a, vocabs):
    x = encode_sentences(test["lb"], vocabs["lb"], enc_b)
    y = encode_sentences(test["la"], vocabs["la"], enc_a)
    return retrieval_accuracy(x, y).accuracy, x, y


@pytest.fixture(scope="module")
def transfer_run(corpus_setup, pivot_encoder):
    train, test, vocabs = corpus_setup
    pivot, pivot_time = pivot_encoder
    t0 = time.monotonic()
    new_enc = new_encoder(len(vocabs["lb"]), D, H, "lb", seed=4)
    before, after = _snapshot(pivot)
    train_transfer(train, pivot, new_enc, vocabs["lb"], vocabs["la"],
                   TrainSchedule(BATCH, 2000, 1e-3, [], seed=6))
    accuracy, _, _ = _retrieval(test, new_enc, pivot, vocabs)
    return {"accuracy": accuracy, "pivot_snapshots": (before, after(pivot)),
            "elapsed": time.monotonic() - t0, "pivot_time": pivot_time}


def _serialize(enc):
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    save_checkpoint(path, enc.named_arrays())
    with open(path) as fh:
        data = fh.read()
    os.unlink(path)
    return data


def _snapshot(enc):
    return _serialize(enc), _serialize


@pytest.fixture(scope="module")
def joint_run(corpus_setup):
    train, test, vocabs = corpus_setup
    t0 = time.monotonic()
    encoders = {"la": new_encoder(len(vocabs["la"]), D, H, "la", seed=1),
                "lb": new_encoder(len(vocabs["lb"]), D, H, "lb", seed=2)}
    decoder = new_decoder(len(vocabs["la"]), D, 2 * H, H, "la", seed=3)
    train_joint_seq2seq(train, encoders, decoder, vocabs, "la",
                        TrainSchedule(BATCH, 4000, 3e-3, ["la", "lb"], seed=4),
                        NoiseParams(0.1, 0.1, 9))
    accuracy, x, y = _retrieval(test, encoders["lb"], encoders["la"], vocabs)
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    yn = y / np.linalg.norm(y, axis=1, keepdims=True)
    sims = xn @ yn.T
    gold = float(np.mean(np.diag(sims)))
    mismatched = float((sims.sum() - np.trace(sims)) / (sims.size - len(sims)))
    return {"accuracy": accuracy, "gold_cosine": gold, "mismatched_cosine": mismatched,
            "elapsed": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of all four losses
# ---------------------------------------------------------------------------

def _fd_check(forward, arrays, analytic):
    numeric = finite_difference_grads(forward, arrays)
    worst = max(max_relative_error(a, n) for a, n in zip(analytic, numeric))
    assert worst < 1e-4
    return worst


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    vocab = build_vocab([[f"w{i}" for i in range(8)]], 1)
    # central differences need float64 parameters to resolve a 1e-4 relative error
    enc = as_float64(new_encoder(len(vocab), 4, 3, "en", seed=0))
    enc2 = as_float64(new_encoder(len(vocab), 4, 3, "de", seed=2))
    dec = as_float64(new_decoder(len(vocab), 4, 6, 3, "en", seed=1))
    head = as_float64(new_head(6, hidden=5, seed=3))
    batch = IdTable([["w1", "w2", "w3"], ["w4", "w5"]], vocab)
    targets = IdTable([["w2", "w3"], ["w4", "w5", "w6"]], vocab)
    rows = np.arange(2)
    worsts = {}

    # SDAE (deterministic corruption: every bigram swaps) and NMT
    for name, denoise, tgts in (("sdae", NoiseParams(0.0, 1.0, 1), batch),
                                ("nmt", None, targets)):
        loss, (enc_tensors, dec_tensors) = seq2seq_loss(batch, tgts, rows, enc, dec, denoise)
        ad.backward(loss)
        grads = {**enc_tensors.gradients(), **dec_tensors.gradients()}
        arrays = optimizer_params(enc, dec)
        worsts[name] = _fd_check(
            lambda: float(seq2seq_loss(batch, tgts, rows, enc, dec, denoise)[0].data),
            [arrays[k] for k in grads], list(grads.values()))

    # joint InferSent loss, two encoders plus the shared head
    labels = np.array([0, 2])
    loss, (head_tensors, premise_tensors, hypothesis_tensors), _ = infersent_loss(
        batch, targets, rows, labels, enc, enc2, head)
    ad.backward(loss)
    grads = {**premise_tensors.gradients(), **hypothesis_tensors.gradients(),
             **head_tensors.gradients()}
    arrays = optimizer_params(enc, enc2, head)
    worsts["infersent"] = _fd_check(
        lambda: float(infersent_loss(batch, targets, rows, labels, enc, enc2, head)[0].data),
        [arrays[k] for k in grads], list(grads.values()))

    # transfer L1 against fixed targets
    goal = np.random.default_rng(9).normal(size=(2, 6))
    loss, (enc_tensors,) = transfer_l1_loss(batch, rows, goal, enc)
    ad.backward(loss)
    grads = enc_tensors.gradients()
    arrays = optimizer_params(enc)
    worsts["transfer_l1"] = _fd_check(
        lambda: float(transfer_l1_loss(batch, rows, goal, enc)[0].data),
        [arrays[k] for k in grads], list(grads.values()))

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, "analytic vs central-difference gradients, worst rel err "
              + ", ".join(f"{k}={v:.1e}" for k, v in worsts.items())
              + f" (< 1e-4), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: Procrustes recovery of a planted rotation
# ---------------------------------------------------------------------------

def test_criterion_2_procrustes_recovery():
    t0 = time.monotonic()
    d, n = 16, 64
    rng = np.random.default_rng(21)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    planted = q * np.sign(np.diag(r))
    x = rng.normal(size=(n, d))
    y = x @ planted
    m = fit_orthogonal_map(x, y, "lb", "la")
    recovery = np.max(np.abs(m.w - planted))
    orthogonality = np.max(np.abs(m.w.T @ m.w - np.eye(d)))
    accuracy = retrieval_accuracy(apply_map(x, m), y).accuracy
    elapsed = time.monotonic() - t0
    assert recovery < 1e-6
    assert orthogonality < 1e-6
    assert accuracy == 1.0
    assert elapsed < 5.0
    report(2, f"planted rotation recovered to {recovery:.1e}, WtW-I {orthogonality:.1e}, "
              f"mapped retrieval 1.0, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: retrieval equals the brute-force oracle
# ---------------------------------------------------------------------------

def _brute_force(src, tgt):
    n = len(src)
    hits, argmaxes = 0, []
    for i in range(n):
        best_j, best = -1, -math.inf
        for j in range(n):
            cos = float(np.dot(src[i], tgt[j])) / (
                math.sqrt(float(np.dot(src[i], src[i])))
                * math.sqrt(float(np.dot(tgt[j], tgt[j]))))
            if cos > best:
                best_j, best = j, cos
        argmaxes.append(best_j)
        hits += best_j == i
    return hits / n, argmaxes


def test_criterion_3_retrieval_oracle_equivalence():
    t0 = time.monotonic()
    sizes = [int(np.random.default_rng(s).integers(2, 120)) for s in range(92)]
    sizes += [240, 480, 600, 750, 800, 900, 950, 1000]
    assert len(sizes) == 100 and max(sizes) <= 1000
    for k, n in enumerate(sizes):
        g = np.random.default_rng(1000 + k)
        d = int(g.integers(3, 12))
        src = g.normal(size=(n, d))
        tgt = src + 0.4 * g.normal(size=(n, d))
        oracle_acc, oracle_argmax = _brute_force(src, tgt)
        assert retrieval_accuracy(src, tgt).accuracy == oracle_acc
        if n <= 60:  # neighbor lists against a full brute-force sort
            q = g.normal(size=d)
            cos = [float(np.dot(q, t) / (np.linalg.norm(q) * np.linalg.norm(t)))
                   for t in tgt]
            expected = sorted(range(n), key=lambda j: (-cos[j], j))
            got = [t for t, _ in nearest_neighbors(q, tgt, list(range(n)), k=n)]
            assert got == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, f"100 instances (n up to 1000) match the O(n^2) oracle exactly, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: cosine isometry and scale invariance
# ---------------------------------------------------------------------------

def test_criterion_4_cosine_isometry_suite():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(80, 12))
    y = x + 0.5 * rng.normal(size=(80, 12))
    base = retrieval_accuracy(x, y)

    fit_x = rng.normal(size=(50, 12))
    m = fit_orthogonal_map(fit_x, rng.normal(size=(50, 12)))
    mapped = retrieval_accuracy(apply_map(x, m), apply_map(y, m))
    assert mapped.accuracy == base.accuracy  # bit-identical ratio of ints

    xs, ys = x.copy(), y.copy()
    for i in (0, 17, 42):
        xs[i] *= 1 + 12.3 * (i + 1)
        ys[i] *= 1.0 / (3 + i)
    xn = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    yn = ys / np.linalg.norm(ys, axis=1, keepdims=True)
    bx = x / np.linalg.norm(x, axis=1, keepdims=True)
    by = y / np.linalg.norm(y, axis=1, keepdims=True)
    assert np.array_equal(np.argsort(-(xn @ yn.T), axis=1, kind="stable"),
                          np.argsort(-(bx @ by.T), axis=1, kind="stable"))
    report(4, "fitted-map isometry keeps accuracy bit-identical; positive "
              "rescaling leaves every retrieval rank unchanged")


# ---------------------------------------------------------------------------
# criteria 5-7: end-to-end transfer / joint / data-efficiency ordering
# ---------------------------------------------------------------------------

def test_criterion_5_transfer_end_to_end(transfer_run):
    before, after = transfer_run["pivot_snapshots"]
    total = transfer_run["elapsed"] + transfer_run["pivot_time"]
    assert transfer_run["accuracy"] >= 0.90
    assert before == after  # serialized pivot parameters bit-identical
    assert total < 600.0
    report(5, f"transfer held-out retrieval {transfer_run['accuracy']:.3f} >= 0.90 "
              f"within 2000 steps, pivot frozen, {total:.0f}s")


def test_criterion_6_joint_end_to_end(joint_run):
    margin = joint_run["gold_cosine"] - joint_run["mismatched_cosine"]
    assert joint_run["accuracy"] >= 0.80
    assert margin >= 0.2
    assert joint_run["elapsed"] < 900.0
    report(6, f"joint held-out retrieval {joint_run['accuracy']:.3f} >= 0.80, "
              f"gold-vs-mismatched cosine margin {margin:.3f} >= 0.2, "
              f"{joint_run['elapsed']:.0f}s")


def test_criterion_7_data_efficiency_ordering(corpus_setup, pivot_encoder,
                                              transfer_run, joint_run):
    train, test, vocabs = corpus_setup
    pivot, _ = pivot_encoder
    split = train[:200]

    new_enc = new_encoder(len(vocabs["lb"]), D, H, "lb", seed=4)
    train_transfer(split, pivot, new_enc, vocabs["lb"], vocabs["la"],
                   TrainSchedule(BATCH, 2000, 1e-3, [], seed=6))
    transfer_200, _, _ = _retrieval(test, new_enc, pivot, vocabs)

    encoders = {"la": new_encoder(len(vocabs["la"]), D, H, "la", seed=1),
                "lb": new_encoder(len(vocabs["lb"]), D, H, "lb", seed=2)}
    decoder = new_decoder(len(vocabs["la"]), D, 2 * H, H, "la", seed=3)
    train_joint_seq2seq(split, encoders, decoder, vocabs, "la",
                        TrainSchedule(BATCH, 4000, 3e-3, ["la", "lb"], seed=4),
                        NoiseParams(0.1, 0.1, 9))
    joint_200, _, _ = _retrieval(test, encoders["lb"], encoders["la"], vocabs)

    assert transfer_200 >= joint_200
    # recorded, not asserted: does joint overtake at the largest split?
    overtakes = joint_run["accuracy"] >= transfer_run["accuracy"]
    report(7, f"at 200 pairs transfer {transfer_200:.3f} >= joint {joint_200:.3f}; "
              f"recorded at 2000 pairs: joint {joint_run['accuracy']:.3f} vs "
              f"transfer {transfer_run['accuracy']:.3f} -> joint overtakes: {overtakes}")


# ---------------------------------------------------------------------------
# criterion 8: sentence mapping beats the unmapped baseline
# ---------------------------------------------------------------------------

def test_criterion_8_sentence_mapping_beats_no_alignment():
    cc = gen_cipher_corpus(40, 700, (3, 8), seed=11)
    train, test = cc.corpus[:500], cc.corpus[500:]
    vb = build_vocab(train["lb"], 1)
    va = build_vocab(train["la"], 1)
    g = np.random.default_rng(7)
    # near-one-hot word spaces: mutually near-orthogonal until mapped
    table_b = np.eye(len(vb)) + 0.01 * g.normal(size=(len(vb), len(vb)))
    table_a = np.eye(len(va)) + 0.01 * g.normal(size=(len(va), len(va)))
    x_test = encode_sif_matrix(test["lb"], table_b, vb)
    y_test = encode_sif_matrix(test["la"], table_a, va)
    unmapped = retrieval_accuracy(x_test, y_test).accuracy
    m = fit_orthogonal_map(encode_sif_matrix(train["lb"], table_b, vb),
                           encode_sif_matrix(train["la"], table_a, va))
    mapped = retrieval_accuracy(apply_map(x_test, m), y_test).accuracy
    assert unmapped <= 0.1
    assert mapped >= 0.7
    report(8, f"SIF spaces: unmapped retrieval {unmapped:.3f} <= 0.1, "
              f"after sentence mapping {mapped:.3f} >= 0.7")


# ---------------------------------------------------------------------------
# criterion 9: joint InferSent mechanics
# ---------------------------------------------------------------------------

def test_criterion_9_joint_infersent_mechanics():
    draws_rng = np.random.default_rng(17)
    counts = {}
    for _ in range(10000):
        combo = draw_language_pair(draws_rng, ["la", "lb"])
        counts[combo] = counts.get(combo, 0) + 1
    observed = [counts[(a, b)] for a in ("la", "lb") for b in ("la", "lb")]
    chi = scipy.stats.chisquare(observed)
    assert chi.pvalue > 0.01

    cc = gen_cipher_corpus(60, 50, (3, 8), seed=5, nli_size=300)
    vocabs = {lang: build_vocab(d.premises + d.hypotheses, 1)
              for lang, d in cc.nli.items()}
    encoders = {lang: new_encoder(len(vocabs[lang]), D, H, lang, seed=10 + i)
                for i, lang in enumerate(sorted(cc.nli))}
    head = new_head(2 * H, 128, seed=20)
    result = train_joint_infersent(cc.nli, encoders, head, vocabs,
                                   TrainSchedule(BATCH, 500, 3e-3, [], seed=30))
    assert result.head is head  # exactly one shared classifier parameter set

    accuracies = {f"{p}|{h}": infersent_accuracy(cc.nli, encoders, head, vocabs, p, h)
                  for p in sorted(cc.nli) for h in sorted(cc.nli)}
    assert all(a > 0.9 for a in accuracies.values())
    report(9, f"language sampling chi-square p={chi.pvalue:.3f} > 0.01 over 10000 "
              f"batches; single shared head; toy-NLI training accuracy "
              + ", ".join(f"{k}={v:.2f}" for k, v in accuracies.items()) + " (> 0.9 vs 1/3)")


# ---------------------------------------------------------------------------
# criterion 10: CLDC harness
# ---------------------------------------------------------------------------

def test_criterion_10_cldc_harness():
    t0 = time.monotonic()
    g = np.random.default_rng(3)
    dim = 12
    centers = g.normal(size=(4, dim)) * 2.0

    def make_docs(n):
        docs = []
        for i in range(n):
            c = i % 4
            docs.append(([centers[c] + 0.3 * g.normal(size=dim) for _ in range(3)], c))
        return docs

    train_docs, test_docs = make_docs(240), make_docs(240)
    identity = {"la": lambda s: s, "lb": lambda s: s}  # sentences are already vectors
    mono = cldc_train_eval(train_docs, test_docs, identity, "la", "la", seed=5).accuracy
    assert mono >= 0.95

    shuffled_labels = [l for _, l in train_docs]
    np.random.default_rng(0).shuffle(shuffled_labels)
    shuffled = [(doc, l) for (doc, _), l in zip(train_docs, shuffled_labels)]
    chance = cldc_train_eval(shuffled, test_docs, identity, "la", "la", seed=5).accuracy
    assert 0.15 <= chance <= 0.35

    q, r = np.linalg.qr(np.random.default_rng(9).normal(size=(dim, dim)))
    rotation = q * np.sign(np.diag(r))
    rotated_test = [([s @ rotation for s in doc], l) for doc, l in test_docs]
    m = fit_orthogonal_map(np.stack([s for doc, _ in train_docs for s in doc]),
                           np.stack([s @ rotation for doc, _ in train_docs for s in doc]))
    mapped_back = [([apply_map(s, m, reverse=True) for s in doc], l)
                   for doc, l in rotated_test]
    cross = cldc_train_eval(train_docs, mapped_back, identity, "la", "lb", seed=5).accuracy
    elapsed = time.monotonic() - t0
    assert abs(cross - mono) <= 0.02
    assert elapsed < 120.0
    report(10, f"separable 4-class {mono:.3f} >= 0.95; shuffled labels {chance:.3f} in "
               f"[0.15, 0.35]; planted-rotation cross {cross:.3f} within 0.02 of "
               f"monolingual, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical reports under a fixed seed
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "framework=transfer\ncipher_vocab=30\ncipher_sentences=200\ndim=10\n"
        "hidden=10\nsteps=60\npivot_steps=60\nbatch=8\nsplits=40,80\n"
        "test_size=50\nseed=3\n")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
        outs.append(out)
    compared = []
    for csv in sorted(p.name for p in outs[0].glob("*.csv")):
        assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes(), csv
        compared.append(csv)
    assert compared  # at least curve/retrieval/train traces
    for ckpt in sorted(p.name for p in outs[0].glob("*.ckpt")):
        assert (outs[0] / ckpt).read_bytes() == (outs[1] / ckpt).read_bytes(), ckpt
    report(11, f"two identical runs produced byte-identical reports: {', '.join(compared)}")
