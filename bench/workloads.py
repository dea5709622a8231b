"""The benchmark workloads and the checks on their outputs.

Each workload is a closed loop in one thread: every call into xlalign starts
after the previous one returned. Inputs come from ``gen_cipher_corpus`` with
the benchmark's seed; model initialisation uses fixed seeds, so a seed names
one set of inputs and one deterministic outcome.

  joint_b16     joint seq2seq training at batch 16 (la/lb round-robin against
                one shared decoder), then held-out retrieval. The
                per-node-overhead-bound regime, and the only one with a decoder.
  eval_10k      no training: checkpoint round trips, BiLSTM and SIF encoding of
                2 x 10^4 sentences, a planted-rotation map fit, retrieval over a
                pool of 10^4 and CLDC. Forward-only, with a working set (the
                10^4 x 10^4 similarity matrix) beyond the last-level cache. No
                decoder runs, so a decoder-only gain must read no change here.

A workload's ``setup`` builds everything one round needs; a round may change
it, so every round gets a fresh one. ``run`` makes one round of calls into
xlalign inside ``with clock:`` blocks, whose summed time is the round's wall
time, and returns an Outcome. ``verify`` checks the outcome afterwards,
outside the timed calls and outside any traced pass.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import numpy as np

from xlalign import cipher, encoders, evaluation, mapping, objectives, pipeline
from xlalign.objectives import TrainSchedule
from xlalign.text import RESERVED, NoiseParams, ParallelCorpus, build_vocab

D = H = 32
VOCAB = 60
LENGTHS = (3, 8)
SEED_LA, SEED_LB, SEED_DECODER = 1, 2, 3
SEED_JOINT, SEED_SIF = 4, 7
NOISE = NoiseParams(p_del=0.1, p_swap=0.1, seed=9)
JOINT_LR = 3e-3
JOINT_BATCH = 16
FINAL_LOSS_WINDOW = 50
ROTATION_TOL = 1e-12


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, TINY only exercises the code."""

    train_pairs: int = 2000
    heldout_pairs: int = 200
    joint_steps: int = 800
    eval_pairs: int = 10_000
    eval_docs: int = 400
    oracle_queries: int = 1000
    setup_seconds: float = 1.0  # of repeated setups before each round and after the last


FULL = Size()
TINY = Size(train_pairs=80, heldout_pairs=24, joint_steps=4, eval_pairs=200, eval_docs=16,
            oracle_queries=50, setup_seconds=0.0)


class Ledger:
    """Attempted and failed operations and checks, with each failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def ops(self, n=1):
        self.attempted += n

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    def error(self, what):
        self.attempted += 1
        self.failed += 1
        self.reasons.append(what)


@dataclass
class Outcome:
    quality: dict    # deterministic per seed; a later round must repeat it exactly
    artifacts: dict  # what `verify` needs


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_arrays(named_a, named_b):
    return named_a.keys() == named_b.keys() and all(
        same_bits(named_a[k], named_b[k]) for k in named_a)


def unit_rows(x):
    return x / np.sqrt((x * x).sum(axis=1))[:, None]


def oracle_top1(x, y):
    """Brute-force retrieval: each row's similarities are reduced the same way,
    so identical rows tie exactly and argmax keeps the lowest index."""
    xn, yn = unit_rows(x), unit_rows(y)
    hits = sum(int(np.argmax((yn * xn[i]).sum(axis=1)) == i) for i in range(len(xn)))
    return hits / len(xn)


def gold_margin(x, y):
    """Mean gold cosine minus mean cosine over all mismatched (i != j) pairs."""
    xn, yn = unit_rows(x), unit_rows(y)
    gold = (xn * yn).sum(axis=1)
    n = len(xn)
    mismatched = (xn.sum(axis=0) @ yn.sum(axis=0) - gold.sum()) / (n * n - n)
    return float(gold.mean() - mismatched)


# ---------------------------------------------------------------------------
# joint_b16
# ---------------------------------------------------------------------------

class JointB16:
    def setup(self, seed, size):
        cc = cipher.gen_cipher_corpus(VOCAB, size.train_pairs + size.heldout_pairs, LENGTHS,
                                      seed=seed)
        pairs = cc.corpus.pairs
        train = ParallelCorpus(pairs[:size.train_pairs], "lb", "la")
        vocabs = {"lb": build_vocab(train.source_sentences()),
                  "la": build_vocab(train.target_sentences())}
        return {"size": size, "train": train, "heldout": pairs[size.train_pairs:],
                "vocabs": vocabs,
                "encoders": {
                    "la": encoders.new_encoder(len(vocabs["la"]), D, H, "la", SEED_LA),
                    "lb": encoders.new_encoder(len(vocabs["lb"]), D, H, "lb", SEED_LB)},
                "decoder": objectives.new_decoder(len(vocabs["la"]), D, 2 * H, H, "la",
                                                  SEED_DECODER)}

    def run(self, state, clock, ledger):
        steps, encs, vocabs = state["size"].joint_steps, state["encoders"], state["vocabs"]
        sched = TrainSchedule(JOINT_BATCH, steps, JOINT_LR, ["la", "lb"], seed=SEED_JOINT)
        ledger.ops(steps)
        with clock:
            result = objectives.train_joint_seq2seq(state["train"], encs, state["decoder"],
                                                    vocabs, "la", sched, NOISE)
        # held-out retrieval in both directions, as `xlalign run` reports it
        ledger.ops(4)
        with clock:
            x = encoders.encode_sentences([s for s, _ in state["heldout"]], vocabs["lb"],
                                          encs["lb"])
            y = encoders.encode_sentences([t for _, t in state["heldout"]], vocabs["la"],
                                          encs["la"])
            lb_la = evaluation.retrieval_accuracy(x, y)
            la_lb = evaluation.retrieval_accuracy(y, x)
        losses = [value for *_, value in result.trace]
        quality = {"heldout_top1": (lb_la.accuracy + la_lb.accuracy) / 2,
                   "gold_margin": gold_margin(x, y),
                   "final_loss": float(np.mean(losses[-FINAL_LOSS_WINDOW:]))}
        return Outcome(quality, {"x": x, "y": y, "losses": losses})

    def verify(self, state, out, ledger):
        losses = out.artifacts["losses"]
        ledger.check("every logged loss is finite",
                     len(losses) == state["size"].joint_steps and all(np.isfinite(losses)))
        x, y = out.artifacts["x"], out.artifacts["y"]
        ledger.check("retrieval_accuracy equals the brute-force oracle",
                     out.quality["heldout_top1"] == (oracle_top1(x, y) + oracle_top1(y, x)) / 2)


# ---------------------------------------------------------------------------
# eval_10k
# ---------------------------------------------------------------------------

def planted_rotation(seed, dim):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def cipher_permutation(cipher_map, vocab_la, vocab_lb):
    """perm[i] is the lb id of the ciphered form of la token i."""
    perm = np.arange(len(vocab_la))
    for token, i in vocab_la.token_to_id.items():
        if i >= len(RESERVED):
            perm[i] = vocab_lb.token_to_id[cipher_map[token]]
    return perm


def first_occurrence_top1(sentences):
    """Exact expected retrieval accuracy when both sides embed identically:
    a repeated sentence ties with its first occurrence, which wins."""
    first = {}
    for i, sentence in enumerate(sentences):
        first.setdefault(tuple(sentence), i)
    return sum(first[tuple(s)] == i for i, s in enumerate(sentences)) / len(sentences)


class Eval10k:
    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed, size):
        cc = cipher.gen_cipher_corpus(VOCAB, size.eval_pairs, LENGTHS, seed=seed)
        la, lb = cc.corpus.target_sentences(), cc.corpus.source_sentences()
        vocab_la, vocab_lb = build_vocab(la), build_vocab(lb)
        enc_la = encoders.new_encoder(len(vocab_la), D, H, "la", SEED_LA)
        # the lb encoder is the la encoder read through the cipher, so both
        # sides of every pair embed bit-identically
        perm = cipher_permutation(cc.cipher, vocab_la, vocab_lb)
        enc_lb = copy.deepcopy(enc_la)
        enc_lb.lang = "lb"
        enc_lb.embeddings[perm] = enc_la.embeddings
        table_la = np.random.default_rng(SEED_SIF).uniform(-1, 1, (len(vocab_la), D)) / np.sqrt(D)
        table_lb = np.empty_like(table_la)
        table_lb[perm] = table_la
        return {"size": size, "la": la, "lb": lb, "vocab": {"la": vocab_la, "lb": vocab_lb},
                "enc": {"la": enc_la, "lb": enc_lb}, "table": {"la": table_la, "lb": table_lb},
                "docs": cipher.gen_cldc_docs(cc, size.eval_docs, seed=seed),
                "rotation": planted_rotation(seed, 2 * H)}

    def run(self, state, clock, ledger):
        s = state
        paths = {k: os.path.join(self.workdir, f"{k}.ckpt") for k in ("la", "lb", "map")}
        ledger.ops(4)
        with clock:
            for lang in ("la", "lb"):
                pipeline.save_encoder(paths[lang], s["enc"][lang])
            enc = {lang: pipeline.load_encoder(paths[lang]) for lang in ("la", "lb")}

        ledger.ops(4)
        with clock:
            x = encoders.encode_sentences(s["lb"], s["vocab"]["lb"], enc["lb"])
            y = encoders.encode_sentences(s["la"], s["vocab"]["la"], enc["la"])
            sif = [encoders.encode_sif_matrix(s[lang], s["table"][lang], s["vocab"][lang])
                   for lang in ("lb", "la")]

        y_rot = y @ s["rotation"]
        ledger.ops(5)
        with clock:
            fitted = mapping.fit_orthogonal_map(x, y_rot, "lb", "la")
            mapping.save_map(paths["map"], fitted)
            reloaded = mapping.load_map(paths["map"])
            x_mapped = mapping.apply_map(x, reloaded)
            report = evaluation.retrieval_accuracy(x_mapped, y_rot)

        cldc_acc, calls_per_sentence = self.cldc(s, enc, clock, ledger)
        quality = {"heldout_top1": report.accuracy, "gold_margin": gold_margin(x_mapped, y_rot),
                   "cldc_acc": cldc_acc, "embed_calls_per_sentence": calls_per_sentence}
        return Outcome(quality, {"loaded": enc, "x": x, "y": y, "sif": sif,
                                 "map": (fitted.w, reloaded.w), "x_mapped": x_mapped,
                                 "y_rot": y_rot})

    @staticmethod
    def cldc(s, enc, clock, ledger):
        """Train on the first half of the la documents and test on the second
        half of the lb ones, with per-sentence embedders as `xlalign eval-cldc`
        uses them. Returns the accuracy and embedder calls per sentence."""
        half = len(s["docs"]["la"]) // 2
        train_docs, test_docs = s["docs"]["la"][:half], s["docs"]["lb"][half:]
        calls = [0]

        def embedder(lang):
            def embed(sentence):
                calls[0] += 1
                return encoders.encode_sentences([sentence], s["vocab"][lang], enc[lang])[0]
            return embed

        ledger.ops()
        with clock:
            report = evaluation.cldc_train_eval(train_docs, test_docs,
                                                {"la": embedder("la"), "lb": embedder("lb")},
                                                train_lang="la", test_lang="lb")
        sentences = sum(len(doc) for doc, _ in train_docs + test_docs)
        return report.accuracy, calls[0] / sentences

    def verify(self, state, out, ledger):
        a = out.artifacts
        ledger.check("encoder checkpoints round-trip bit-exactly",
                     all(same_arrays(a["loaded"][lang].named_arrays(),
                                     state["enc"][lang].named_arrays())
                         and a["loaded"][lang].lang == lang for lang in ("la", "lb")))
        ledger.check("both sides embed bit-identically before the rotation",
                     same_bits(a["x"], a["y"]))
        ledger.check("both sides' SIF embeddings are bit-identical", same_bits(*a["sif"]))
        fitted, reloaded = a["map"]
        ledger.check("the fitted map recovers the planted rotation",
                     float(np.abs(fitted - state["rotation"]).max()) <= ROTATION_TOL)
        ledger.check("the map checkpoint round-trips bit-exactly", same_bits(fitted, reloaded))
        ledger.check("top-1 equals the first-occurrence expectation",
                     out.quality["heldout_top1"] == first_occurrence_top1(state["la"]))
        k = state["size"].oracle_queries
        xs, ys = a["x_mapped"][:k], a["y_rot"][:k]
        ledger.check("retrieval_accuracy equals the brute-force oracle on a subset",
                     evaluation.retrieval_accuracy(xs, ys).accuracy == oracle_top1(xs, ys))


def make(name, workdir):
    return Eval10k(workdir) if name == "eval_10k" else JointB16()
