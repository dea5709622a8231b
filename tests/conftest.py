"""Shared test helpers: finite differences and scalar reference models."""

import itertools
import math
import operator

import numpy as np
import pytest

from xlalign import autodiff as ad
from xlalign.cipher import CipherCorpus, _gen_nli, _sample_weighted, apply_cipher
from xlalign.config import parse_config
from xlalign.evaluation import N_CLDC_CLASSES
from xlalign.pipeline import Experiment, ExperimentData
from xlalign.rand import Xorshift64Star
from xlalign.text import ParallelCorpus, build_vocab, save_word2vec


def finite_difference_grads(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f(arrays) w.r.t. each array.

    Perturbs entries in place; restores them afterwards.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f())
            flat[i] = orig - h
            lo = float(f())
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def as_float64(params):
    """A float64 copy of a parameter set, for the float64-precision oracles:
    training and encoding run in the dtype of the parameters they are given."""
    cls = type(params)
    values = (operator.attrgetter(path)(params) for _, path, _ in ad.name_table(cls))
    return ad.build_params(cls, (v.astype(np.float64) if isinstance(v, np.ndarray) else v
                                 for v in values))


def write_dump(path, matrix):
    """A word2vec-format dump of the rows of `matrix`, each named by its index."""
    save_word2vec(path, [str(i) for i in range(len(matrix))], matrix)


def toy_experiment(n, splits, test_size=4, dim=4):
    """An `Experiment` over de/en rows `s<i>`/`t<i>` (pivot en), training rows
    0..n-1 and held-out rows n..n+test_size-1, whose split builder is a spy:
    every split embeds s<i> and t<i> alike, a perfect alignment, and `seen`
    collects the rows each built split trains on."""
    cfg = parse_config("framework=sentence_map\nencoder=sif\nlanguages=en,de\n"
                       f"splits={','.join(map(str, splits))}\ntest_size={test_size}")

    def rows(lo, hi):
        return ParallelCorpus([([f"s{i}"], [f"t{i}"]) for i in range(lo, hi)], "de", "en")
    vocabs = {lang: build_vocab(s, 1) for lang, s in rows(0, n).items()}
    tables = {lang: np.ones((len(v), dim)) for lang, v in vocabs.items()}
    exp = Experiment(cfg, ExperimentData(rows(0, n), rows(n, n + test_size), vocabs, None, tables))

    def embed_by_index(sentences):
        out = np.zeros((len(sentences), dim))
        for i, s in enumerate(sentences):
            idx = int(s[0][1:])
            out[i, idx % dim] = 1.0
            out[i] += 0.01 * np.arange(dim) * idx
        return out
    seen = []

    def build_split(split):
        seen.append(split.rows())
        return {"de": embed_by_index, "en": embed_by_index}, {}
    exp._build_split = build_split
    return exp, seen


def max_relative_error(a, b, floor=1e-4):
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def scalar_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def lstm_step_reference(x, h_prev, c_prev, w_in, w_rec, bias):
    """Pure-python scalar-loop LSTM step, gate layout [i, f, g, o]."""
    hid = w_rec.shape[0]
    d = w_in.shape[0]

    def gate(j):
        z = bias[j]
        for k in range(d):
            z += x[k] * w_in[k, j]
        for mm in range(hid):
            z += h_prev[mm] * w_rec[mm, j]
        return z

    h_t, c_t = [0.0] * hid, [0.0] * hid
    for j in range(hid):
        i_g = scalar_sigmoid(gate(j))
        f_g = scalar_sigmoid(gate(hid + j))
        g_g = math.tanh(gate(2 * hid + j))
        o_g = scalar_sigmoid(gate(3 * hid + j))
        c_t[j] = f_g * c_prev[j] + i_g * g_g
        h_t[j] = o_g * math.tanh(c_t[j])
    return np.array(h_t), np.array(c_t)


def mlp_reference(x, w1, b1, w2, b2):
    """Pure-python scalar-loop tanh MLP: tanh(x·w1 + b1)·w2 + b2 per row of x."""
    out = np.empty((x.shape[0], w2.shape[1]))
    for r, row in enumerate(x):
        hidden = [math.tanh(b1[j] + sum(row[i] * w1[i, j] for i in range(len(row))))
                  for j in range(w1.shape[1])]
        for c in range(w2.shape[1]):
            out[r, c] = b2[c] + sum(h * w2[j, c] for j, h in enumerate(hidden))
    return out


def encode_reference(ids, enc):
    """Scalar-loop BiLSTM + max-pool for one sentence of token ids."""
    hid = enc.hidden_size
    fwd_states = []
    h = np.zeros(hid)
    c = np.zeros(hid)
    for t in ids:
        h, c = lstm_step_reference(enc.embeddings[t], h, c,
                                   enc.fwd.w_in, enc.fwd.w_rec, enc.fwd.bias)
        fwd_states.append(h)
    bwd_states = [None] * len(ids)
    h = np.zeros(hid)
    c = np.zeros(hid)
    for pos in range(len(ids) - 1, -1, -1):
        h, c = lstm_step_reference(enc.embeddings[ids[pos]], h, c,
                                   enc.bwd.w_in, enc.bwd.w_rec, enc.bwd.bias)
        bwd_states[pos] = h
    states = [np.concatenate([f, b]) for f, b in zip(fwd_states, bwd_states)]
    return np.max(np.stack(states), axis=0)


def scalar_gen_cipher_corpus(vocab_size, n_sentences, length_range=(3, 8), seed=0,
                             nli_size=0, langs=("lb", "la")):
    """`cipher.gen_cipher_corpus` with one scalar draw a length or token, the
    generator's documented order of draws (validation left to the original)."""
    lo, hi = length_range
    rng = Xorshift64Star(seed)
    base = [f"w{i:03d}" for i in range(vocab_size)]
    perm = list(range(vocab_size))
    rng.shuffle(perm)
    cipher = {base[i]: f"k{perm[i]:03d}" for i in range(vocab_size)}
    cumulative = list(itertools.accumulate(1.0 / (i + 2) for i in range(vocab_size)))
    rows = []
    for _ in range(n_sentences):
        length = lo + rng.randint(hi - lo + 1)
        sent = [base[_sample_weighted(rng, cumulative)] for _ in range(length)]
        rows.append((apply_cipher(sent, cipher), sent))
    nli = _gen_nli(rng, base, cipher, nli_size, lo, hi, cumulative, langs) if nli_size else None
    return CipherCorpus(ParallelCorpus(rows, *langs), cipher, nli)


def scalar_gen_cldc_docs(cipher_corpus, n_docs, seed=0):
    """`cipher.gen_cldc_docs` with one scalar draw a sentence count, length or
    token."""
    rng = Xorshift64Star(seed)
    base = sorted(cipher_corpus.cipher)
    band = len(base) // N_CLDC_CLASSES
    ciphered_lang, base_lang = cipher_corpus.corpus.langs
    docs = {base_lang: [], ciphered_lang: []}
    for i in range(n_docs):
        label = i % N_CLDC_CLASSES
        vocab_band = base[label * band:(label + 1) * band]
        doc = []
        for _ in range(2 + rng.randint(3)):
            length = 3 + rng.randint(4)
            doc.append([vocab_band[rng.randint(len(vocab_band))] for _ in range(length)])
        docs[base_lang].append((doc, label))
        docs[ciphered_lang].append(([apply_cipher(s, cipher_corpus.cipher) for s in doc], label))
    return docs


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
