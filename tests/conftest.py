"""Shared test helpers: finite differences and scalar reference models."""

import math

import numpy as np
import pytest

from xlalign.text import save_word2vec


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


def write_dump(path, matrix):
    """A word2vec-format dump of the rows of `matrix`, each named by its index."""
    save_word2vec(path, [str(i) for i in range(len(matrix))], matrix)


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
