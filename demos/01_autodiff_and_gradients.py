#!/usr/bin/env python3
"""A tour of the reverse-mode differentiation core.

Builds small graphs out of the op set the encoders use, runs backward, and
cross-checks one gradient against central finite differences.
"""

import numpy as np

from xlalign import autodiff as ad

# --- forward values -------------------------------------------------------
# Tensors wrap numpy arrays; `leaf` marks trainable inputs, `constant` data.
x = ad.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
w = ad.leaf(np.array([[0.5, -0.5], [1.0, 0.25]]))
y = ad.tanh(ad.matmul(x, w))
print("tanh(x @ w) =\n", y.data)

# --- backward -------------------------------------------------------------
# The loss must be scalar; gradients accumulate on every reachable leaf.
loss = ad.tsum(ad.mul(y, y))
ad.backward(loss)
print("\nloss =", float(loss.data))
print("d loss / d w =\n", w.grad)

# --- finite-difference cross-check ----------------------------------------
h = 1e-6
fd = np.zeros_like(w.data)
for i in range(2):
    for j in range(2):
        for sign in (+1, -1):
            w_pert = w.data.copy()
            w_pert[i, j] += sign * h
            out = np.tanh(x.data @ w_pert)
            fd[i, j] += sign * float((out * out).sum()) / (2 * h)
print("\nfinite differences agree within",
      np.max(np.abs(fd - w.grad)), "(expect ~1e-9)")

# --- a whole LSTM direction is one fused node --------------------------------
# Rows are time-major (row t*B + b is step t of sentence b); the (B, T) mask
# marks live steps, and a padded step carries the state through. A scan takes
# one (w_in, w_rec, bias) cell per direction and one `reverse` flag each; the
# encoder runs its two directions as one scan.
rng = np.random.default_rng(0)
d, hid, steps, batch = 3, 4, 3, 2
mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
w_in = ad.leaf(rng.normal(size=(d, 4 * hid)) * 0.5)
x = ad.constant(rng.normal(size=(steps * batch, d)))
cell = (w_in, ad.leaf(rng.normal(size=(hid, 4 * hid)) * 0.5), ad.leaf(np.zeros(4 * hid)))
states = ad.lstm_scan(x, [cell], mask, (False,))
pooled = ad.masked_maxpool(states, mask)
ad.backward(ad.tsum(pooled))
print("\nLSTM scan over 3 steps -> states", states.shape, "; max-pooled =\n",
      np.round(pooled.data, 3))
print("graph nodes:", len(ad.topo_order(pooled)), "; d sum / d w_in has shape", w_in.grad.shape)

# Non-finite values are rejected at construction, so a diverging training
# run fails loudly rather than poisoning downstream math.
try:
    ad.constant(np.array([np.inf]))
except ad.NonFiniteError as exc:
    print("\nNonFiniteError as expected:", exc)
