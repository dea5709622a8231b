"""Reverse-mode automatic differentiation over dense numpy arrays.

The op set is deliberately minimal: exactly what the LSTM encoders/decoders,
the inference classifier head and the training losses need. Nodes form an
implicit DAG (each Tensor records its op name, parent nodes and a backward
closure); ``backward`` walks the graph once in reverse topological order.

Conventions:
  * arrays are row-major, float64 by default (float32 accepted for speed);
  * every created value is checked for NaN/Inf and rejected with
    ``NonFiniteError``;
  * tensors are immutable values once created — build a fresh graph per
    training step and call ``backward`` once per graph.
"""

from __future__ import annotations

import numpy as np

MASK_FILL = -1e30  # stands in for -inf in masked max-pooling; finite on purpose


class NonFiniteError(ValueError):
    """A tensor value contains NaN or Inf."""


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """One node of the computation graph; wraps an ndarray."""

    __slots__ = ("data", "op", "parents", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward=None):
        self.data = _as_array(data)
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite values in tensor produced by op '{op}'")
        self.op = op
        self.parents = parents
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.grad = None
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data, dtype=None):
    """Graph input that never receives gradient."""
    return Tensor(_as_array(data, dtype), requires_grad=False)


def leaf(data, dtype=None):
    """Trainable graph input (a parameter)."""
    return Tensor(_as_array(data, dtype), requires_grad=True)


class ParamSet:
    """Graph-side view of a parameter set, wrapped once per step.

    `params` is any object with a `prefix` and `named_arrays(prefix)`; its
    tensors are looked up by name without the prefix, and `gradients()` keys
    carry it, so they match the optimizer's name -> array dict.
    """

    def __init__(self, params, trainable=True):
        wrap = leaf if trainable else constant
        self.prefix = params.prefix
        self.tensors = {name: wrap(a) for name, a in params.named_arrays(self.prefix).items()}

    def __getitem__(self, name):
        return self.tensors[self.prefix + name]

    def gradients(self):
        return {name: t.grad for name, t in self.tensors.items() if t.grad is not None}


def _accum(node, g):
    if node.requires_grad:
        node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def topo_order(root):
    """All nodes reachable from `root`, parents before children."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate .grad for every grad-requiring node reachable from `loss`.

    `loss` must be scalar. Call once per graph.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = topo_order(loss)
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
    return loss


def gradients(loss, leaves):
    """Run backward and return one gradient array per leaf.

    Leaves not reachable from the loss get a zero gradient of their shape.
    """
    backward(loss)
    out = []
    for p in leaves:
        if p.grad is None:
            out.append(np.zeros_like(p.data))
        else:
            out.append(p.grad)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return Tensor(a.data + b.data, op="add", parents=(a, b), backward=bwd)


def sub(a, b):
    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))
    return Tensor(a.data - b.data, op="sub", parents=(a, b), backward=bwd)


def mul(a, b):
    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return Tensor(a.data * b.data, op="mul", parents=(a, b), backward=bwd)


def scale(a, s):
    """Multiply by a python scalar."""
    s = float(s)

    def bwd(g):
        _accum(a, g * s)
    return Tensor(a.data * s, op="scale", parents=(a,), backward=bwd)


def matmul(a, b):
    """Matrix product; accepts 2-D operands or a 1-D left vector."""
    if a.data.ndim not in (1, 2) or b.data.ndim != 2:
        raise ValueError(f"matmul expects (1|2)-D @ 2-D, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    def bwd(g):
        if a.data.ndim == 1:
            _accum(a, g @ b.data.T)
            _accum(b, np.outer(a.data, g))
        else:
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)
    return Tensor(a.data @ b.data, op="matmul", parents=(a, b), backward=bwd)


def sigmoid(a):
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        _accum(a, g * out * (1.0 - out))
    return Tensor(out, op="sigmoid", parents=(a,), backward=bwd)


def tanh(a):
    out = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out * out))
    return Tensor(out, op="tanh", parents=(a,), backward=bwd)


def relu(a):
    def bwd(g):
        _accum(a, g * (a.data > 0))
    return Tensor(np.maximum(a.data, 0.0), op="relu", parents=(a,), backward=bwd)


def absolute(a):
    """|a|; subgradient 0 at 0."""
    def bwd(g):
        _accum(a, g * np.sign(a.data))
    return Tensor(np.abs(a.data), op="abs", parents=(a,), backward=bwd)


def maximum(a, b):
    """Elementwise max; ties route the gradient to the first operand."""
    take_a = a.data >= b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * take_a, a.data.shape))
        _accum(b, _unbroadcast(g * ~take_a, b.data.shape))
    return Tensor(np.maximum(a.data, b.data), op="maximum", parents=(a, b), backward=bwd)


def concat(tensors, axis=-1):
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  op="concat", parents=tuple(tensors), backward=bwd)


def slice_last(a, lo, hi):
    """Slice [lo, hi) along the last axis."""
    def bwd(g):
        full = np.zeros_like(a.data)
        full[..., lo:hi] = g
        _accum(a, full)
    return Tensor(a.data[..., lo:hi].copy(), op="slice", parents=(a,), backward=bwd)


def gather_rows(table, ids):
    """Rows `ids` of a 2-D table; gradient scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(f"row index out of range for table with {table.data.shape[0]} rows")

    def bwd(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            _accum(table, full)
    return Tensor(table.data[ids], op="gather", parents=(table,), backward=bwd)


def tsum(a):
    """Sum of all elements -> scalar."""
    def bwd(g):
        _accum(a, np.full_like(a.data, float(g)))
    return Tensor(a.data.sum(), op="sum", parents=(a,), backward=bwd)


def tmean(a):
    n = a.data.size

    def bwd(g):
        _accum(a, np.full_like(a.data, float(g) / n))
    return Tensor(a.data.mean(), op="mean", parents=(a,), backward=bwd)


def masked_fill(a, mask, value):
    """a where mask==1, `value` where mask==0. `mask` is a constant array."""
    m = constant(np.asarray(mask, dtype=a.data.dtype))
    fill = constant(np.full_like(m.data, value))
    one_minus = constant(1.0 - m.data)
    return add(mul(a, m), mul(fill, one_minus))


# ---------------------------------------------------------------------------
# fused losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy_sum(logits, targets, weights=None):
    """Sum over rows of -log softmax(logits)[target], each row scaled by its weight.

    logits: (B, C) tensor; targets: (B,) int array; weights: (B,) array or None.
    """
    t = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.data.shape}")
    b, c = logits.data.shape
    if t.shape != (b,):
        raise ValueError(f"targets shape {t.shape} does not match batch size {b}")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ValueError(f"target id out of range for {c} classes")
    w = np.ones(b, dtype=logits.data.dtype) if weights is None else np.asarray(weights, dtype=logits.data.dtype)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    nll = logz - shifted[np.arange(b), t]
    probs = np.exp(shifted - logz[:, None])

    def bwd(g):
        grad = probs.copy()
        grad[np.arange(b), t] -= 1.0
        grad *= (w * float(g))[:, None]
        _accum(logits, grad)
    return Tensor((nll * w).sum(), op="ce", parents=(logits,), backward=bwd)


def softmax_rows(logits):
    """Row-wise softmax as a plain array (no graph node)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def lstm_step(x, h_prev, c_prev, w_in, w_rec, bias):
    """One LSTM step. Gate layout along the last axis is [i, f, g, o].

    x: (B, d) or (d,); h_prev/c_prev: (B, H) or (H,).
    w_in: (d, 4H), w_rec: (H, 4H), bias: (4H,).
    Returns (h_t, c_t).
    """
    hid = w_rec.data.shape[0]
    if w_in.data.shape[1] != 4 * hid or bias.data.shape[-1] != 4 * hid:
        raise ValueError(
            f"inconsistent LSTM parameter shapes: w_in {w_in.data.shape}, "
            f"w_rec {w_rec.data.shape}, bias {bias.data.shape}")
    gates = add(add(matmul(x, w_in), matmul(h_prev, w_rec)), bias)
    i = sigmoid(slice_last(gates, 0, hid))
    f = sigmoid(slice_last(gates, hid, 2 * hid))
    g = tanh(slice_last(gates, 2 * hid, 3 * hid))
    o = sigmoid(slice_last(gates, 3 * hid, 4 * hid))
    c_t = add(mul(f, c_prev), mul(i, g))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t
