"""Reverse-mode automatic differentiation over dense numpy arrays.

The op set is deliberately minimal: elementwise and matrix ops for the
classifier head and the losses, plus fused sequence kernels (`lstm_scan`,
`masked_maxpool`) that run a whole masked LSTM direction or a temporal
max-pool as one node with a hand-written backward. Nodes form an implicit DAG
(each Tensor records its op name, parent nodes and a backward closure);
``backward`` walks the graph once in reverse topological order.

Conventions:
  * arrays are row-major, float64 by default (float32 accepted for speed);
  * every node's value (leaves, fused-op outputs, the loss) is checked for
    NaN/Inf and rejected with ``NonFiniteError``, and so is every gradient
    ``backward`` delivers to a leaf; a scan's per-step intermediates are not
    checked one by one, a non-finite one surfaces in its outputs or gradients;
  * tensors are immutable values once created — build a fresh graph per
    training step and call ``backward`` once per graph.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing

import numpy as np

MASK_FILL = -1e30  # stands in for -inf in masked max-pooling; finite on purpose


class NonFiniteError(ValueError):
    """A tensor value contains NaN or Inf."""


class Tensor:
    """One node of the computation graph; wraps an ndarray."""

    __slots__ = ("data", "op", "parents", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward=None):
        data = np.asarray(data)  # float32 stays float32; any other dtype becomes float64
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
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


def constant(data):
    """Graph input that never receives gradient."""
    return Tensor(data, requires_grad=False)


def leaf(data):
    """Trainable graph input (a parameter)."""
    return Tensor(data, requires_grad=True)


@functools.cache
def name_table(cls):
    """The one name table of a parameter set: (name, attribute path, is an array) per
    leaf field of the dataclass `cls`, in field order. `embeddings` is named `emb`; a
    nested dataclass field `f` adds `f.<name>` per leaf; a non-array leaf (`lang`) is metadata."""
    hints, table = typing.get_type_hints(cls), []
    for field in dataclasses.fields(cls):
        f, kind = field.name, hints[field.name]
        if dataclasses.is_dataclass(kind):
            table += [(f"{f}.{n}", f"{f}.{p}", a) for n, p, a in name_table(kind)]
        else:
            table.append(("emb" if f == "embeddings" else f, f, kind is np.ndarray))
    return tuple(table)


def build_params(cls, values):
    """The dataclass `cls` from an iterator over its leaf values in `name_table` order."""
    hints = typing.get_type_hints(cls)
    return cls(*(build_params(hints[f.name], values) if dataclasses.is_dataclass(hints[f.name])
                 else next(values) for f in dataclasses.fields(cls)))


@functools.cache
def _getters(cls, prefix):
    return tuple((prefix + name, operator.attrgetter(path))
                 for name, path, is_array in name_table(cls) if is_array)


class Params:
    """Base of the parameter-set dataclasses; `kind` prefixes their array
    names in a checkpoint and, by default, in training."""

    kind = ""

    @property
    def prefix(self):
        return f"{self.kind}."

    def named_arrays(self, prefix=None):
        """name -> array (not a copy) under `prefix`, by default the training prefix."""
        getters = _getters(type(self), self.prefix if prefix is None else prefix)
        return {name: get(self) for name, get in getters}


class ParamSet:
    """Graph-side view of a parameter set, wrapped once per step.

    `params` is a `Params`; its tensors are looked up by name without the prefix,
    and `gradients()` keys carry it, matching the optimizer's name -> array dict.
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
    for node in order:
        if node._backward is None and node.grad is not None and not np.all(np.isfinite(node.grad)):
            raise NonFiniteError(f"non-finite gradient for a leaf of shape {node.data.shape}")
    return loss


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


def _sigmoid(z):
    """Logistic function of an array; exp(-|z|) never overflows."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def tanh(a):
    out = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out * out))
    return Tensor(out, op="tanh", parents=(a,), backward=bwd)


def absolute(a):
    """|a|; subgradient 0 at 0."""
    def bwd(g):
        _accum(a, g * np.sign(a.data))
    return Tensor(np.abs(a.data), op="abs", parents=(a,), backward=bwd)


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
# fused sequence kernels
# ---------------------------------------------------------------------------
# Sequences are time-major: row t*B + b of a (T*B, n) array is step t of batch
# row b. Masks are (B, T) 0/1 arrays as `pad_batch` builds them; padding is
# trailing, and a padded step carries the LSTM state through unchanged.

def time_major(a):
    """(B, T) array -> (T*B,) in time-major row order."""
    return np.asarray(a).T.reshape(-1)


def lstm_scan_forward(x, w_in, w_rec, bias, mask, reverse=False, context=None, keep=False):
    """Masked single-direction LSTM over time-major rows, on plain arrays.

    x: (T*B, D); mask: (B, T); context: (B, C) or None, appended to every
    step's input, so w_in is (D + C, 4H). Gate layout [i, f, g, o]; the state
    starts at zero. Returns the hidden states (T*B, H) and, with `keep`, the
    cache `lstm_scan` backpropagates through (else None). The graph op and
    inference both run this one function.
    """
    b, t_max = mask.shape
    hid = w_rec.shape[0]
    in_dim = x.shape[1] + (0 if context is None else context.shape[1])
    if w_rec.shape != (hid, 4 * hid) or w_in.shape != (in_dim, 4 * hid) or bias.shape != (4 * hid,):
        raise ValueError(
            f"inconsistent LSTM parameter shapes for input dim {in_dim}: w_in {w_in.shape}, "
            f"w_rec {w_rec.shape}, bias {bias.shape}")
    if x.shape[0] != t_max * b:
        raise ValueError(f"{x.shape[0]} input rows do not match a ({b}, {t_max}) mask")
    if context is not None:
        steps_ctx = np.broadcast_to(context, (t_max,) + context.shape)
        x = np.concatenate([x.reshape(t_max, b, -1), steps_ctx], axis=2).reshape(t_max * b, -1)
    gates_in = (x @ w_in).reshape(t_max, b, 4 * hid)
    live = mask.T[:, :, None] > 0
    h = np.zeros((b, hid), dtype=gates_in.dtype)
    c = np.zeros_like(h)
    states = np.empty((t_max, b, hid), dtype=h.dtype)
    if keep:
        acts = np.empty_like(gates_in)
        h_prev, c_prev, tanh_c = (np.empty_like(states) for _ in range(3))
    for t in (range(t_max - 1, -1, -1) if reverse else range(t_max)):
        gates = gates_in[t] + h @ w_rec + bias
        act = _sigmoid(gates)
        act[:, 2 * hid:3 * hid] = np.tanh(gates[:, 2 * hid:3 * hid])
        c_new = act[:, hid:2 * hid] * c + act[:, :hid] * act[:, 2 * hid:3 * hid]
        tc = np.tanh(c_new)
        if keep:
            acts[t], h_prev[t], c_prev[t], tanh_c[t] = act, h, c, tc
        h = np.where(live[t], act[:, 3 * hid:] * tc, h)
        c = np.where(live[t], c_new, c)
        states[t] = h
    cache = (x, live, acts, h_prev, c_prev, tanh_c) if keep else None
    return states.reshape(t_max * b, hid), cache


def _lstm_scan_backward(g_states, cache, w_in, w_rec, reverse):
    """Backpropagation through time for `lstm_scan_forward`.

    Returns the gradients of the (context-extended) input rows, w_in, w_rec
    and bias.
    """
    x, live, acts, h_prev, c_prev, tanh_c = cache
    t_max, b, hid = h_prev.shape
    on = live.astype(acts.dtype)
    off = 1.0 - on
    i, f, g, o = (acts[..., k * hid:(k + 1) * hid] for k in range(4))
    # gate-input gradients per unit of d c_new (i, f, g) and of d h_new (o)
    via_c = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)], axis=2)
    via_h = tanh_c * o * (1.0 - o)
    h_to_c = o * (1.0 - tanh_c * tanh_c)
    g_states = g_states.reshape(t_max, b, hid)
    d_gates = np.empty((t_max, b, 4, hid), dtype=acts.dtype)
    dh = np.zeros((b, hid), dtype=acts.dtype)
    dc = np.zeros_like(dh)
    w_rec_t = w_rec.T
    for t in (range(t_max) if reverse else range(t_max - 1, -1, -1)):
        dh_t = g_states[t] + dh
        dh_new = dh_t * on[t]
        dc_new = dc * on[t] + dh_new * h_to_c[t]
        np.multiply(dc_new[:, None, :], via_c[t], out=d_gates[t, :, :3])
        np.multiply(dh_new, via_h[t], out=d_gates[t, :, 3])
        dh = d_gates[t].reshape(b, 4 * hid) @ w_rec_t + dh_t * off[t]
        dc = dc_new * f[t] + dc * off[t]
    d_gates = d_gates.reshape(t_max * b, 4 * hid)
    return (d_gates @ w_in.T, x.T @ d_gates, h_prev.reshape(-1, hid).T @ d_gates,
            d_gates.sum(axis=0))


def lstm_scan(x, w_in, w_rec, bias, mask, reverse=False, context=None):
    """One LSTM direction over a padded batch as a single graph node.

    x: (T*B, D) time-major input rows; mask: (B, T) constant array; context:
    optional (B, C) tensor appended to every step's input. Returns the hidden
    states (T*B, H), time-major, in input order for either direction.
    """
    mask = np.asarray(mask)
    states, cache = lstm_scan_forward(x.data, w_in.data, w_rec.data, bias.data, mask, reverse,
                                      None if context is None else context.data, keep=True)
    parents = (x, w_in, w_rec, bias) + (() if context is None else (context,))

    def bwd(g):
        d_in, d_w_in, d_w_rec, d_bias = _lstm_scan_backward(g, cache, w_in.data, w_rec.data,
                                                            reverse)
        d = x.data.shape[1]
        _accum(x, d_in[:, :d])
        if context is not None:
            _accum(context, d_in[:, d:].reshape(mask.shape[1], mask.shape[0], -1).sum(axis=0))
        _accum(w_in, d_w_in)
        _accum(w_rec, d_w_rec)
        _accum(bias, d_bias)
    return Tensor(states, op="lstm_scan", parents=parents, backward=bwd)


def maxpool_forward(states, mask):
    """Max over each row's live timesteps of time-major (T*B, H) states.

    Returns the pooled (B, H) array and the timestep each entry came from;
    ties go to the earliest timestep.
    """
    b, t_max = mask.shape
    filled = np.where(mask.T[:, :, None] > 0, states.reshape(t_max, b, -1), MASK_FILL)
    first = filled.argmax(axis=0)
    return np.take_along_axis(filled, first[None], axis=0)[0], first


def masked_maxpool(states, mask):
    """Temporal max-pool over live steps as one node; gradient to the argmax."""
    mask = np.asarray(mask)
    pooled, first = maxpool_forward(states.data, mask)

    def bwd(g):
        full = np.zeros((mask.shape[1],) + pooled.shape, dtype=g.dtype)
        np.put_along_axis(full, first[None], g[None], axis=0)
        _accum(states, full.reshape(states.data.shape))
    return Tensor(pooled, op="masked_maxpool", parents=(states,), backward=bwd)
