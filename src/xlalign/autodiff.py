"""Reverse-mode automatic differentiation over dense numpy arrays.

The op set is deliberately minimal: elementwise and matrix ops for the
classifier head and the losses, plus fused sequence kernels (`lstm_scan`,
`masked_maxpool`) that run a stack of masked LSTM directions in one time loop
or a temporal max-pool as one node with a hand-written backward. Nodes form an
implicit DAG (each Tensor records its op name, parent nodes and a backward closure);
``backward`` walks the graph once in reverse topological order.

Conventions:
  * arrays are row-major; parameters and activations are ``DTYPE`` (float32),
    the one dtype of training and encoding. A ``Tensor`` keeps float32 and
    float64 data as they are, so a graph over float64 leaves runs in float64
    (the finite-difference checks do);
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

DTYPE = np.float32  # of every parameter and activation; no setting changes it
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


# A scan runs a stack of k LSTM directions in one time loop. Inside it, and in
# its cache, a per-direction array is (k, T, ...) in loop order: loop step i is
# time step i of a forward direction and time step T-1-i of a reverse one.

def _flip_reverse(a, reverse):
    """Flip, in place, the time axis of each reverse direction of the (k, T, ...)
    array `a`: time order to loop order and back. Returns `a`."""
    for j, rev in enumerate(reverse):
        if rev:
            a[j] = a[j, ::-1].copy()
    return a


def lstm_scan_forward(x, w_in, w_rec, bias, mask, reverse, context=None, keep=False):
    """k masked LSTM directions over the same time-major rows, on plain arrays.

    x: (T*B, D); w_in: (k, D + C, 4H); w_rec: (k, H, 4H); bias: (k, 4H);
    reverse: k flags, a reverse direction runs from the last step to the first;
    mask: (B, T); context: (B, C) or None, appended to every step's input. Gate
    layout [i, f, g, o]; the state starts at zero. Returns the hidden states
    (T*B, k*H), direction j in columns j*H:(j+1)*H, and, with `keep`, the cache
    `lstm_scan` backpropagates through (else None). The graph op, the decoder
    and inference all run this one function. Each direction's products are
    the BLAS calls a 2-D `@` makes, so its bits do not depend on k.
    """
    b, t_max = mask.shape
    k, hid = w_rec.shape[:2]
    in_dim = x.shape[1] + (0 if context is None else context.shape[1])
    if (w_rec.shape != (k, hid, 4 * hid) or w_in.shape != (k, in_dim, 4 * hid)
            or bias.shape != (k, 4 * hid) or len(reverse) != k):
        raise ValueError(
            f"inconsistent LSTM parameter shapes for input dim {in_dim}: w_in {w_in.shape}, "
            f"w_rec {w_rec.shape}, bias {bias.shape}, {len(reverse)} direction flags")
    if x.shape[0] != t_max * b:
        raise ValueError(f"{x.shape[0]} input rows do not match a ({b}, {t_max}) mask")
    if context is not None:
        steps_ctx = np.broadcast_to(context, (t_max,) + context.shape)
        x = np.concatenate([x.reshape(t_max, b, -1), steps_ctx], axis=2).reshape(t_max * b, -1)
    # σ(z) = ½ + ½·tanh(z/2). Before the loop the bias joins the input gates, and
    # the i, f and o columns of those and of a copy of w_rec are halved (exactly:
    # a power of two); a step is then one tanh over all 4H columns and the affine
    # map act·half + shift, ½·t + ½ on i, f and o and t itself on g
    gates_in = np.matmul(x, w_in)
    gates_in += bias[:, None, :]
    half = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=gates_in.dtype), hid)
    gates_in *= half
    gates_in = _flip_reverse(gates_in.reshape(k, t_max, b, 4 * hid), reverse)
    w_rec_half = w_rec * half
    shift = 1.0 - half
    live = _flip_reverse(np.repeat((mask.T > 0)[None, :, :, None], k, axis=0), reverse)
    all_live = live.all(axis=(0, 2, 3)).tolist()
    h = np.zeros((k, b, hid), dtype=gates_in.dtype)
    c = np.zeros_like(h)
    states = np.empty((k, t_max, b, hid), dtype=h.dtype)
    if keep:
        acts = np.empty_like(gates_in)
        h_prev, c_prev, tanh_c = (np.empty_like(states) for _ in range(3))
    for i in range(t_max):
        act = np.matmul(h, w_rec_half)
        act += gates_in[:, i]
        np.tanh(act, out=act)
        act *= half
        act += shift
        c_new = act[..., hid:2 * hid] * c + act[..., :hid] * act[..., 2 * hid:3 * hid]
        tc = np.tanh(c_new)
        if keep:
            acts[:, i], h_prev[:, i], c_prev[:, i], tanh_c[:, i] = act, h, c, tc
        h_new = act[..., 3 * hid:] * tc
        if all_live[i]:
            h, c = h_new, c_new
        else:
            h = np.where(live[:, i], h_new, h)
            c = np.where(live[:, i], c_new, c)
        states[:, i] = h
    cache = (x, live, acts, h_prev, c_prev, tanh_c) if keep else None
    states = _flip_reverse(states, reverse).transpose(1, 2, 0, 3)
    return states.reshape(t_max * b, k * hid), cache


def _lstm_scan_backward(g_states, cache, w_in, w_rec, reverse):
    """Backpropagation through time for `lstm_scan_forward`, every direction in
    one loop.

    Returns the gradient of the (context-extended) input rows, summed over the
    directions, and the stacked gradients of w_in, w_rec and bias.
    """
    x, live, acts, h_prev, c_prev, tanh_c = cache
    k, t_max, b, hid = h_prev.shape
    on = live.astype(acts.dtype)
    off = 1.0 - on
    i, f, g, o = (acts[..., n * hid:(n + 1) * hid] for n in range(4))
    # d_gates starts as the gate-input gradients per unit of d c_new (i, f, g)
    # and of d h_new (o); each loop step scales its own slice by those two
    d_gates = np.empty((k, t_max, b, 4, hid), dtype=acts.dtype)
    np.multiply(g * i, 1.0 - i, out=d_gates[..., 0, :])
    np.multiply(c_prev * f, 1.0 - f, out=d_gates[..., 1, :])
    np.multiply(i, 1.0 - g * g, out=d_gates[..., 2, :])
    np.multiply(tanh_c * o, 1.0 - o, out=d_gates[..., 3, :])
    h_to_c = o * (1.0 - tanh_c * tanh_c)
    g_states = _flip_reverse(g_states.reshape(t_max, b, k, hid).transpose(2, 0, 1, 3).copy(),
                             reverse)
    dh = np.zeros((k, b, hid), dtype=acts.dtype)
    dc = np.zeros_like(dh)
    w_rec_t = w_rec.transpose(0, 2, 1)
    for s in range(t_max - 1, -1, -1):
        dh_t = g_states[:, s] + dh
        dh_new = dh_t * on[:, s]
        dc_new = dc * on[:, s] + dh_new * h_to_c[:, s]
        d_gates[:, s, :, :3] *= dc_new[:, :, None, :]
        d_gates[:, s, :, 3] *= dh_new
        dh = np.matmul(d_gates[:, s].reshape(k, b, 4 * hid), w_rec_t) + dh_t * off[:, s]
        dc = dc_new * f[:, s] + dc * off[:, s]
    # weight gradients sum over rows in time order, as the per-direction products do;
    # backward reads the cache once, so its h_prev is flipped in place
    d_gates = _flip_reverse(d_gates, reverse).reshape(k, t_max * b, 4 * hid)
    h_prev = _flip_reverse(h_prev, reverse).reshape(k, t_max * b, hid)
    return (np.matmul(d_gates, w_in.transpose(0, 2, 1)).sum(axis=0), np.matmul(x.T, d_gates),
            np.matmul(h_prev.transpose(0, 2, 1), d_gates), d_gates.sum(axis=1))


def lstm_scan(x, cells, mask, reverse, context=None):
    """k LSTM directions over a padded batch as a single graph node.

    x: (T*B, D) time-major input rows, read by every direction; cells: k
    (w_in, w_rec, bias) tensor triples, stacked for `lstm_scan_forward`;
    reverse: k flags; mask: (B, T) constant array; context: optional (B, C)
    tensor appended to every step's input. Returns the hidden states
    (T*B, k*H), time-major and in input order for either direction, direction
    j in columns j*H:(j+1)*H.
    """
    mask = np.asarray(mask)

    def stacked(n):  # (k, ...) weights, a view for k = 1; backward stacks anew, holding no copy
        arrays = [cell[n].data for cell in cells]
        return arrays[0][None] if len(arrays) == 1 else np.array(arrays)
    states, cache = lstm_scan_forward(x.data, stacked(0), stacked(1), stacked(2), mask, reverse,
                                      None if context is None else context.data, keep=True)
    parents = (x, *(t for cell in cells for t in cell)) + (() if context is None else (context,))

    def bwd(g):
        d_in, *d_cells = _lstm_scan_backward(g, cache, stacked(0), stacked(1), reverse)
        d = x.data.shape[1]
        _accum(x, d_in[:, :d])
        if context is not None:
            _accum(context, d_in[:, d:].reshape(mask.shape[1], mask.shape[0], -1).sum(axis=0))
        for j, cell in enumerate(cells):
            for t, d_t in zip(cell, d_cells):
                _accum(t, d_t[j])
    return Tensor(states, op="lstm_scan", parents=parents, backward=bwd)


def _live_steps(states, mask):
    """Time-major (T*B, H) states as (T, B, H), MASK_FILL on padded steps."""
    b, t_max = mask.shape
    return np.where(mask.T[:, :, None] > 0, states.reshape(t_max, b, -1), MASK_FILL)


def maxpool_forward(states, mask):
    """Max over each row's live timesteps of time-major (T*B, H) states -> (B, H).

    Each entry is the value at the earliest timestep holding the maximum, the
    step `masked_maxpool` sends its gradient to. A max reduction gives those
    values except for a zero maximum, where -0.0 and 0.0 tie; only then is
    the earliest step looked up, since an argmax over the time axis is
    several times slower than the max.
    """
    filled = _live_steps(states, mask)
    pooled = filled.max(axis=0)
    if pooled.all():
        return pooled
    return np.take_along_axis(filled, filled.argmax(axis=0)[None], axis=0)[0]


def masked_maxpool(states, mask):
    """Temporal max-pool over live steps as one node; gradient to the earliest
    timestep holding the maximum."""
    mask = np.asarray(mask)
    pooled = maxpool_forward(states.data, mask)

    def bwd(g):
        first = _live_steps(states.data, mask).argmax(axis=0)
        full = np.zeros((mask.shape[1],) + pooled.shape, dtype=g.dtype)
        np.put_along_axis(full, first[None], g[None], axis=0)
        _accum(states, full.reshape(states.data.shape))
    return Tensor(pooled, op="masked_maxpool", parents=(states,), backward=bwd)
