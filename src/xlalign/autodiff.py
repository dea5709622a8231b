"""Reverse-mode automatic differentiation over dense numpy arrays.

The op set is deliberately minimal: elementwise and matrix ops for the
losses, a fused classifier head (`mlp`), and fused sequence kernels
(`lstm_scan`, `masked_maxpool`) that run a stack of masked LSTM directions in
one time loop or a temporal max-pool as one node with a hand-written backward.
The time loop itself, `lstm_steps`, also serves forward-only inference. Nodes
form an implicit DAG (each Tensor records its op name, parent nodes and a
backward closure); ``backward`` walks the graph once in reverse topological
order.

Conventions:
  * arrays are row-major; parameters and activations are ``DTYPE`` (float32),
    the one dtype of training and encoding. A ``Tensor`` keeps float32 and
    float64 data as they are, so a graph over float64 leaves runs in float64
    (the finite-difference checks do);
  * every node's value (leaves, fused-op outputs, the loss) is checked for
    NaN/Inf and rejected with ``NonFiniteError``, and so is every gradient
    ``backward`` delivers to a leaf; a scan's per-step intermediates are not
    checked one by one, a non-finite one surfaces in its outputs or gradients.
    A `ParamSet`'s parameter leaves are the exception: `optim.fit` checks the
    parameters once before its first step, and a non-finite one surfaces in
    the first op output that reads it; their gradients are checked by the
    global-norm clip of the `fit` step that made them;
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
        if not np.isfinite(self.data).all():
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


def _parameter(array):
    """A leaf over a parameter array, op "parameter", without the NaN/Inf scans
    of `leaf` and `constant`: `optim.fit` checks its parameters once before
    step 0 and every op output that reads a parameter is still checked, and
    `fit`'s global-norm clip rejects a non-finite gradient, so `backward`
    does not scan it either."""
    t = object.__new__(Tensor)
    t.data, t.op, t.parents, t.requires_grad, t.grad, t._backward = (
        array, "parameter", (), True, None, None)
    return t


class ParamSet:
    """Graph-side view of a parameter set, wrapped once per step.

    `params` is a `Params`; its tensors are looked up by name without the prefix,
    and `gradients()` keys carry it, matching the optimizer's name -> array dict.
    Its arrays are wrapped as they are, unscanned (see `_parameter`).
    """

    def __init__(self, params):
        self.prefix = params.prefix
        self.tensors = {name: _parameter(a) for name, a in params.named_arrays(self.prefix).items()}

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

    `loss` must be scalar. Call once per graph. The gradient of every `leaf`
    is checked for NaN/Inf; a `ParamSet` parameter's is left to `optim.fit`.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = topo_order(loss)
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
    for node in order:
        if node.op == "leaf" and node.grad is not None and not np.isfinite(node.grad).all():
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


def mlp(x, w1, b1, w2, b2):
    """tanh(x @ w1 + b1) @ w2 + b2 as one node, x 2-D or a vector, with the
    bits of the composed `matmul`/`add`/`tanh` graph, value and gradients. Its
    backward computes no gradient for a constant x; the hidden pre-activation
    is checked for NaN/Inf, as its composed node is."""
    if x.data.ndim not in (1, 2):
        raise ValueError(f"mlp expects a 1-D or 2-D input, got shape {x.data.shape}")
    pre = x.data @ w1.data + b1.data
    if not np.isfinite(pre).all():
        raise NonFiniteError("non-finite values in tensor produced by op 'mlp'")
    hidden = np.tanh(pre)

    def weight_grad(a, g):  # as `matmul` computes it
        return np.outer(a, g) if a.ndim == 1 else a.T @ g

    def bwd(g):
        _accum(b2, _unbroadcast(g, b2.data.shape))
        d_hidden = g @ w2.data.T
        _accum(w2, weight_grad(hidden, g))
        d_pre = d_hidden * (1.0 - hidden * hidden)
        _accum(b1, _unbroadcast(d_pre, b1.data.shape))
        if x.requires_grad:
            _accum(x, d_pre @ w1.data.T)
        _accum(w1, weight_grad(x.data, d_pre))
    return Tensor(hidden @ w2.data + b2.data, op="mlp", parents=(x, w1, b1, w2, b2),
                  backward=bwd)


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
    """Rows `ids` of a 2-D table; gradient scatter-adds into the table.

    The scatter is one 1-D `np.add.at` over the flat element indices
    id·width + column, in row-major order: each element receives the same
    additions in the same order as a 2-D `np.add.at` over the rows makes
    them, so the bits agree, at well under half its cost."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(f"row index out of range for table with {table.data.shape[0]} rows")

    def bwd(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            width = full.shape[1]
            np.add.at(full.reshape(-1), (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1),
                      g.reshape(-1))
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
# its cache, a per-direction array is (T, k, ...) in loop order: loop step i is
# time step i of a forward direction and time step T-1-i of a reverse one, and
# one step's rows for every direction are one contiguous slice.

def _flip_into(dst, src, reverse):
    """dst[:, j] = src[:, j] for each direction j, with the time axis (axis 0)
    of each reverse direction flipped: time order to loop order and back.
    Returns `dst`."""
    for j, rev in enumerate(reverse):
        dst[:, j] = src[::-1, j] if rev else src[:, j]
    return dst


def halve_gates(w_in, w_rec, bias, dtype):
    """The `cells` of `lstm_steps`: copies of stacked LSTM weights (k, ·, 4H)
    in `dtype`, their i, f and o columns halved, and the (4H,) factors. With
    σ(z) = ½ + ½·tanh(z/2), a step is one tanh over all 4H columns and the
    affine map act·half + shift (½·t + ½ on i, f and o, t on g); halving is
    exact, a power of two, so each product and sum is the halved one."""
    half = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), w_rec.shape[1])
    return w_in * half, w_rec * half, bias * half, half


def lstm_steps(x, cells, mask, reverse, keep=False):
    """The one LSTM time loop, of training (`lstm_scan_forward`) and inference:
    k masked directions over the same (T, B, D) time-major input x.

    cells: `halve_gates` of w_in (k, D, 4H), w_rec (k, H, 4H) and bias (k, 4H);
    mask: (B, T), None for a batch with no padded step; reverse: k flags, a
    reverse direction runs from the last step to the first. Gate layout
    [i, f, g, o]; the state starts at zero. Each direction's input products
    are the BLAS calls a 2-D `@` makes, so its bits do not depend on k.

    Returns (hs, dead, kept) in loop order, time first: loop step i is time
    step i of a forward direction and T-1-i of a reverse one, so one step's
    rows for every direction are one contiguous slice. hs is the (T+1, k, B, H)
    state stack whose row 0 is the zero start: a step reads its state as a
    view and writes the next row with `out=`. dead is the (T, k, B, H) mask of
    padded steps (None without a mask); a partly padded step carries a dead
    row's state through with `np.copyto`. kept is None, or with `keep` what
    backward reads: acts (T, k, B, 4H), the gate activations, and c_prev and
    tanh_c (T, k, B, H); without it the loop reuses one row of acts and
    tanh_c and two rows of c.
    """
    w_in_half, w_rec_half, bias_half, half = cells
    t_max, b, _ = x.shape
    k, hid = w_rec_half.shape[:2]
    x = x.reshape(t_max * b, -1)
    # the bias joins the input gates before their copy into loop order (faster
    # than an add into the strided loop-order slice)
    gates = np.empty((t_max * b, 4 * hid), dtype=half.dtype)
    gates_in = np.empty((t_max, k, b, 4 * hid), dtype=half.dtype)
    for j, rev in enumerate(reverse):
        np.matmul(x, w_in_half[j], out=gates)
        gates += bias_half[j]
        gates_in[:, j] = gates.reshape(t_max, b, 4 * hid)[::-1 if rev else 1]
    del gates  # peak memory: freed before the loop's buffers are made
    dead = None
    partial = [False] * t_max
    if mask is not None:
        dead = np.empty((t_max, k, b, hid), dtype=bool)
        dead_steps = ~(mask.T > 0)[:, :, None]
        for j, rev in enumerate(reverse):
            dead[:, j] = dead_steps[::-1 if rev else 1]
        partial = dead.any(axis=(1, 2, 3)).tolist()
    half = np.repeat(half[None], k * b, axis=0).reshape(k, b, 4 * hid)
    shift = 1.0 - half
    # step i works in row i % rows of acts and tanh_c and reads row i % (rows + 1)
    # of cs: the whole cache with `keep`, else one reused row and two c rows
    rows = t_max if keep else 1
    acts = np.empty((rows, k, b, 4 * hid), dtype=half.dtype)
    tanh_c = np.empty((rows, k, b, hid), dtype=half.dtype)
    cs = np.zeros((rows + 1, k, b, hid), dtype=half.dtype)
    hs = np.zeros((t_max + 1, k, b, hid), dtype=half.dtype)
    gate_i, gate_f, gate_g, gate_o = (acts[..., n * hid:(n + 1) * hid] for n in range(4))
    for i in range(t_max):
        r = i % rows
        act, tc = acts[r], tanh_c[r]
        c_prev, c_new = cs[i % (rows + 1)], cs[(i + 1) % (rows + 1)]
        np.matmul(hs[i], w_rec_half, out=act)
        act += gates_in[i]
        np.tanh(act, out=act)
        act *= half
        act += shift
        np.multiply(gate_f[r], c_prev, out=c_new)
        c_new += np.multiply(gate_i[r], gate_g[r], out=tc)  # i·g, then tanh(c)
        np.tanh(c_new, out=tc)
        np.multiply(gate_o[r], tc, out=hs[i + 1])
        if partial[i]:
            np.copyto(hs[i + 1], hs[i], where=dead[i])
            np.copyto(c_new, c_prev, where=dead[i])
    return hs, dead, (acts, cs[:-1], tanh_c) if keep else None


def lstm_scan_forward(x, w_in, w_rec, bias, mask, reverse, context=None):
    """`lstm_steps` over time-major rows x (T*B, D), with the cache `lstm_scan`
    backpropagates through. w_in: (k, D + C, 4H); w_rec, bias, mask, reverse
    as `lstm_steps` takes them; context: (B, C) or None, appended to every
    step's input. Returns the states (T*B, k*H), time-major and in input
    order for either direction, direction j in columns j*H:(j+1)*H, and the
    cache (x, live, acts, h_prev, c_prev, tanh_c): x context-extended, live
    the negated dead mask and h_prev the first T rows of the state stack.
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
    cells = halve_gates(w_in, w_rec, bias, np.result_type(x, w_in))
    hs, dead, (acts, c_prev, tanh_c) = lstm_steps(x.reshape(t_max, b, -1), cells, mask, reverse,
                                                  keep=True)
    states = np.empty((t_max, b, k, hid), dtype=hs.dtype)
    _flip_into(states.swapaxes(1, 2), hs[1:], reverse)
    return states.reshape(t_max * b, k * hid), (x, ~dead, acts, hs[:-1], c_prev, tanh_c)


def _gate_gradients(g_states, cache, w_rec, reverse):
    """Backpropagation through time for `lstm_scan_forward`, every direction in
    one loop over its cache: the gradient of each step's gate inputs, given
    the gradient of the (T*B, k*H) states. Returns (T, k, B, 4H) in loop order."""
    _, live, acts, h_prev, c_prev, tanh_c = cache
    t_max, k, b, hid = h_prev.shape
    i, f, g, o = (acts[..., n * hid:(n + 1) * hid] for n in range(4))
    # d_gates starts as the gate-input gradients per unit of d c_new (i, f, g)
    # and of d h_new (o); each loop step scales its own slice by those two.
    # On i, f and o that is (p·a)·(1 − a) with partners p = g, c_prev and
    # tanh(c), computed over all 4H columns at once rather than gate by gate
    gated = acts.reshape(t_max, k, b, 4, hid)
    d_gates = np.subtract(1.0, gated)
    partner = np.empty_like(d_gates)
    partner[..., 0, :], partner[..., 1, :], partner[..., 3, :] = g, c_prev, tanh_c
    partner[..., 2, :] = 0.0
    partner *= gated
    d_gates *= partner
    del partner  # peak memory: freed before the loop's arrays are made
    np.multiply(i, 1.0 - g * g, out=d_gates[..., 2, :])
    h_to_c = o * (1.0 - tanh_c * tanh_c)
    on = live.astype(acts.dtype)
    off = 1.0 - on
    d_states = _flip_into(np.empty_like(h_prev),
                          g_states.reshape(t_max, b, k, hid).swapaxes(1, 2), reverse)
    dh = np.zeros((k, b, hid), dtype=acts.dtype)
    dc = np.zeros_like(dh)
    w_rec_t = w_rec.transpose(0, 2, 1)
    d_ifg, d_o = d_gates[..., :3, :], d_gates[..., 3, :]
    d_gates = d_gates.reshape(t_max, k, b, 4 * hid)
    for s in range(t_max - 1, -1, -1):
        dh_t = d_states[s]
        dh_t += dh
        on_s = on[s]
        dh_new = dh_t * on_s
        dc_new = dc * on_s
        dc_new += dh_new * h_to_c[s]
        d_ifg[s] *= dc_new[:, :, None]
        d_o[s] *= dh_new
        dh = np.matmul(d_gates[s], w_rec_t)
        dh += dh_t * off[s]
        dc *= off[s]
        dc += dc_new * f[s]
    return d_gates


def _lstm_scan_backward(g_states, cache, w_in, w_rec, reverse):
    """The gradients of a `lstm_scan_forward` call, from its cache.

    Returns the gradient of the (context-extended) input rows, summed over the
    directions, and per direction the gradients of its w_in, w_rec and bias:
    2-D products over the direction's rows in time order (a copy, unless the
    direction is the only one and runs forward). The input gradient sums the
    directions' products onto zeros, as a sum over k does.
    """
    x, h_prev = cache[0], cache[3]
    d_gates = _gate_gradients(g_states, cache, w_rec, reverse)
    t_max, k, b, hid = h_prev.shape
    d_in = np.zeros((t_max * b, x.shape[1]), dtype=d_gates.dtype)
    d_cells = []
    for j, rev in enumerate(reverse):
        time_order = slice(None, None, -1 if rev else 1)
        d_rows = np.ascontiguousarray(d_gates[time_order, j]).reshape(t_max * b, 4 * hid)
        h_rows = np.ascontiguousarray(h_prev[time_order, j]).reshape(t_max * b, hid)
        d_in += d_rows @ w_in[j].T
        d_cells.append((x.T @ d_rows, h_rows.T @ d_rows, d_rows.sum(axis=0)))
        del d_rows, h_rows  # peak memory: freed before the next direction's copies
    return d_in, d_cells


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
                                      None if context is None else context.data)
    parents = (x, *(t for cell in cells for t in cell)) + (() if context is None else (context,))

    def bwd(g):
        nonlocal cache
        d_in, d_cells = _lstm_scan_backward(g, cache, stacked(0), stacked(1), reverse)
        cache = None  # backward runs once per graph: free the cache for the scans after it
        d = x.data.shape[1]
        _accum(x, d_in[:, :d])
        if context is not None:
            _accum(context, d_in[:, d:].reshape(mask.shape[1], mask.shape[0], -1).sum(axis=0))
        for cell, grads in zip(cells, d_cells):
            for t, d_t in zip(cell, grads):
                _accum(t, d_t)
    return Tensor(states, op="lstm_scan", parents=parents, backward=bwd)


def _live_steps(states, mask):
    """Time-major (T*B, H) states as (T, B, H), MASK_FILL on padded steps."""
    b, t_max = mask.shape
    return np.where(mask.T[:, :, None] > 0, states.reshape(t_max, b, -1), MASK_FILL)


def _pooled(filled, first=None):
    """Max over axis 0 of masked (T, ...) steps: each entry is the value at the
    earliest step holding the maximum, `first` (argmax, taken here if None).
    A max reduction gives those values except for a zero maximum, where -0.0
    and 0.0 tie; only then is the earliest step looked up."""
    pooled = filled.max(axis=0)
    if pooled.all():
        return pooled
    first = filled.argmax(axis=0)[None] if first is None else first
    return np.take_along_axis(filled, first, axis=0)[0]


def maxpool_forward(hs, dead, reverse):
    """Max over the live steps of loop-order (T, k, B, H) states and their dead
    mask, as `lstm_steps` makes them -> (B, k*H), direction j in columns
    j*H:(j+1)*H. Each entry is the value at the earliest timestep holding the
    maximum, the step `masked_maxpool` sends its gradient to. A maximum does
    not depend on step order, so the reduction runs in loop order; only a
    zero maximum, where -0.0 and 0.0 tie, takes the states to time order for
    `_pooled`'s earliest-step rule.
    """
    filled = hs if dead is None else np.where(dead, MASK_FILL, hs)
    pooled = filled.max(axis=0)
    if not pooled.all():
        pooled = _pooled(_flip_into(np.empty_like(filled), filled, reverse))
    k, b, hid = pooled.shape
    return pooled.transpose(1, 0, 2).reshape(b, k * hid)


def masked_maxpool(states, mask):
    """Temporal max-pool over live steps as one node; gradient to the earliest
    timestep holding the maximum. The forward takes that step's argmax, which
    its backward needs, so the masked states are filled once."""
    mask = np.asarray(mask)
    filled = _live_steps(states.data, mask)
    first = filled.argmax(axis=0)[None]

    def bwd(g):
        full = np.zeros((mask.shape[1],) + g.shape, dtype=g.dtype)
        np.put_along_axis(full, first, g[None], axis=0)
        _accum(states, full.reshape(states.data.shape))
    return Tensor(_pooled(filled, first), op="masked_maxpool", parents=(states,), backward=bwd)
