"""Adam with bias correction and global-norm gradient clipping, and the one
training loop every learner runs through it."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
CLIP_NORM = 5.0


def clip_global_norm(grads, max_norm):
    """Scale all gradients so their joint L2 norm is at most max_norm.

    A non-finite norm raises `NonFiniteError`.
    """
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not np.isfinite(total):
        raise ad.NonFiniteError(f"non-finite global gradient norm {total}")
    if total <= max_norm or total == 0.0:
        return grads
    factor = float(max_norm / total)  # a python float keeps each gradient's dtype
    return {name: g * factor for name, g in grads.items()}


class Adam:
    """Bias-corrected Adam after clipping to CLIP_NORM; one [m, v, t] per parameter name."""

    def __init__(self, lr):
        self.lr = lr
        self.state = {}

    def apply(self, params, grads):
        """params: name -> ndarray (updated in place); grads: name -> ndarray."""
        for name, g in clip_global_norm(grads, CLIP_NORM).items():
            p = params[name]
            if p.shape != g.shape:
                raise ValueError(f"parameter shape {p.shape} does not match gradient shape {g.shape}")
            m, v, t = self.state.get(name) or (np.zeros_like(p), np.zeros_like(p), 0)
            t += 1
            # in place, in the operation order of
            # p - lr * (m / (1 - β1^t)) / (sqrt(v / (1 - β2^t)) + ε), so the bits match it
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            self.state[name] = [m, v, t]
            step = m / (1.0 - BETA1 ** t)
            step *= self.lr
            denom = np.sqrt(v / (1.0 - BETA2 ** t))
            denom += EPSILON
            step /= denom
            p -= step


def optimizer_params(*parts):
    """name -> array over parameter sets, named as their `ParamSet` gradients are."""
    params = {}
    for part in parts:
        arrays = part.named_arrays(part.prefix)
        if arrays.keys() & params.keys():
            raise ValueError(f"two parameter sets share the prefix {part.prefix!r}")
        params.update(arrays)
    return params


def fit(parts, steps, lr, step):
    """Train the parameter sets `parts` (updated in place) for `steps` Adam steps.

    `step(i)` samples batch i and builds its loss graph; it returns the scalar
    loss, the `ParamSet`s that hold the gradients in clip-norm summation order
    (one may repeat) and the trace rows it logs. Returns every trace row.

    The parameters are checked for NaN/Inf once, before step 0; after that a
    finite clipped gradient keeps them finite. A `NonFiniteError` raised in
    step i is raised again with "step i: " before its message.
    """
    opt = Adam(lr)
    params = optimizer_params(*parts)
    for name, p in params.items():
        if not np.isfinite(p).all():
            raise ad.NonFiniteError(f"non-finite values in parameter {name!r} before step 0")
    trace = []
    for i in range(steps):
        try:
            loss, param_sets, rows = step(i)
            ad.backward(loss)
            grads = {}
            for tensors in param_sets:
                grads.update(tensors.gradients())
            opt.apply(params, grads)
        except ad.NonFiniteError as exc:
            raise ad.NonFiniteError(f"step {i}: {exc}") from exc
        trace.extend(rows)
    return trace
