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
    """Bias-corrected Adam after clipping to CLIP_NORM; one flat [m, v, t] per
    parameter set, keyed by its prefix."""

    def __init__(self, lr):
        self.lr = lr
        self.state = {}

    def apply(self, param_sets):
        """One update of the parameters of the `ParamSet`s `param_sets` (updated
        in place) from their gradients, in clip-norm summation order; a set
        passed twice counts once. Every parameter must have a gradient.

        Each set's gradients are joined into one flat array, so the moment and
        step arithmetic runs once per set; only the final subtraction runs per
        parameter.
        """
        sets = {tensors.prefix: tensors for tensors in param_sets}
        grads = {}
        for tensors in sets.values():
            for name, tensor in tensors.tensors.items():
                if tensor.grad is None:
                    raise ValueError(f"parameter {name!r} has no gradient")
                if tensor.grad.shape != tensor.data.shape:
                    raise ValueError(f"parameter {name!r} of shape {tensor.data.shape} has a "
                                     f"gradient of shape {tensor.grad.shape}")
                grads[name] = tensor.grad
        grads = clip_global_norm(grads, CLIP_NORM)
        for prefix, tensors in sets.items():
            g = np.concatenate([grads[name].reshape(-1) for name in tensors.tensors])
            m, v, t = self.state.get(prefix) or (np.zeros_like(g), np.zeros_like(g), 0)
            t += 1
            # in place, in the operation order of
            # p - lr * (m / (1 - β1^t)) / (sqrt(v / (1 - β2^t)) + ε), so the bits match it
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            self.state[prefix] = [m, v, t]
            step = m / (1.0 - BETA1 ** t)
            step *= self.lr
            denom = np.sqrt(v / (1.0 - BETA2 ** t))
            denom += EPSILON
            step /= denom
            lo = 0
            for tensor in tensors.tensors.values():
                p = tensor.data
                p -= step[lo:lo + p.size].reshape(p.shape)
                lo += p.size


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
    loss, the `ParamSet`s of `parts` that hold the gradients, in clip-norm
    summation order (one may repeat), and the trace rows it logs. Returns
    every trace row.

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
            opt.apply(param_sets)
        except ad.NonFiniteError as exc:
            raise ad.NonFiniteError(f"step {i}: {exc}") from exc
        trace.extend(rows)
    return trace
