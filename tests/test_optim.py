import numpy as np
import pytest

from xlalign import autodiff as ad
from xlalign.encoders import new_encoder
from xlalign.objectives import IdTable, new_decoder, seq2seq_loss
from xlalign.optim import BETA1, BETA2, CLIP_NORM, EPSILON, Adam, clip_global_norm, fit
from xlalign.text import NoiseParams, build_vocab


def adam_reference(theta, grad_fn, steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Independent reference: the textbook bias-corrected update."""
    m = v = 0.0
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        trajectory.append(theta)
    return trajectory


class Arrays:
    """A parameter set of named arrays under `prefix`, as `ad.ParamSet` wraps one."""

    def __init__(self, prefix, **arrays):
        self.prefix, self.arrays = prefix, arrays

    def named_arrays(self, prefix):
        return {prefix + name: a for name, a in self.arrays.items()}


def _with_grads(params, grads):
    """A `ParamSet` over `params` whose tensors hold `grads` (name -> array)."""
    tensors = ad.ParamSet(params)
    for name, g in grads.items():
        tensors[name].grad = g
    return tensors


def _stepped(opt, p, g):
    """Apply one Adam update of the single parameter `p` to a copy of it."""
    params = Arrays("s.", p=np.array(p, dtype=np.float64))
    opt.apply([_with_grads(params, {"p": np.asarray(g, dtype=np.float64)})])
    return params.arrays["p"]


def test_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    opt = Adam(1e-3)
    out = _stepped(opt, p, np.zeros(3))
    np.testing.assert_array_equal(out, p)
    assert opt.state["s."][2] == 1


def test_first_step_magnitude_is_lr():
    out = _stepped(Adam(1e-3), np.zeros(1), np.array([0.37]))
    # bias correction makes m-hat = g and v-hat = g^2 on step one
    assert abs(abs(out[0]) - 1e-3) < 1e-9


def test_five_step_trajectory_matches_reference():
    theta = 1.0
    opt = Adam(0.1)
    params = Arrays("s.", p=np.array(theta))
    mine = []
    for _ in range(5):
        p = params.arrays["p"]
        opt.apply([_with_grads(params, {"p": 2.0 * p})])  # |g| <= 2: never clipped
        mine.append(float(p))
    ref = adam_reference(theta, lambda x: 2.0 * x, 5, lr=0.1)
    assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12
    assert opt.state["s."][2] == 5


def test_alternating_names_each_follow_the_reference():
    """Parameter sets updated on alternate calls keep their own moments and
    step counts, as the joint loop's per-language encoders do."""
    opt = Adam(0.1)
    sets = {"a": Arrays("a.", p=np.array(1.0)), "b": Arrays("b.", p=np.array(-0.5))}
    mine = {"a": [], "b": []}
    for k in range(10):
        name = "ab"[k % 2]
        p = sets[name].arrays["p"]
        opt.apply([_with_grads(sets[name], {"p": 2.0 * p})])
        mine[name].append(float(p))
    for name, start in (("a", 1.0), ("b", -0.5)):
        ref = adam_reference(start, lambda x: 2.0 * x, 5, lr=0.1)
        assert max(abs(a - b) for a, b in zip(mine[name], ref)) < 1e-12
        assert opt.state[f"{name}."][2] == 5


def test_shape_mismatch_rejected():
    params = Arrays("s.", p=np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        Adam(1e-3).apply([_with_grads(params, {"p": np.zeros(4)})])


def test_parameter_without_gradient_rejected():
    """A parameter of a set handed to `fit` that the loss does not read."""
    params = Arrays("s.", p=np.zeros(2), q=np.zeros(3))

    def step(_):
        tensors = ad.ParamSet(params)
        return ad.tsum(ad.mul(tensors["p"], ad.constant(np.ones(2)))), (tensors,), []
    with pytest.raises(ValueError, match="'s.q' has no gradient"):
        fit([params], 1, 1e-3, step)
    np.testing.assert_array_equal(params.arrays["p"], np.zeros(2))


def test_non_finite_gradient_rejected():
    params = Arrays("s.", p=np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        Adam(1e-3).apply([_with_grads(params, {"p": np.array([1.0, np.nan])})])
    np.testing.assert_array_equal(params.arrays["p"], np.zeros(2))


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_global_norm(grads, 1.0)
    total = np.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
    assert abs(total - 1.0) < 1e-12
    untouched = clip_global_norm({"a": np.array([0.1])}, 1.0)
    np.testing.assert_array_equal(untouched["a"], np.array([0.1]))


def test_adam_updates_in_place():
    p = np.array([1.0, 1.0])
    params = Arrays("s.", p=p)
    opt = Adam(0.5)
    opt.apply([_with_grads(params, {"p": np.array([1.0, -1.0])})])
    assert params.arrays["p"] is p
    assert p[0] < 1.0 < p[1]


def test_in_place_update_is_bit_equal_to_the_out_of_place_formula(rng):
    """20 steps on three tensors, clipping included, against the update written
    out of place; the in-place arithmetic must keep its operation order."""
    shapes = {"w": (4, 6), "b": (6,), "s": ()}
    params = Arrays("s.", **{n: rng.normal(size=s) for n, s in shapes.items()})
    oracle = {n: p.copy() for n, p in params.arrays.items()}
    moments = {n: (np.zeros_like(p), np.zeros_like(p)) for n, p in params.arrays.items()}
    opt, lr, b1, b2, eps = Adam(3e-2), 3e-2, 0.9, 0.999, 1e-8
    for t in range(1, 21):
        grads = {n: rng.normal(size=s) * (8.0 if t % 3 == 0 else 0.5) for n, s in shapes.items()}
        opt.apply([_with_grads(params, grads)])
        for n, g in clip_global_norm(grads, 5.0).items():
            m, v = moments[n]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            moments[n] = (m, v)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            oracle[n] = oracle[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for n in shapes:
            np.testing.assert_array_equal(params.arrays[n], oracle[n])


class PerTensorAdam:
    """The per-tensor Adam that per-set Adam replaced: one [m, v, t] per
    parameter name, the same in-place arithmetic tensor by tensor."""

    def __init__(self, lr):
        self.lr = lr
        self.state = {}

    def apply(self, params, grads):
        for name, g in clip_global_norm(grads, CLIP_NORM).items():
            p = params[name]
            m, v, t = self.state.get(name) or (np.zeros_like(p), np.zeros_like(p), 0)
            t += 1
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


def test_per_set_adam_equals_per_tensor_adam_bit_for_bit():
    """A la/lb round-robin against one shared decoder, every third step's
    gradient scaled past the clip norm and every second step's encoder set
    passed twice: per-set Adam keeps the bits of the per-tensor update,
    parameters and moments alike."""
    sentences = [[f"w{(i * 7 + j) % 9}" for j in range(2 + i % 4)] for i in range(12)]
    vocab = build_vocab(sentences, min_count=1)
    table = IdTable(sentences, vocab)
    encs = {lang: new_encoder(len(vocab), 4, 3, lang, seed=s) for s, lang in enumerate(("la", "lb"))}
    dec = new_decoder(len(vocab), 4, 6, 3, "la", seed=5)
    ref_arrays = {}
    for part in (dec, *encs.values()):
        ref_arrays.update({name: a.copy() for name, a in part.named_arrays().items()})
    opt, ref = Adam(1e-2), PerTensorAdam(1e-2)
    rng = np.random.default_rng(3)
    clipped = 0
    for step in range(9):
        lang = ("la", "lb")[step % 2]
        rows = rng.integers(0, len(sentences), size=4)
        loss, param_sets = seq2seq_loss(table, table, rows, encs[lang], dec,
                                        NoiseParams(0.1, 0.1, step) if lang == "la" else None)
        ad.backward(ad.scale(loss, 50.0) if step % 3 == 2 else loss)
        grads = {}
        for tensors in param_sets:
            grads.update(tensors.gradients())
        clipped += clip_global_norm(grads, CLIP_NORM) is not grads
        opt.apply(param_sets + param_sets[:step % 2])  # a set passed twice counts once
        ref.apply(ref_arrays, grads)
        for part in (dec, *encs.values()):
            for name, a in part.named_arrays().items():
                assert a.tobytes() == ref_arrays[name].tobytes(), (step, name)
    assert clipped >= 3
    for tensors in param_sets:
        names = list(tensors.tensors)
        m, v, t = opt.state[tensors.prefix]
        assert t == ref.state[names[0]][2]
        assert m.tobytes() == np.concatenate([ref.state[n][0].reshape(-1) for n in names]).tobytes()
        assert v.tobytes() == np.concatenate([ref.state[n][1].reshape(-1) for n in names]).tobytes()
