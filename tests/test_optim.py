import numpy as np
import pytest

from xlalign.optim import Adam, clip_global_norm


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


def _stepped(opt, p, g):
    """Apply one Adam update of the single parameter `p` to a copy of it."""
    params = {"p": np.array(p, dtype=np.float64)}
    opt.apply(params, {"p": np.asarray(g, dtype=np.float64)})
    return params["p"]


def test_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    opt = Adam(1e-3)
    out = _stepped(opt, p, np.zeros(3))
    np.testing.assert_array_equal(out, p)
    assert opt.state["p"][2] == 1


def test_first_step_magnitude_is_lr():
    out = _stepped(Adam(1e-3), np.zeros(1), np.array([0.37]))
    # bias correction makes m-hat = g and v-hat = g^2 on step one
    assert abs(abs(out[0]) - 1e-3) < 1e-9


def test_five_step_trajectory_matches_reference():
    theta = 1.0
    opt = Adam(0.1)
    params = {"p": np.array(theta)}
    mine = []
    for _ in range(5):
        opt.apply(params, {"p": 2.0 * params["p"]})  # |g| <= 2: never clipped
        mine.append(float(params["p"]))
    ref = adam_reference(theta, lambda x: 2.0 * x, 5, lr=0.1)
    assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12
    assert opt.state["p"][2] == 5


def test_alternating_names_each_follow_the_reference():
    """Names updated on alternate calls keep their own moments and step
    counts, as the joint loop's per-language encoders do."""
    opt = Adam(0.1)
    params = {"a": np.array(1.0), "b": np.array(-0.5)}
    mine = {"a": [], "b": []}
    for k in range(10):
        name = "ab"[k % 2]
        opt.apply(params, {name: 2.0 * params[name]})
        mine[name].append(float(params[name]))
    for name, start in (("a", 1.0), ("b", -0.5)):
        ref = adam_reference(start, lambda x: 2.0 * x, 5, lr=0.1)
        assert max(abs(a - b) for a, b in zip(mine[name], ref)) < 1e-12
        assert opt.state[name][2] == 5


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        Adam(1e-3).apply({"p": np.zeros(3)}, {"p": np.zeros(4)})


def test_non_finite_gradient_rejected():
    p = np.zeros(2)
    with pytest.raises(ValueError, match="non-finite"):
        Adam(1e-3).apply({"p": p}, {"p": np.array([1.0, np.nan])})
    np.testing.assert_array_equal(p, np.zeros(2))


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_global_norm(grads, 1.0)
    total = np.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
    assert abs(total - 1.0) < 1e-12
    untouched = clip_global_norm({"a": np.array([0.1])}, 1.0)
    np.testing.assert_array_equal(untouched["a"], np.array([0.1]))


def test_adam_updates_in_place():
    p = np.array([1.0, 1.0])
    params = {"p": p}
    opt = Adam(0.5)
    opt.apply(params, {"p": np.array([1.0, -1.0])})
    assert params["p"] is p
    assert p[0] < 1.0 < p[1]


def test_in_place_update_is_bit_equal_to_the_out_of_place_formula(rng):
    """20 steps on three tensors, clipping included, against the update written
    out of place; the in-place arithmetic must keep its operation order."""
    shapes = {"w": (4, 6), "b": (6,), "s": ()}
    params = {n: rng.normal(size=s) for n, s in shapes.items()}
    oracle = {n: p.copy() for n, p in params.items()}
    moments = {n: (np.zeros_like(p), np.zeros_like(p)) for n, p in params.items()}
    opt, lr, b1, b2, eps = Adam(3e-2), 3e-2, 0.9, 0.999, 1e-8
    for t in range(1, 21):
        grads = {n: rng.normal(size=s) * (8.0 if t % 3 == 0 else 0.5) for n, s in shapes.items()}
        opt.apply(params, grads)
        for n, g in clip_global_norm(grads, 5.0).items():
            m, v = moments[n]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            moments[n] = (m, v)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            oracle[n] = oracle[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for n in shapes:
            np.testing.assert_array_equal(params[n], oracle[n])
