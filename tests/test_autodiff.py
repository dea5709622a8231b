import numpy as np
import pytest

from xlalign import autodiff as ad

from conftest import finite_difference_grads, lstm_step_reference, max_relative_error


def matmul_oracle(a, b):
    """Naive triple loop."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self, rng):
        b = rng.normal(size=(3, 2))
        out = ad.matmul(ad.constant(np.eye(3)), ad.constant(b))
        np.testing.assert_array_equal(out.data, b)

    def test_zero(self, rng):
        b = rng.normal(size=(2, 2))
        out = ad.matmul(ad.constant(np.zeros((2, 2))), ad.constant(b))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_small_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(ad.constant(a), ad.constant(b))
        np.testing.assert_array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]]))
        np.testing.assert_array_equal(out.data, matmul_oracle(a, b))

    def test_oracle_random(self, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
        out = ad.matmul(ad.constant(a), ad.constant(b))
        assert np.max(np.abs(out.data - matmul_oracle(a, b))) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_vector_left_operand(self, rng):
        v, m = rng.normal(size=5), rng.normal(size=(5, 2))
        out = ad.matmul(ad.constant(v), ad.constant(m))
        np.testing.assert_allclose(out.data, v @ m)


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = ad.leaf(rng.normal(size=(3, 4)))
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        v = rng.normal(size=6)
        x = ad.leaf(v)
        ad.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * v, rtol=1e-12)

    def test_non_scalar_loss_rejected(self, rng):
        x = ad.leaf(rng.normal(size=3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(x)

    def test_unreachable_leaf_gets_no_gradient(self, rng):
        x = ad.leaf(rng.normal(size=3))
        y = ad.leaf(rng.normal(size=3))
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones(3))
        assert y.grad is None

    def test_diamond_graph_accumulates(self, rng):
        v = rng.normal(size=4)
        x = ad.leaf(v)
        y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
        ad.backward(ad.tsum(y))
        np.testing.assert_allclose(x.grad, 2 * v + 3.0, rtol=1e-12)


def _check_op(build, arrays, tol=1e-4):
    """Gradient-check `build(leaves) -> scalar Tensor` against central FD."""
    leaves = [ad.leaf(a) for a in arrays]
    loss = build(leaves)
    ad.backward(loss)
    analytic = [l.grad if l.grad is not None else np.zeros_like(l.data) for l in leaves]

    def forward():
        fresh = [ad.leaf(a) for a in arrays]
        return build(fresh).data

    numeric = finite_difference_grads(forward, arrays)
    for a, n in zip(analytic, numeric):
        assert max_relative_error(a, n) < tol


class TestGradientChecks:
    def test_add_broadcast(self, rng):
        _check_op(lambda l: ad.tsum(ad.add(l[0], l[1])),
                  [rng.normal(size=(3, 4)), rng.normal(size=4)])

    def test_sub_mul(self, rng):
        _check_op(lambda l: ad.tsum(ad.mul(ad.sub(l[0], l[1]), l[0])),
                  [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_matmul(self, rng):
        _check_op(lambda l: ad.tsum(ad.matmul(l[0], l[1])),
                  [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def test_tanh(self, rng):
        x = rng.normal(size=(3, 3)) + np.sign(rng.normal(size=(3, 3))) * 0.2
        _check_op(lambda l: ad.tsum(ad.tanh(l[0])), [x.copy()])

    def test_abs_away_from_zero(self, rng):
        x = rng.normal(size=(4,))
        x[np.abs(x) < 0.1] += 0.5
        _check_op(lambda l: ad.tsum(ad.absolute(l[0])), [x])

    def test_concat(self, rng):
        _check_op(lambda l: ad.tsum(ad.mul(ad.concat([l[0], l[1]], axis=1),
                                           ad.constant(np.arange(10.0).reshape(2, 5)))),
                  [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))])

    def test_gather_rows(self, rng):
        ids = np.array([0, 2, 2, 1])
        _check_op(lambda l: ad.tsum(ad.mul(ad.gather_rows(l[0], ids),
                                           ad.constant(np.arange(12.0).reshape(4, 3)))),
                  [rng.normal(size=(3, 3))])

    def test_sum_scale(self, rng):
        _check_op(lambda l: ad.scale(ad.tsum(l[0]), 2.5), [rng.normal(size=(3, 2))])

    def test_cross_entropy(self, rng):
        logits = rng.normal(size=(4, 5))
        targets = np.array([1, 0, 4, 2])
        weights = np.array([1.0, 1.0, 0.0, 1.0])
        _check_op(lambda l: ad.softmax_cross_entropy_sum(l[0], targets, weights), [logits])

    def test_lstm_scan_forward(self, rng):
        _check_scan(rng, reverse=False, mask=_mask(3, 3))

    def test_lstm_scan_reverse_padded(self, rng):
        _check_scan(rng, reverse=True, mask=_mask(3, 1, 2))

    def test_lstm_scan_forward_padded(self, rng):
        _check_scan(rng, reverse=False, mask=_mask(1, 3, 2))

    def test_lstm_scan_context(self, rng):
        _check_scan(rng, reverse=False, mask=_mask(2, 3), context_dim=2)

    def test_lstm_scan_gap_carries_state(self, rng):
        # a dead step inside a row carries h and c through, in both directions
        gap = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
        _check_scan(rng, reverse=False, mask=gap)
        _check_scan(rng, reverse=True, mask=gap)

    def test_masked_maxpool_with_margin(self, rng):
        # four timesteps, two rows, the second row padded after step 2; the
        # states are spread apart so no two live entries tie
        states = rng.permutation(24).reshape(8, 3) * 0.5 + rng.normal(size=(8, 3)) * 0.01
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=float)
        weights = ad.constant(rng.normal(size=(2, 3)))
        _check_op(lambda l: ad.tsum(ad.mul(ad.masked_maxpool(l[0], mask), weights)), [states])

    def test_decoder_logits_batched_ce(self, rng):
        # time-major (K*B, H) states -> one projection -> one weighted CE
        k, b, hid, v = 3, 2, 4, 5
        targets = rng.integers(0, v, size=k * b)
        weights = ad.time_major(np.array([[1, 1, 1], [1, 1, 0]], dtype=float))
        _check_op(lambda l: ad.softmax_cross_entropy_sum(
                      ad.add(ad.matmul(l[0], l[1]), l[2]), targets, weights),
                  [rng.normal(size=(k * b, hid)), rng.normal(size=(hid, v)),
                   rng.normal(size=v)])


def _mask(*lengths):
    """(B, T) mask of rows with the given lengths, padded at the end."""
    t_max = max(lengths)
    return np.array([[1.0] * n + [0.0] * (t_max - n) for n in lengths])


def _scan_inputs(rng, mask, d=3, hid=2, context_dim=0):
    b, t_max = mask.shape
    arrays = [rng.normal(size=(t_max * b, d)), rng.normal(size=(d + context_dim, 4 * hid)) * 0.7,
              rng.normal(size=(hid, 4 * hid)) * 0.7, rng.normal(size=4 * hid) * 0.5]
    if context_dim:
        arrays.append(rng.normal(size=(b, context_dim)))
    return arrays


def _check_scan(rng, reverse, mask, context_dim=0):
    """FD check of every lstm_scan input through a random linear readout."""
    arrays = _scan_inputs(rng, mask, context_dim=context_dim)
    readout = ad.constant(rng.normal(size=(arrays[0].shape[0], arrays[2].shape[0])))

    def build(l):
        context = l[4] if context_dim else None
        states = ad.lstm_scan(*l[:4], mask, reverse=reverse, context=context)
        return ad.tsum(ad.mul(states, readout))
    _check_op(build, arrays)


def _chained_reference(x_rows, mask, w_in, w_rec, bias, reverse):
    """Per-row chain of scalar LSTM steps; padded steps carry the state."""
    b, t_max = mask.shape
    hid = w_rec.shape[0]
    x = x_rows.reshape(t_max, b, -1)
    out = np.zeros((t_max, b, hid))
    for row in range(b):
        h, c = np.zeros(hid), np.zeros(hid)
        for t in (range(t_max - 1, -1, -1) if reverse else range(t_max)):
            if mask[row, t]:
                h, c = lstm_step_reference(x[t, row], h, c, w_in, w_rec, bias)
            out[t, row] = h
    return out.reshape(t_max * b, hid)


class TestLstmStep:
    """The LSTM step recurrence as `lstm_scan` runs it."""

    def test_all_zero_params(self):
        z = ad.constant
        mask = np.ones((2, 3))
        states = ad.lstm_scan(z(np.zeros((6, 3))), z(np.zeros((3, 8))), z(np.zeros((2, 8))),
                              z(np.zeros(8)), mask)
        np.testing.assert_array_equal(states.data, np.zeros((6, 2)))

    def test_shape_contract(self, rng):
        mask = _mask(4, 2, 3)
        arrays = _scan_inputs(rng, mask, context_dim=2)
        states = ad.lstm_scan(*(ad.constant(a) for a in arrays[:4]), mask,
                              context=ad.constant(arrays[4]))
        assert states.data.shape == (4 * 3, 2)

    def test_matches_scalar_reference(self, rng):
        for reverse in (False, True):
            mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
            arrays = _scan_inputs(rng, mask, d=4, hid=3)
            states = ad.lstm_scan(*(ad.constant(a) for a in arrays), mask, reverse=reverse)
            ref = _chained_reference(*arrays[:1], mask, *arrays[1:], reverse)
            assert np.max(np.abs(states.data - ref)) < 1e-12

    def test_inconsistent_params_rejected(self):
        with pytest.raises(ValueError, match="LSTM"):
            ad.lstm_scan(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 6))),
                         ad.constant(np.zeros((2, 8))), ad.constant(np.zeros(8)),
                         np.ones((1, 2)))


class TestMaskedMaxpool:
    def test_ties_go_to_earliest_timestep(self):
        # row 0 ties at steps 0 and 2; row 1's largest value sits on a padded step
        states = ad.leaf(np.array([[5.0], [1.0], [2.0], [3.0], [5.0], [9.0]]))
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=float)
        pooled = ad.masked_maxpool(states, mask)
        np.testing.assert_array_equal(pooled.data, [[5.0], [3.0]])
        ad.backward(ad.tsum(pooled))
        np.testing.assert_array_equal(states.grad, [[1.0], [0.0], [0.0], [1.0], [0.0], [0.0]])

    def test_forward_matches_numpy_max_over_live_steps(self, rng):
        mask = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=float)
        states = rng.normal(size=(4 * 3, 5))
        pooled, _ = ad.maxpool_forward(states, mask)
        steps = states.reshape(4, 3, 5)
        for row in range(3):
            live = steps[mask[row] > 0, row]
            np.testing.assert_array_equal(pooled[row], live.max(axis=0))


class TestContracts:
    def test_nan_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.constant(np.array([1.0, np.nan]))

    def test_inf_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.constant(np.array([np.inf]))

    def test_nonfinite_gradient_rejected(self):
        # every value is finite (1e-300 * 1e200 * 1e200 = 1e100), but the
        # gradient reaching x is 1e400
        x = ad.leaf(np.array([1e-300]))
        big = ad.constant(np.array([1e200]))
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="gradient"):
            ad.backward(ad.tsum(ad.mul(ad.mul(x, big), big)))

    def test_softmax_shift_invariance(self, rng):
        z = rng.normal(size=(2, 3))
        np.testing.assert_allclose(ad.softmax_rows(z), ad.softmax_rows(z + 7.0), atol=1e-12)

    def test_deterministic_forward(self, rng):
        x = rng.normal(size=(3, 3))
        a = ad.tanh(ad.matmul(ad.constant(x), ad.constant(x)))
        b = ad.tanh(ad.matmul(ad.constant(x), ad.constant(x)))
        assert np.array_equal(a.data, b.data)

    def test_uniform_logits_ce_is_log_v(self, rng):
        v = 7
        logits = ad.constant(np.zeros((5, v)))
        loss = ad.scale(ad.softmax_cross_entropy_sum(logits, rng.integers(0, v, 5)), 1 / 5)
        assert abs(float(loss.data) - np.log(v)) < 1e-12
