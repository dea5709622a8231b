import numpy as np
import pytest

from xlalign import autodiff as ad

from conftest import (finite_difference_grads, lstm_step_reference, max_relative_error,
                      mlp_reference)


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
        _check_scan(rng, reverse=(False,), mask=_mask(3, 3))

    def test_lstm_scan_reverse_padded(self, rng):
        _check_scan(rng, reverse=(True,), mask=_mask(3, 1, 2))

    def test_lstm_scan_forward_padded(self, rng):
        _check_scan(rng, reverse=(False,), mask=_mask(1, 3, 2))

    def test_lstm_scan_context(self, rng):
        _check_scan(rng, reverse=(False,), mask=_mask(2, 3), context_dim=2)

    def test_lstm_scan_gap_carries_state(self, rng):
        # a dead step inside a row carries h and c through, in both directions
        gap = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
        _check_scan(rng, reverse=(False,), mask=gap)
        _check_scan(rng, reverse=(True,), mask=gap)

    def test_lstm_scan_stacked_directions_padded(self, rng):
        # both directions in one scan, over rows padded to different lengths
        _check_scan(rng, reverse=(False, True), mask=_mask(3, 1, 2))

    def test_lstm_scan_stacked_directions_with_gap(self, rng):
        gap = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
        _check_scan(rng, reverse=(True, False), mask=gap)

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


def _composed_mlp(x, w1, b1, w2, b2):
    """The classifier head as the `matmul`, `add` and `tanh` graph `ad.mlp` fuses."""
    return ad.add(ad.matmul(ad.tanh(ad.add(ad.matmul(x, w1), b1)), w2), b2)


class TestMlpHead:
    """`ad.mlp`, the classifier head as one node, for a constant input and for
    a leaf input."""

    @staticmethod
    def _arrays(rng, dtype=np.float64):
        """[x (5, 4), w1, b1, w2, b2] of a 4-3-2 head."""
        shapes = [(5, 4), (4, 3), (3,), (3, 2), (2,)]
        return [rng.normal(size=shape).astype(dtype) for shape in shapes]

    @pytest.mark.parametrize("input_kind", ["constant", "leaf"])
    def test_gradients_match_finite_differences(self, rng, input_kind):
        x, *params = self._arrays(rng)
        readout = ad.constant(rng.normal(size=(5, 2)))
        if input_kind == "constant":
            _check_op(lambda l: ad.tsum(ad.mul(ad.mlp(ad.constant(x), *l), readout)), params)
        else:
            _check_op(lambda l: ad.tsum(ad.mul(ad.mlp(*l), readout)), [x, *params])

    @pytest.mark.parametrize("input_kind", ["constant", "leaf"])
    def test_matches_scalar_reference(self, rng, input_kind):
        x, *params = self._arrays(rng)
        make = ad.constant if input_kind == "constant" else ad.leaf
        out = ad.mlp(make(x), *map(ad.leaf, params))
        assert np.max(np.abs(out.data - mlp_reference(x, *params))) < 1e-12

    @pytest.mark.parametrize("input_kind", ["constant", "leaf", "vector"])
    def test_equals_the_composed_graph_bit_for_bit(self, rng, input_kind):
        arrays = self._arrays(rng, ad.DTYPE)
        upstream = ad.constant(rng.normal(size=(5, 2)).astype(ad.DTYPE))
        if input_kind == "vector":  # one row as a 1-D leaf
            arrays[0], upstream = arrays[0][0], ad.constant(upstream.data[0])
        results = []
        for build in (ad.mlp, _composed_mlp):
            make = ad.constant if input_kind == "constant" else ad.leaf
            leaves = [make(arrays[0]), *map(ad.leaf, arrays[1:])]
            out = build(*leaves)
            ad.backward(ad.tsum(ad.mul(out, upstream)))
            results.append([out.data] + [leaf.grad for leaf in leaves])
        fused, composed = results
        assert (fused[1] is None) == (composed[1] is None) == (input_kind == "constant")
        assert fused[0].shape == upstream.shape
        for mine, theirs in zip(fused, composed):
            if theirs is not None:
                assert mine.dtype == theirs.dtype == ad.DTYPE
                assert mine.tobytes() == theirs.tobytes()

    def test_non_finite_hidden_layer_rejected(self):
        x = ad.constant(np.array([[1e30, 1e30]]))
        w1 = ad.leaf(np.full((2, 2), 1e300))
        with pytest.raises(ad.NonFiniteError, match="'mlp'"), np.errstate(over="ignore"):
            ad.mlp(x, w1, ad.leaf(np.zeros(2)), ad.leaf(np.ones((2, 1))), ad.leaf(np.zeros(1)))


def _mask(*lengths):
    """(B, T) mask of rows with the given lengths, padded at the end."""
    t_max = max(lengths)
    return np.array([[1.0] * n + [0.0] * (t_max - n) for n in lengths])


def _scan_inputs(rng, mask, d=3, hid=2, context_dim=0, k=1):
    """[x, then (w_in, w_rec, bias) per direction, then the context if any]."""
    b, t_max = mask.shape
    arrays = [rng.normal(size=(t_max * b, d))]
    for _ in range(k):
        arrays += [rng.normal(size=(d + context_dim, 4 * hid)) * 0.7,
                   rng.normal(size=(hid, 4 * hid)) * 0.7, rng.normal(size=4 * hid) * 0.5]
    if context_dim:
        arrays.append(rng.normal(size=(b, context_dim)))
    return arrays


def _scan(l, mask, reverse, context=None):
    """lstm_scan of x = l[0] with one cell per flag in `reverse`, laid out as
    `_scan_inputs` lays them out."""
    cells = [tuple(l[1 + 3 * j:4 + 3 * j]) for j in range(len(reverse))]
    return ad.lstm_scan(l[0], cells, mask, reverse, context=context)


def _check_scan(rng, reverse, mask, context_dim=0):
    """FD check of every lstm_scan input through a random linear readout."""
    arrays = _scan_inputs(rng, mask, context_dim=context_dim, k=len(reverse))
    hid = arrays[2].shape[0]
    readout = ad.constant(rng.normal(size=(arrays[0].shape[0], len(reverse) * hid)))

    def build(l):
        context = l[-1] if context_dim else None
        return ad.tsum(ad.mul(_scan(l, mask, reverse, context), readout))
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


def _two_d_reference(x, mask, w_in, w_rec, bias, reverse, g):
    """One LSTM direction and its BPTT written with plain 2-D products, one
    direction at a time: x (T*B, D) already holds any context columns; g is
    the gradient of the (T*B, H) states. Returns the states and the gradients
    of x, w_in, w_rec and bias."""
    b, t_max = mask.shape
    hid = w_rec.shape[0]
    # σ(z) = ½ + ½·tanh(z/2) on i, f, o: halve their pre-activation, then one
    # tanh over every gate and the affine map (½, ½, 1, ½)·a + (½, ½, 0, ½)
    half = np.repeat([0.5, 0.5, 1.0, 0.5], hid)
    gates_in = ((x @ w_in + bias) * half).reshape(t_max, b, 4 * hid)
    w_half = w_rec * half
    live = mask.T[:, :, None] > 0
    h, c = np.zeros((b, hid)), np.zeros((b, hid))
    states, h_prev, c_prev, tanh_c = (np.zeros((t_max, b, hid)) for _ in range(4))
    acts = np.zeros((t_max, b, 4 * hid))
    steps = range(t_max - 1, -1, -1) if reverse else range(t_max)
    for t in steps:
        act = np.tanh(h @ w_half + gates_in[t]) * half + (1.0 - half)
        c_new = act[:, hid:2 * hid] * c + act[:, :hid] * act[:, 2 * hid:3 * hid]
        tc = np.tanh(c_new)
        acts[t], h_prev[t], c_prev[t], tanh_c[t] = act, h, c, tc
        h = np.where(live[t], act[:, 3 * hid:] * tc, h)
        c = np.where(live[t], c_new, c)
        states[t] = h
    i, f, gg, o = (acts[..., n * hid:(n + 1) * hid] for n in range(4))
    on = live.astype(float)
    g = g.reshape(t_max, b, hid)
    d_gates = np.zeros((t_max, b, 4 * hid))
    dh, dc = np.zeros((b, hid)), np.zeros((b, hid))
    for t in reversed(steps):
        dh_t = g[t] + dh
        dh_new = dh_t * on[t]
        dc_new = dc * on[t] + dh_new * (o[t] * (1.0 - tanh_c[t] * tanh_c[t]))
        d_gates[t] = np.concatenate([dc_new * (gg[t] * i[t] * (1.0 - i[t])),
                                     dc_new * (c_prev[t] * f[t] * (1.0 - f[t])),
                                     dc_new * (i[t] * (1.0 - gg[t] * gg[t])),
                                     dh_new * (tanh_c[t] * o[t] * (1.0 - o[t]))], axis=1)
        dh = d_gates[t] @ w_rec.T + dh_t * (1.0 - on[t])
        dc = dc_new * f[t] + dc * (1.0 - on[t])
    d_gates = d_gates.reshape(t_max * b, 4 * hid)
    return (states.reshape(t_max * b, hid), d_gates @ w_in.T, x.T @ d_gates,
            h_prev.reshape(-1, hid).T @ d_gates, d_gates.sum(axis=0))


class TestLstmStep:
    """The LSTM step recurrence as `lstm_scan` runs it."""

    def test_all_zero_params(self):
        z = ad.constant
        mask = np.ones((2, 3))
        cell = (z(np.zeros((3, 8))), z(np.zeros((2, 8))), z(np.zeros(8)))
        states = ad.lstm_scan(z(np.zeros((6, 3))), [cell], mask, (False,))
        np.testing.assert_array_equal(states.data, np.zeros((6, 2)))

    def test_shape_contract(self, rng):
        mask = _mask(4, 2, 3)
        arrays = _scan_inputs(rng, mask, context_dim=2)
        states = _scan([ad.constant(a) for a in arrays], mask, (False,),
                       context=ad.constant(arrays[4]))
        assert states.data.shape == (4 * 3, 2)

    def test_matches_scalar_reference(self, rng):
        for reverse in (False, True):
            mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
            arrays = _scan_inputs(rng, mask, d=4, hid=3)
            states = _scan([ad.constant(a) for a in arrays], mask, (reverse,))
            ref = _chained_reference(*arrays[:1], mask, *arrays[1:], reverse)
            assert np.max(np.abs(states.data - ref)) < 1e-12

    def test_stacked_directions_match_scalar_reference(self, rng):
        # padded rows and a dead step inside a row, both directions in one scan
        mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
        arrays = _scan_inputs(rng, mask, d=4, hid=3, k=2)
        states = _scan([ad.constant(a) for a in arrays], mask, (False, True))
        for j, reverse in enumerate((False, True)):
            ref = _chained_reference(arrays[0], mask, *arrays[1 + 3 * j:4 + 3 * j], reverse)
            assert np.max(np.abs(states.data[:, 3 * j:3 * j + 3] - ref)) < 1e-12

    @pytest.mark.parametrize("reverse, context_dim", [((False, True), 0), ((False,), 2)])
    def test_stacked_scan_equals_two_d_products_bit_for_bit(self, rng, reverse, context_dim):
        # every direction's states and gradients are the bits of 2-D `@` products
        mask = _mask(5, 2, 4, 1, 5, 3, 3, 2)
        mask[2, 1] = 0.0
        k, hid = len(reverse), 4
        arrays = _scan_inputs(rng, mask, d=6, hid=hid, context_dim=context_dim, k=k)
        g = rng.normal(size=(arrays[0].shape[0], k * hid))
        leaves = [ad.leaf(a) for a in arrays]
        context = leaves[-1] if context_dim else None
        states = _scan(leaves, mask, reverse, context)
        ad.backward(ad.tsum(ad.mul(states, ad.constant(g))))
        x = arrays[0]
        if context_dim:
            steps_ctx = np.broadcast_to(arrays[-1], (mask.shape[1],) + arrays[-1].shape)
            x = np.concatenate([x.reshape(mask.shape[1], mask.shape[0], -1), steps_ctx],
                               axis=2).reshape(x.shape[0], -1)
        d_x = 0.0
        for j, rev in enumerate(reverse):
            cell = arrays[1 + 3 * j:4 + 3 * j]
            ref_states, ref_d_x, *ref_d_cell = _two_d_reference(
                x, mask, *cell, rev, g[:, j * hid:(j + 1) * hid])
            np.testing.assert_array_equal(states.data[:, j * hid:(j + 1) * hid], ref_states)
            for leaf, ref in zip(leaves[1 + 3 * j:4 + 3 * j], ref_d_cell):
                np.testing.assert_array_equal(leaf.grad, ref)
            d_x = d_x + ref_d_x
        np.testing.assert_array_equal(leaves[0].grad, d_x[:, :6])
        if context_dim:
            np.testing.assert_array_equal(
                context.grad, d_x[:, 6:].reshape(mask.shape[1], mask.shape[0], -1).sum(axis=0))

    @pytest.mark.parametrize("reverse, mask, context_dim", [
        ((False,), _mask(3, 1, 2), 0),
        ((False, True), np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]]), 0),
        ((True, False), _mask(5, 2, 4, 1, 3), 0),
        ((False,), _mask(2, 4, 1), 3),
        ((False, True), _mask(4), 0),
        ((True, False), _mask(3, 3, 3, 3), 0),
    ], ids=["padded", "gapped", "stacked", "context", "one_unpadded_row", "unpadded_batch"])
    def test_inference_states_equal_training_states_bit_for_bit(self, rng, reverse, mask,
                                                                 context_dim):
        # inference runs `lstm_steps` without a cache, reusing one row of gate
        # buffers, and without a mask when no step is padded
        k = len(reverse)
        arrays = [a.astype(ad.DTYPE) for a in
                  _scan_inputs(rng, mask, d=5, hid=4, context_dim=context_dim, k=k)]
        w_in, w_rec, bias = (np.array(arrays[1 + n:1 + 3 * k:3]) for n in range(3))
        context = arrays[-1] if context_dim else None
        trained, cache = ad.lstm_scan_forward(arrays[0], w_in, w_rec, bias, mask, reverse,
                                              context)
        b, t_max = mask.shape
        x = arrays[0].reshape(t_max, b, -1)
        if context_dim:
            x = np.concatenate([x, np.broadcast_to(context, (t_max, b, context_dim))], axis=2)
        unpadded = bool(mask.all())
        hs, dead, kept = ad.lstm_steps(x, ad.halve_gates(w_in, w_rec, bias, ad.DTYPE),
                                       None if unpadded else mask, reverse)
        assert kept is None and (dead is None) == unpadded
        inferred = np.empty((t_max, b, k, 4), dtype=hs.dtype)
        for j, rev in enumerate(reverse):
            inferred[:, :, j] = hs[1:, j][::-1 if rev else 1]
        assert inferred.dtype == trained.dtype == ad.DTYPE
        assert inferred.tobytes() == trained.tobytes()

    def test_inconsistent_params_rejected(self):
        z = ad.constant
        with pytest.raises(ValueError, match="LSTM"):
            ad.lstm_scan(z(np.zeros((2, 3))), [(z(np.zeros((3, 6))), z(np.zeros((2, 8))),
                                                z(np.zeros(8)))], np.ones((1, 2)), (False,))

    def test_one_flag_per_direction(self):
        z = ad.constant
        cell = (z(np.zeros((3, 8))), z(np.zeros((2, 8))), z(np.zeros(8)))
        with pytest.raises(ValueError, match="direction flags"):
            ad.lstm_scan(z(np.zeros((2, 3))), [cell, cell], np.ones((1, 2)), (False,))


class TestGatherScatter:
    """`gather_rows`' backward scatter-adds as one flat `np.add.at` over
    id·width + column; it must give the bytes of a 2-D `np.add.at` over rows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_flat_scatter_equals_two_d_add_at_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(300):
            vocab, width, n = (int(rng.integers(1, hi)) for hi in (12, 9, 48))
            ids = rng.integers(0, vocab, size=n)  # repeated ids
            ids[rng.random(n) < 0.3] = 0  # the padding id, read by every padded step
            g = rng.normal(size=(n, width)).astype(dtype)
            g[rng.random(g.shape) < 0.15] = 0.0
            g[rng.random(g.shape) < 0.15] = -0.0
            g[ids == 0] *= rng.random() < 0.5  # PAD rows of only zeros or of values
            table = ad.leaf(rng.normal(size=(vocab, width)).astype(dtype))
            rows = ad.gather_rows(table, ids)
            ad.backward(ad.tsum(ad.mul(rows, ad.constant(g))))  # upstream gradient g
            want = np.zeros((vocab, width), dtype=dtype)
            np.add.at(want, ids, g)
            assert table.grad.dtype == want.dtype
            assert table.grad.tobytes() == want.tobytes()

    def test_signed_zeros_scatter_as_two_d_add_at(self):
        ids = np.array([1, 1, 0, 2])
        g = np.array([[-0.0, 0.0], [-0.0, -0.0], [-0.0, 1.0], [0.0, -0.0]])
        table = ad.leaf(np.ones((3, 2)))
        ad.backward(ad.tsum(ad.mul(ad.gather_rows(table, ids), ad.constant(g))))
        want = np.zeros((3, 2))
        np.add.at(want, ids, g)
        assert table.grad.tobytes() == want.tobytes()


def _inference_pool(states, mask, reverse=(False,)):
    """`ad.maxpool_forward` of time-major (T*B, k*H) states, laid out in loop
    order as `lstm_steps` makes them: no dead mask when no step is padded."""
    b, t_max = mask.shape
    k = len(reverse)
    steps = states.reshape(t_max, b, k, -1).swapaxes(1, 2)
    dead_steps = np.broadcast_to((mask.T == 0)[:, None, :, None], steps.shape)
    loop_order = [slice(None, None, -1 if rev else 1) for rev in reverse]
    hs = np.stack([steps[order, j] for j, order in enumerate(loop_order)], axis=1)
    dead = None if mask.all() else np.stack(
        [dead_steps[order, j] for j, order in enumerate(loop_order)], axis=1)
    return ad.maxpool_forward(hs, dead, reverse)


class TestMaskedMaxpool:
    def test_ties_go_to_earliest_timestep(self):
        # row 0 ties at steps 0 and 2; row 1's largest value sits on a padded step
        states = ad.leaf(np.array([[5.0], [1.0], [2.0], [3.0], [5.0], [9.0]]))
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=float)
        pooled = ad.masked_maxpool(states, mask)
        np.testing.assert_array_equal(pooled.data, [[5.0], [3.0]])
        ad.backward(ad.tsum(pooled))
        np.testing.assert_array_equal(states.grad, [[1.0], [0.0], [0.0], [1.0], [0.0], [0.0]])

    def test_signed_zero_maximum_comes_from_the_earliest_step(self):
        # -0.0 and 0.0 tie; the earliest live zero wins, sign included
        states = np.array([[-0.0], [0.0], [0.0], [-0.0], [-1.0], [-2.0]])
        pooled = _inference_pool(states, np.ones((2, 3)))
        np.testing.assert_array_equal(np.signbit(pooled[:, 0]), [True, False])

    def test_training_pool_signed_zero_comes_from_the_earliest_step(self):
        states = ad.leaf(np.array([[-0.0], [0.0], [0.0], [-0.0], [-1.0], [-2.0]]))
        pooled = ad.masked_maxpool(states, np.ones((2, 3)))
        np.testing.assert_array_equal(np.signbit(pooled.data[:, 0]), [True, False])
        ad.backward(ad.tsum(pooled))
        np.testing.assert_array_equal(states.grad, [[1.0], [1.0], [0.0], [0.0], [0.0], [0.0]])

    @pytest.mark.parametrize("zeros, mask", [
        (0.0, np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=float)),
        (0.3, np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=float)),
        (0.0, np.ones((3, 4))), (0.3, np.ones((3, 4))),
        (0.0, np.ones((1, 4))), (0.3, np.ones((1, 4))),
    ], ids=["no_zeros", "zeros", "unpadded_batch", "unpadded_batch_zeros", "one_unpadded_row",
            "one_unpadded_row_zeros"])
    def test_training_pool_equals_inference_pool_bit_for_bit(self, rng, zeros, mask):
        # padded and unpadded batches, with and without signed-zero maxima
        b, t_max = mask.shape
        states = rng.normal(size=(t_max * b, 10)).astype(np.float32)
        states[rng.random(states.shape) < zeros / 2] = 0.0
        states[rng.random(states.shape) < zeros / 2] = -0.0
        if zeros:  # in each direction, a maximum that is -0.0 first in time and 0.0 last
            states[:, [0, 5]] = -1.0
            states[b - 1::b, 0] = states[b - 1::b, 5] = [-0.0, 0.0, -0.0, 0.0]
        pooled = ad.masked_maxpool(ad.constant(states), mask).data
        inferred = _inference_pool(states, mask, (False, True))
        assert pooled.tobytes() == inferred.tobytes()
        if zeros:  # the earliest step wins in the reverse direction too
            assert np.signbit(pooled[b - 1, [0, 5]]).all()

    def test_forward_matches_numpy_max_over_live_steps(self, rng):
        mask = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=float)
        states = rng.normal(size=(4 * 3, 5))
        pooled = _inference_pool(states, mask)
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
        z, targets = rng.normal(size=(2, 3)), np.array([2, 0])
        shifted = ad.leaf(z + 7.0)
        loss = ad.softmax_cross_entropy_sum(shifted, targets)
        ad.backward(loss)
        base = ad.leaf(z)
        ad.backward(ad.softmax_cross_entropy_sum(base, targets))
        np.testing.assert_allclose(loss.data, ad.softmax_cross_entropy_sum(ad.constant(z), targets).data,
                                   atol=1e-12)
        np.testing.assert_allclose(shifted.grad, base.grad, atol=1e-12)

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
