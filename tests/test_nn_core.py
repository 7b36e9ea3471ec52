import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from pillarseg import nn, verification
from pillarseg.errors import ShapeError, VerificationError
from pillarseg.nn import tensor as T


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def check_op(f, x, tol=1e-7, eps=1e-5):
    err = nn.grad_check(f, x, eps=eps)
    assert err < tol, f"grad error {err}"


@contextmanager
def default_dtype(dtype):
    T.set_default_dtype(dtype)
    try:
        yield
    finally:
        T.set_default_dtype(np.float64)


def taped_run(op, inputs, weights, seed, linear=True):
    """Output of `op` and the gradients of every input, for the loss
    sum(op(*inputs) * weights) plus, if `linear`, a random linear term per
    input. Those terms are recorded after `op`, so its backward adds to
    gradients already there, which exposes the order in which it adds its own
    terms. Without them the op's gradient is the input's whole gradient, so
    the sign of each zero it writes shows too."""
    rng = np.random.default_rng(seed)
    params = [T.parameter(a) for a in inputs]
    with T.Tape() as tape:
        out = op(*params)
        loss = T.tsum(T.mul(out, T.constant(weights)))
        for p in params if linear else []:
            loss = T.add(loss, T.tsum(T.mul(p, T.constant(rng.normal(size=p.data.shape)))))
        tape.backward(loss)
    return [out.data] + [p.grad for p in params]


def signed_zero_weights(rng, shape):
    """Normal loss weights, about a third of them +0.0 or -0.0, so that a
    backward receives zero gradients of both signs."""
    zeros = rng.choice(np.array([0.0, -0.0]), size=shape)
    return np.where(rng.random(shape) < 1 / 3, zeros, rng.normal(size=shape))


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), f"max abs diff {np.abs(a - b).max()}"


def sample(rng, shape, kind):
    """Generic normals, small integers (ties), signed zeros, -inf and ones, or
    those with +inf and NaN."""
    if kind == "normal":
        return rng.normal(size=shape) * 2.0
    if kind == "integer":
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "special":
        return rng.choice(np.array([0.0, -0.0, -np.inf, 1.0]), size=shape)
    return rng.choice(np.array([0.0, -0.0, -np.inf, np.inf, np.nan, 1.0]), size=shape)


POOL_KINDS = st.sampled_from(["normal", "integer", "special", "nonfinite"])


def kinked_case(op, rng, n, width):
    """An integer-valued input for the kinked op `op`, the op on a tensor, and
    its oracle kink margin on an array of that input's shape."""
    if op == "relu":
        return sample(rng, (n, width), "integer"), T.relu, lambda v: float(np.abs(v).min())
    if op == "segment_max":
        segments = int(rng.integers(1, n + 1))
        seg = rng.integers(0, segments, n)
        return (sample(rng, (n, width), "integer"), lambda t: T.segment_max(t, seg, segments),
                lambda v: oracles.runner_up_gap([v[seg == s] for s in range(segments)]))
    if op == "masked_max_pool":
        slots = int(rng.integers(1, 7))
        mask = rng.random((n, slots)) < rng.random((n, 1))
        mask[rng.integers(n), rng.integers(slots)] = True  # at least one row
        pillar = np.nonzero(mask)[0]
        return (sample(rng, (len(pillar), width), "integer"),
                lambda t: T.masked_max_pool(t, mask),
                lambda v: oracles.runner_up_gap([v[pillar == i] for i in range(n)]))
    h, w = 2 * rng.integers(1, 4, 2)
    return sample(rng, (width, h, w), "integer"), T.maxpool2d, oracles.maxpool2d_kink_margin


class TestElementwiseGrads:
    def test_add_mul_broadcast(self, rng):
        b = T.constant(rng.normal(size=(1, 4)))
        check_op(lambda x: T.tsum(T.mul(T.add(x, b), x)), rng.normal(size=(3, 4)))

    def test_sigmoid_grad(self, rng):
        check_op(lambda x: T.tsum(T.sigmoid(x)), rng.normal(size=(5,)))

    def test_relu_away_from_kink(self, rng):
        x = rng.normal(size=(8,))
        x[np.abs(x) < 0.1] = 0.5
        check_op(lambda t: T.tsum(T.relu(t)), x)

    def test_sum_axes_and_mean(self, rng):
        check_op(lambda x: T.tsum(T.tsum(x, axis=1)), rng.normal(size=(3, 4)))
        # the mean over axis 0 as the model would take it: a sum times 1 / count
        check_op(lambda x: T.tsum(T.mul(T.tsum(x, axis=0), 1.0 / 3)), rng.normal(size=(3, 4)))

    def test_log_softmax_grads(self, rng):
        w = T.constant(rng.normal(size=(3, 4)))
        check_op(lambda x: T.tsum(T.mul(T.log_softmax(x, axis=1), w)), rng.normal(size=(3, 4)))

    def test_sigmoid_strictly_inside_unit_interval(self, rng):
        s = T.sigmoid(T.constant(rng.normal(size=100) * 3)).data
        assert (s > 0).all() and (s < 1).all()


class TestShapeOps:
    def test_reshape_transpose_concat(self, rng):
        w = T.constant(rng.normal(size=(4, 6)))

        def f(x):
            y = T.reshape(x, (4, 6))
            z = T.transpose(y, (1, 0))
            return T.tsum(T.mul(T.concat([y, T.transpose(z, (1, 0))], axis=1),
                                T.concat([w, w], axis=1)))

        check_op(f, rng.normal(size=(24,)))

    def test_narrow(self, rng):
        check_op(lambda x: T.tsum(T.narrow(x, 1, 1, 2)), rng.normal(size=(3, 5)))

    def test_broadcast_middle(self, rng):
        check_op(lambda x: T.tsum(oracles.broadcast_middle(x, 4)), rng.normal(size=(3, 2)))

    def test_gather_rows_with_repeats(self, rng):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda x: T.tsum(T.gather_rows(x, idx)), rng.normal(size=(3, 4)))

    def test_segment_max_values_and_grad(self, rng):
        seg = np.array([0, 0, 1, 1, 1])
        x = rng.normal(size=(5, 3))
        out = T.segment_max(T.constant(x), seg, 3)
        np.testing.assert_array_equal(out.data[0], x[:2].max(axis=0))
        np.testing.assert_array_equal(out.data[1], x[2:].max(axis=0))
        np.testing.assert_array_equal(out.data[2], 0.0)
        check_op(lambda t: T.tsum(T.segment_max(t, seg, 3)), x)

    def test_segment_max_empty_input(self):
        x = T.parameter(np.zeros((0, 3)))
        with T.Tape() as tape:
            out = T.segment_max(x, np.zeros(0, dtype=np.int64), 2)
            tape.backward(T.tsum(out))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))
        assert x.grad.shape == (0, 3)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf inputs in the loss
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(n=st.integers(1, 30), width=st.integers(1, 5), segments=st.integers(1, 12),
           used=st.integers(1, 12), kind=POOL_KINDS, seed=st.integers(0, 2**32 - 1))
    @example(n=27, width=3, segments=4, used=1, kind="integer", seed=3)  # one 27-row segment
    def test_segment_max_matches_loop_oracle(self, dtype, n, width, segments, used, kind, seed):
        # ids drawn from a random subset of the segments, unsorted: some stay empty
        rng = np.random.default_rng(seed)
        ids = rng.choice(segments, size=min(used, segments), replace=False)
        seg = ids[rng.integers(0, len(ids), n)]
        x = sample(rng, (n, width), kind)
        weights = rng.normal(size=(segments, width))
        with default_dtype(dtype):
            got = taped_run(lambda t: T.segment_max(t, seg, segments), [x], weights, seed)
            want = taped_run(lambda t: oracles.segment_max(t, seg, segments), [x], weights, seed)
        assert_bitwise(got, want)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf inputs in the loss
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(pillars=st.integers(1, 8), slots=st.integers(1, 24), width=st.integers(1, 4),
           kind=POOL_KINDS, seed=st.integers(0, 2**32 - 1))
    @example(pillars=3, slots=22, width=2, kind="integer", seed=3)  # 20 and 22 kept slots
    def test_masked_max_pool_matches_loop_oracle(self, dtype, pillars, slots, width, kind, seed):
        # arbitrary masks: each pillar keeps its slots at its own random rate,
        # so some keep none and many drop slot 0. The op pools the kept
        # slots' rows: its forward is the dense loop oracle's on the padded
        # tensor, and its gradient the segment max's over each row's pillar
        rng = np.random.default_rng(seed)
        mask = rng.random((pillars, slots)) < rng.random((pillars, 1))
        x = sample(rng, (pillars, slots, width), kind)
        seg = np.nonzero(mask)[0]
        weights = rng.normal(size=(pillars, width))
        with default_dtype(dtype):
            got = taped_run(lambda t: T.masked_max_pool(t, mask), [x[mask]], weights, seed)
            want = taped_run(lambda t: oracles.segment_max(t, seg, pillars), [x[mask]], weights,
                             seed)
            dense = oracles.masked_max_pool(T.constant(x), mask).data
        assert_bitwise(got, want)
        assert_bitwise(got[:1], [dense])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf inputs in the loss
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(n=st.integers(1, 30), width=st.integers(1, 5), segments=st.integers(1, 12),
           kind=POOL_KINDS, seed=st.integers(0, 2**32 - 1))
    def test_segment_max_gradient_bits_through_op_alone(self, dtype, n, width, segments, kind,
                                                        seed):
        # the loss reaches x only through the op, and some output gradients
        # are -0.0: the op's backward adds them to zeros, so they read +0.0
        rng = np.random.default_rng(seed)
        seg = rng.integers(0, segments, n)
        x = sample(rng, (n, width), kind)
        weights = signed_zero_weights(rng, (segments, width))
        with default_dtype(dtype):
            got = taped_run(lambda t: T.segment_max(t, seg, segments), [x], weights, seed,
                            linear=False)
            want = taped_run(lambda t: oracles.segment_max(t, seg, segments), [x], weights, seed,
                             linear=False)
        assert_bitwise(got, want)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf inputs in the loss
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(pillars=st.integers(1, 8), slots=st.integers(1, 24), width=st.integers(1, 4),
           kind=POOL_KINDS, seed=st.integers(0, 2**32 - 1))
    def test_masked_max_pool_gradient_bits_through_op_alone(self, dtype, pillars, slots, width,
                                                            kind, seed):
        # the loss reaches the rows only through the op: as in segment_max, a
        # -0.0 output gradient is added to zeros and lands as +0.0
        rng = np.random.default_rng(seed)
        mask = rng.random((pillars, slots)) < rng.random((pillars, 1))
        x = sample(rng, (int(mask.sum()), width), kind)
        seg = np.nonzero(mask)[0]
        weights = signed_zero_weights(rng, (pillars, width))
        with default_dtype(dtype):
            got = taped_run(lambda t: T.masked_max_pool(t, mask), [x], weights, seed,
                            linear=False)
            want = taped_run(lambda t: oracles.segment_max(t, seg, pillars), [x], weights, seed,
                             linear=False)
        assert_bitwise(got, want)

    def test_masked_max_pool_reads_only_kept_slots(self):
        # the rows are the kept slots in slot order: pillar 0 keeps only its
        # slot 1, so its one row, -inf, is its max, and the 5.0 of pillar 1's
        # slot 0 takes pillar 1's gradient
        x = T.parameter(np.array([[-np.inf], [5.0], [1.0]]))
        with T.Tape() as tape:
            out = T.masked_max_pool(x, np.array([[False, True], [True, True]]))
            tape.backward(T.tsum(out))
        assert out.data.tolist() == [[-np.inf], [5.0]]
        assert x.grad.tolist() == [[1.0], [1.0], [0.0]]

    def test_masked_max_pool_rejects_row_count(self):
        # one row per kept slot: a mismatch is a ShapeError, not an index error
        with pytest.raises(ShapeError, match="3 segment ids for 2 rows"):
            T.masked_max_pool(T.constant(np.zeros((2, 4))), np.ones((1, 3), dtype=bool))

    def test_masked_max_pool(self, rng):
        mask = np.array([[True, True, False], [True, False, False], [False, False, False]])
        x = rng.normal(size=(3, 3, 4))
        out = T.masked_max_pool(T.constant(x[mask]), mask)
        np.testing.assert_array_equal(out.data[0], x[0, :2].max(axis=0))
        np.testing.assert_array_equal(out.data[1], x[1, 0])
        np.testing.assert_array_equal(out.data[2], 0.0)
        check_op(lambda t: T.tsum(T.masked_max_pool(t, mask)), x[mask])

    def test_scatter_to_image(self, rng):
        rows, cols = np.array([0, 2]), np.array([1, 3])
        x = rng.normal(size=(2, 5))
        img = T.scatter_to_image(T.constant(x), rows, cols, 4, 4)
        np.testing.assert_array_equal(img.data[:, 0, 1], x[0])
        np.testing.assert_array_equal(img.data[:, 2, 3], x[1])
        assert np.count_nonzero(img.data) == 10
        check_op(lambda t: T.tsum(T.scatter_to_image(t, rows, cols, 4, 4)), x)


class TestMatmulAffine:
    def test_matmul_against_triple_loop(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        naive = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    naive[i, j] += a[i, k] * b[k, j]
        out = T.matmul(T.constant(a), T.constant(b)).data
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_affine_identity(self, rng):
        layer = nn.Affine(3, 3, rng)
        layer.weight.data = np.eye(3)
        layer.bias.data = np.zeros(3)
        x = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(layer(T.constant(x)).data, x)

    def test_affine_zero_input_gives_bias(self, rng):
        layer = nn.Affine(3, 2, rng)
        out = layer(T.constant(np.zeros((5, 3)))).data
        np.testing.assert_allclose(out, np.broadcast_to(layer.bias.data, (5, 2)), atol=1e-15)

    def test_affine_shape_error_names_shapes(self, rng):
        layer = nn.Affine(3, 2, rng)
        with pytest.raises(ShapeError, match=r"\(4, 5\)") as exc:
            layer(T.constant(np.zeros((4, 5))))
        assert "(3, 2)" in str(exc.value)

    def test_affine_grads_linear_exact(self, rng):
        # central differences are exact for a linear map, so a wide step
        # removes the floating-point cancellation noise
        layer = nn.Affine(3, 2, rng)
        err = nn.grad_check(lambda x: T.tsum(layer(x)), rng.normal(size=(4, 3)), eps=1e-3)
        assert err < 1e-10

    def test_matmul_grads(self, rng):
        b = T.constant(rng.normal(size=(4, 3)))
        check_op(lambda x: T.tsum(T.matmul(x, b)), rng.normal(size=(2, 4)))
        a = T.constant(rng.normal(size=(2, 4)))
        check_op(lambda x: T.tsum(T.matmul(a, x)), rng.normal(size=(4, 3)))

    def test_batched_matmul_grads(self, rng):
        b = T.constant(rng.normal(size=(5, 3, 2)))
        check_op(lambda x: T.tsum(T.matmul(x, b)), rng.normal(size=(5, 4, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_warns_on_the_nan_it_makes(self, dtype):
        # the product's result decides, not the invalid flag: inf * 0 makes
        # a NaN and warns as numpy does, a NaN operand passes on quietly
        b = np.array([[0.0], [1.0]])
        with default_dtype(dtype):
            with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
                out = T.matmul(np.array([[np.inf, 1.0]]), b).data
            assert out.dtype == dtype and np.isnan(out).all()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isnan(T.matmul(np.array([[np.nan, 1.0]]), b).data).all()
                assert T.matmul(np.array([[np.inf, 1.0]]), b[::-1]).data[0, 0] == np.inf


class TestBatchNorm:
    def test_constant_channel_gives_beta(self, rng):
        bn = nn.BatchNorm(3)
        bn.beta.data = np.array([1.0, -2.0, 0.5])
        x = np.tile([4.0, 5.0, 6.0], (7, 1))
        out = bn(T.constant(x), training=True)
        np.testing.assert_allclose(out.data, np.tile(bn.beta.data, (7, 1)), atol=1e-6)

    def test_prenormalized_passthrough(self, rng):
        bn = nn.BatchNorm(4)
        x = rng.normal(size=(2000, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = bn(T.constant(x), training=True)
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + T.BN_EPS), atol=1e-6)

    def test_matches_direct_formula(self, rng):
        bn = nn.BatchNorm(3)
        bn.gamma.data = rng.normal(size=3)
        bn.beta.data = rng.normal(size=3)
        x = rng.normal(size=(11, 3)) * 2 + 1
        out = bn(T.constant(x), training=True)
        expected = bn.gamma.data * (x - x.mean(0)) / np.sqrt(x.var(0) + T.BN_EPS) + bn.beta.data
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_running_stats_and_infer_mode(self, rng):
        bn = nn.BatchNorm(2)
        x = rng.normal(size=(64, 2)) + 3.0
        bn(T.constant(x), training=True)
        m = T.BN_MOMENTUM
        np.testing.assert_allclose(bn.running_mean, (1 - m) * x.mean(0), atol=1e-12)
        np.testing.assert_allclose(bn.running_var, m + (1 - m) * x.var(0), atol=1e-12)
        y = bn(T.constant(x), training=False)
        expected = (x - bn.running_mean) / np.sqrt(bn.running_var + T.BN_EPS)
        np.testing.assert_allclose(y.data, expected, atol=1e-10)

    def test_zero_batch_errors(self):
        bn = nn.BatchNorm(2)
        with pytest.raises(ShapeError):
            bn(T.constant(np.zeros((0, 2))), training=True)

    def test_train_grad(self, rng):
        bn = nn.BatchNorm(3)
        bn.gamma.data = rng.normal(size=3)
        bn.beta.data = rng.normal(size=3)
        w = T.constant(rng.normal(size=(6, 3)))
        check_op(lambda x: T.tsum(T.mul(bn(x, training=True), w)), rng.normal(size=(6, 3)),
                 tol=1e-6)

    def test_param_grads(self, rng):
        bn = nn.BatchNorm(3)
        x = T.constant(rng.normal(size=(6, 3)))
        w = T.constant(rng.normal(size=(6, 3)))

        def f(gamma):
            saved = bn.gamma
            bn.gamma = gamma
            out = T.tsum(T.mul(bn(x, training=True), w))
            bn.gamma = saved
            return out

        g = T.Tensor(bn.gamma.data.copy(), requires_grad=True)
        assert nn.grad_check(f, g) < 1e-6

    def test_channel_axis_zero_image(self, rng):
        bn = nn.BatchNorm(2, channel_axis=0)
        x = rng.normal(size=(2, 4, 4))
        out = bn(T.constant(x), training=True)
        np.testing.assert_allclose(out.data.mean(axis=(1, 2)), 0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(image=st.booleans(), training=st.booleans(), linear=st.booleans(),
           dims=st.tuples(st.integers(1, 5), st.integers(1, 9), st.integers(1, 9)),
           seed=st.integers(0, 2**32 - 1))
    @example(image=False, training=True, linear=False, dims=(3, 7, 9), seed=0)
    @example(image=True, training=True, linear=False, dims=(2, 5, 7), seed=1)
    @example(image=True, training=False, linear=True, dims=(4, 3, 3), seed=2)
    def test_matches_direct_formula_oracle_bitwise(self, dtype, image, training, linear, dims,
                                                   seed):
        # (V, C) rows or a (C, H, W) image. Most counts V and H x W are not
        # powers of two: there (xhat * s) / n and xhat * (s / n) round apart
        rng = np.random.default_rng(seed)
        c, a, b = dims
        shape, axis = ((c, a, b), 0) if image else ((a * b, c), -1)
        x = rng.normal(size=shape) * rng.uniform(0.1, 10.0) + rng.normal()
        inputs = [x, rng.normal(size=c), rng.normal(size=c)]
        stats = [rng.normal(size=c), rng.uniform(0.1, 3.0, c)]
        weights = signed_zero_weights(rng, shape)
        results = []
        with default_dtype(dtype):
            for op in (T.batch_norm, oracles.batch_norm):
                running = [s.copy() for s in stats]
                grads = taped_run(lambda *t: op(*t, *running, training, axis), inputs, weights,
                                  seed, linear=linear)
                results.append(grads + running)
        assert_bitwise(*results)


def scalar_lstm_oracle(x, w_ih, w_hh, b, reverse=False):
    """Step-by-step scalar-loop LSTM, independent of the fused op."""
    t_len, cin = x.shape
    hidden = w_hh.shape[0]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.zeros((t_len, hidden))
    steps = reversed(range(t_len)) if reverse else range(t_len)
    for t in steps:
        z = np.zeros(4 * hidden)
        for j in range(4 * hidden):
            acc = b[j]
            for k in range(cin):
                acc += x[t, k] * w_ih[k, j]
            for k in range(hidden):
                acc += h[k] * w_hh[k, j]
            z[j] = acc
        # gate packing: input, forget, output, candidate
        i = sig(z[:hidden])
        f = sig(z[hidden:2 * hidden])
        o = sig(z[2 * hidden:3 * hidden])
        g = np.tanh(z[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


class TestLSTM:
    def test_zero_parameters_give_zero_output(self):
        x = T.constant(np.random.default_rng(1).normal(size=(4, 3)))
        zeros = T.constant
        out = T.lstm(x, zeros(np.zeros((3, 8))), zeros(np.zeros((2, 8))), zeros(np.zeros(8)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matches_scalar_oracle(self, rng):
        cin, hidden = 3, 2
        x = rng.normal(size=(3, cin))
        w_ih = rng.normal(size=(cin, 4 * hidden))
        w_hh = rng.normal(size=(hidden, 4 * hidden))
        b = rng.normal(size=4 * hidden)
        fused = T.lstm(T.constant(x), T.constant(w_ih), T.constant(w_hh), T.constant(b)).data
        np.testing.assert_allclose(fused[:, :hidden],
                                   scalar_lstm_oracle(x, w_ih, w_hh, b, reverse=False), atol=1e-10)
        np.testing.assert_allclose(fused[:, hidden:],
                                   scalar_lstm_oracle(x, w_ih, w_hh, b, reverse=True), atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t_len", [1, 2, 9])
    @given(cin=st.integers(1, 5), hidden=st.integers(1, 5),
           kind=st.sampled_from(["normal", "integer"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_two_direction_oracle(self, dtype, t_len, cin, hidden, kind, seed):
        rng = np.random.default_rng(seed)
        inputs = [sample(rng, shape, kind) * 0.5 for shape in
                  ((t_len, cin), (cin, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))]
        weights = rng.normal(size=(t_len, 2 * hidden))
        with default_dtype(dtype):
            got = taped_run(T.lstm, inputs, weights, seed)
            want = taped_run(oracles.bilstm, inputs, weights, seed)
        assert_bitwise(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=5),
           cin=st.integers(1, 5), hidden=st.integers(1, 5),
           kind=st.sampled_from(["normal", "integer"]), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[300, 0, 257], cin=10, hidden=16, kind="normal", seed=6)
    def test_ragged_chunk_matches_per_sequence_oracle(self, dtype, lengths, cin, hidden, kind,
                                                      seed):
        # one time loop over a chunk of sequences, shorter ones zero-padded:
        # each sequence's output is bitwise its own run. The oracle's one tape
        # adds the sequences' gradient terms last sequence first, the op first
        # sequence first, so they agree to rounding, within 1e-5 (f32) or
        # 1e-12 (f64) of the largest gradient
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        inputs = [sample(rng, shape, kind) * 0.5 for shape in
                  ((n, cin), (cin, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))]
        weights = rng.normal(size=(n, 2 * hidden))
        with default_dtype(dtype):
            got = taped_run(lambda *a: T.lstm(*a, lengths=lengths), inputs, weights, seed)
            want = taped_run(lambda *a: oracles.bilstm(*a, lengths=lengths), inputs, weights,
                             seed)
        assert_bitwise(got[:1], want[:1])
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=tol * np.abs(w).max(initial=1.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any),
           cin=st.integers(1, 5), hidden=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[1, 7, 0, 3], cin=10, hidden=16, seed=3)
    def test_chunk_gradients_are_in_order_sums_of_single_runs(self, dtype, lengths, cin, hidden,
                                                              seed):
        # a chunk's gradients are bitwise those of its sequences run one by
        # one, each on its own tape, in chunk order: the order in which a
        # training batch's frames differentiate their share of the batch's
        # one LSTM call. A zero-length sequence gets no run.
        rng = np.random.default_rng(seed)
        shapes = ((cin, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
        weights = [sample(rng, shape, "normal") * 0.5 for shape in shapes]
        xs = [sample(rng, (k, cin), "normal") * 0.5 for k in lengths]
        loss_weights = [rng.normal(size=(k, 2 * hidden)) for k in lengths]

        def grads(chunks):
            with default_dtype(dtype):
                params = [T.parameter(w) for w in weights]
                inputs = [T.parameter(x) for x in xs]
                for chunk in chunks:
                    with T.Tape() as tape:
                        out = T.lstm(T.concat([inputs[i] for i in chunk], axis=0), *params,
                                     lengths=[lengths[i] for i in chunk])
                        w = np.concatenate([loss_weights[i] for i in chunk])
                        tape.backward(T.tsum(T.mul(out, T.constant(w))))
            return [p.grad for p in params] + [x.grad for x, k in zip(inputs, lengths) if k]

        got = grads([range(len(lengths))])
        want = grads([[i] for i, k in enumerate(lengths) if k])
        assert_bitwise(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_toy_size_sequence_matches_oracle_bitwise(self, dtype):
        # the toy model's LSTM size (10 channels, H = 16) over 400 steps, a
        # sequence length beyond the property's parameters
        self.test_matches_two_direction_oracle.hypothesis.inner_test(
            self, dtype, t_len=400, cin=10, hidden=16, kind="normal", seed=5)

    def test_lengths_must_split_rows(self):
        x, w_ih, w_hh, b = (T.constant(np.zeros(s)) for s in ((4, 3), (3, 8), (2, 8), (8,)))
        for lengths in ([3], [2, 3], [5, -1], []):
            with pytest.raises(ShapeError):
                T.lstm(x, w_ih, w_hh, b, lengths=lengths)

    def test_bilstm_single_step_halves_equal(self, rng):
        layer = nn.BiLSTM(3, 4, rng)
        out = layer([T.constant(rng.normal(size=(1, 3)))]).data
        np.testing.assert_array_equal(out[0, :4], out[0, 4:])

    def test_bilstm_shape(self, rng):
        layer = nn.BiLSTM(3, 4, rng)
        assert layer([T.constant(rng.normal(size=(5, 3)))]).data.shape == (5, 8)

    def test_lstm_input_grad(self, rng):
        layer = nn.BiLSTM(3, 2, rng)
        check_op(lambda x: T.tsum(layer([x])), rng.normal(size=(4, 3)), tol=1e-6)

    def test_lstm_parameter_grads(self, rng):
        cin, hidden = 2, 2
        x = T.constant(rng.normal(size=(4, cin)))
        w_ih0 = rng.normal(size=(cin, 4 * hidden))
        w_hh0 = rng.normal(size=(hidden, 4 * hidden))
        b0 = rng.normal(size=4 * hidden)

        def f_wih(w):
            return T.tsum(T.lstm(x, w, T.constant(w_hh0), T.constant(b0)))

        def f_whh(w):
            return T.tsum(T.lstm(x, T.constant(w_ih0), w, T.constant(b0)))

        def f_b(bb):
            return T.tsum(T.lstm(x, T.constant(w_ih0), T.constant(w_hh0), bb))

        assert nn.grad_check(f_wih, w_ih0.copy()) < 1e-6
        assert nn.grad_check(f_whh, w_hh0.copy()) < 1e-6
        assert nn.grad_check(f_b, b0.copy()) < 1e-6


@contextmanager
def feast_chunk_elems(n):
    saved, T._FEAST_CHUNK_ELEMS = T._FEAST_CHUNK_ELEMS, n
    try:
        yield
    finally:
        T._FEAST_CHUNK_ELEMS = saved


class TestFeast:
    """The fused FeaSt convolution against the unfused graph of taped ops."""

    @staticmethod
    def runs(dtype, v, heads, cin, cout, k, seed):
        """Output and the gradients of x, weights, steering, offsets and bias,
        fused and from the graph, for min(k, v) random keys. About a third of
        the nodes get no upstream gradient, as the rows that a ReLU zeroes do."""
        rng = np.random.default_rng(seed)
        keys = rng.choice(v, size=min(k, v), replace=False)
        shapes = [(v, cin), (heads, cin, cout), (heads, cin), (heads,), (cout,)]
        inputs = [rng.normal(size=s) for s in shapes]
        weights = rng.normal(size=(v, cout)) * (rng.random((v, 1)) < 0.7)
        with default_dtype(dtype):
            got = taped_run(lambda x, *p: T.feast(x, keys, *p), inputs, weights, seed)
            want = taped_run(lambda x, *p: oracles.feast_conv_graph(x, keys, *p),
                             inputs, weights, seed)
        return got, want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(v=st.integers(1, 24), heads=st.integers(1, 12), cin=st.integers(1, 5),
           cout=st.integers(1, 5), k=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @example(v=1, heads=3, cin=2, cout=2, k=1, seed=0)
    @example(v=24, heads=12, cin=3, cout=4, k=1, seed=1)
    @example(v=24, heads=5, cin=4, cout=1, k=9, seed=2)
    @example(v=24, heads=5, cin=1, cout=3, k=9, seed=3)
    def test_one_chunk_matches_graph_bitwise(self, dtype, v, heads, cin, cout, k, seed):
        assert_bitwise(*self.runs(dtype, v, heads, cin, cout, k, seed))

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @given(v=st.integers(2, 24), heads=st.integers(1, 12), cin=st.integers(1, 5),
           cout=st.integers(1, 5), k=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           budget=st.integers(1, 60))
    def test_chunks_match_graph_to_rounding(self, dtype, tol, v, heads, cin, cout, k, seed,
                                            budget):
        # a BLAS product may round a row differently with fewer rows beside
        # it, and the key-side gradients add up chunk by chunk
        with feast_chunk_elems(budget):
            got, want = self.runs(dtype, v, heads, cin, cout, k, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert np.abs(a - b).max() <= tol * np.abs(b).max()

    def test_gradients_over_several_chunks(self, monkeypatch):
        # the criterion-1 check, one node per chunk
        monkeypatch.setattr(T, "_FEAST_CHUNK_ELEMS", 1)
        assert verification.check_feast_conv() < 1e-7

    def test_head_coefficients_sum_to_one(self, rng):
        # with every head's weights alike, steep scores must still aggregate
        # the plain key mean
        v, k, cin, cout, heads = 6, 4, 3, 2, 5
        x = rng.normal(size=(v, cin))
        keys = rng.choice(v, size=k, replace=False)
        weights = np.repeat(rng.normal(size=(1, cin, cout)), heads, axis=0)
        out = T.feast(T.constant(x), keys, weights, rng.normal(size=(heads, cin)) * 5,
                      rng.normal(size=heads) * 5, np.zeros(cout)).data
        np.testing.assert_allclose(out, np.tile((x[keys] @ weights[0]).mean(axis=0), (v, 1)),
                                   atol=1e-12)


def conv_sliding_window_oracle(x, w, pad=1):
    cout, cin, kh, kw = w.shape
    c, h, ww = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((cout, h, ww))
    for oc in range(cout):
        for i in range(h):
            for j in range(ww):
                acc = 0.0
                for ic in range(cin):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += w[oc, ic, di, dj] * xp[ic, i + di, j + dj]
                out[oc, i, j] = acc
    return out


class TestConv:
    def test_matches_sliding_window_oracle(self, rng):
        x = rng.normal(size=(1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        out = T.conv2d(T.constant(x), T.constant(w)).data
        assert out.flags.c_contiguous and out.base is None
        np.testing.assert_allclose(out, conv_sliding_window_oracle(x, w), atol=1e-10)

    def test_zero_input_zero_preactivation(self, rng):
        w = rng.normal(size=(2, 3, 3, 3))
        out = T.conv2d(T.constant(np.zeros((3, 4, 4))), T.constant(w))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_grads(self, rng):
        w0 = rng.normal(size=(2, 2, 3, 3))
        x0 = rng.normal(size=(2, 4, 4))
        check_op(lambda x: T.tsum(T.conv2d(x, T.constant(w0))), x0)
        check_op(lambda w: T.tsum(T.conv2d(T.constant(x0), w)), w0)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @given(k=st.sampled_from([1, 3, 5]), h=st.integers(0, 12), w=st.integers(0, 12),
           cin=st.integers(1, 8), cout=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @example(k=3, h=0, w=4, cin=2, cout=3, seed=4)
    @example(k=5, h=1, w=7, cin=8, cout=1, seed=0)
    @example(k=5, h=6, w=1, cin=1, cout=8, seed=1)
    @example(k=3, h=1, w=1, cin=3, cout=2, seed=2)
    @example(k=1, h=3, w=5, cin=8, cout=8, seed=3)
    def test_matches_im2col_oracle_to_rounding(self, dtype, tol, k, h, w, cin, cout, seed):
        # the op sums k * k products of length C, the oracle takes one product
        # of length k * k * C: output and gradients agree to rounding, about
        # 1e-6 of the largest entry in f32
        rng = np.random.default_rng(seed)
        inputs = [rng.normal(size=s) for s in [(cin, h, w), (cout, cin, k, k)]]
        weights = rng.normal(size=(cout, h, w))
        with default_dtype(dtype):
            got = taped_run(T.conv2d, inputs, weights, seed)
            want = taped_run(oracles.conv2d_im2col, inputs, weights, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert np.abs(a - b).max(initial=0.0) <= tol * np.abs(b).max(initial=0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(k=st.sampled_from([1, 3, 5]), h=st.integers(0, 9), w=st.integers(0, 9),
           cin=st.integers(1, 6), cout=st.integers(1, 6), linear=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(k=3, h=0, w=4, cin=2, cout=3, linear=True, seed=0)
    @example(k=3, h=5, w=7, cin=4, cout=3, linear=False, seed=1)
    def test_matches_tap_oracle_bitwise(self, dtype, k, h, w, cin, cout, linear, seed):
        # the oracle forms a fresh product per tap; the op reuses one buffer
        # and must add its products in the same tap order
        rng = np.random.default_rng(seed)
        inputs = [signed_zero_weights(rng, s) for s in [(cin, h, w), (cout, cin, k, k)]]
        weights = signed_zero_weights(rng, (cout, h, w))
        with default_dtype(dtype):
            got = taped_run(T.conv2d, inputs, weights, seed, linear=linear)
            want = taped_run(oracles.conv2d_taps, inputs, weights, seed, linear=linear)
        assert_bitwise(got, want)

    @pytest.mark.parametrize("op, shape", [
        ("conv2d", (2, 0, 4)), ("conv2d", (2, 4, 0)), ("conv2d", (2, 0, 0)),
        ("maxpool2d", (2, 0, 4)), ("maxpool2d", (2, 4, 0)), ("upsample2x", (2, 0, 3)),
    ])
    def test_empty_image_gives_empty_output_and_zero_gradients(self, op, shape):
        x = T.parameter(np.ones(shape))
        weight = T.parameter(np.ones((3, 2, 3, 3)))
        with T.Tape() as tape:
            out = T.conv2d(x, weight) if op == "conv2d" else getattr(T, op)(x)
            tape.backward(T.tsum(out))
        assert out.data.size == 0
        assert x.grad.shape == shape
        if op == "conv2d":
            assert out.data.shape == (3, *shape[1:])
            np.testing.assert_array_equal(weight.grad, np.zeros((3, 2, 3, 3)))

    def test_tape_holds_no_column_matrix(self):
        # what a recorded convolution keeps for its backward must stay well
        # below a (k * k * C, H * W) column matrix
        rng = np.random.default_rng(0)
        c, h, w, k = 33, 64, 64, 3
        with default_dtype(np.float32):
            x = T.parameter(rng.normal(size=(c, h, w)))
            weight = T.parameter(rng.normal(size=(16, c, k, k)))
            with T.Tape():
                tracemalloc.start()
                try:
                    out = T.conv2d(x, weight)
                    held, _ = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert out.data.shape == (16, h, w)
        assert held < k * k * c * h * w * 4 / 2

    @pytest.mark.parametrize("op, shapes", [
        ("conv2d", [(1, 4, 4), (2, 1, 3)]),
        ("maxpool2d", [(4, 4)]),
        ("maxpool2d", [(1, 1, 4, 4)]),
        ("upsample2x", [(4, 4)]),
        ("upsample2x", [(1, 1, 4, 4)]),
    ], ids=["conv2d-weight-3d", "maxpool2d-2d", "maxpool2d-4d", "upsample2x-2d",
            "upsample2x-4d"])
    def test_malformed_shape_rejected(self, op, shapes):
        with pytest.raises(ShapeError):
            getattr(T, op)(*(T.constant(np.zeros(s)) for s in shapes))

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ShapeError):
            T.conv2d(T.constant(np.zeros((1, 4, 4))), T.constant(np.zeros((1, 1, 2, 2))))

    def test_maxpool_and_upsample(self, rng):
        x = rng.normal(size=(2, 4, 6))
        pooled = T.maxpool2d(T.constant(x))
        assert pooled.data.shape == (2, 2, 3)
        assert pooled.data[0, 0, 0] == x[0, :2, :2].max()
        up = T.upsample2x(T.constant(x))
        assert up.data.shape == (2, 8, 12)
        assert (up.data[:, ::2, ::2] == x).all()
        check_op(lambda t: T.tsum(T.maxpool2d(t)), x)
        check_op(lambda t: T.tsum(T.upsample2x(t)), x)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf inputs in the loss
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(channels=st.integers(1, 3), rows=st.integers(0, 4), cols=st.integers(0, 4),
           kind=POOL_KINDS, seed=st.integers(0, 2**32 - 1))
    def test_maxpool_matches_window_oracle(self, dtype, channels, rows, cols, kind, seed):
        rng = np.random.default_rng(seed)
        x = sample(rng, (channels, 2 * rows, 2 * cols), kind)
        weights = rng.normal(size=(channels, rows, cols))
        with default_dtype(dtype):
            got = taped_run(T.maxpool2d, [x], weights, seed)
            want = taped_run(oracles.maxpool2d, [x], weights, seed)
        assert_bitwise(got, want)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf inputs in the loss
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(channels=st.integers(1, 3), rows=st.integers(0, 4), cols=st.integers(0, 4),
           kind=POOL_KINDS, seed=st.integers(0, 2**32 - 1))
    def test_maxpool_gradient_bits_through_op_alone(self, dtype, channels, rows, cols, kind,
                                                    seed):
        # the loss reaches x only through the op: a -0.0 output gradient
        # lands on its corner as -0.0
        rng = np.random.default_rng(seed)
        x = sample(rng, (channels, 2 * rows, 2 * cols), kind)
        weights = signed_zero_weights(rng, (channels, rows, cols))
        with default_dtype(dtype):
            got = taped_run(T.maxpool2d, [x], weights, seed, linear=False)
            want = taped_run(oracles.maxpool2d, [x], weights, seed, linear=False)
        assert_bitwise(got, want)

    def test_maxpool_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            T.maxpool2d(T.constant(np.zeros((1, 3, 4))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(channels=st.integers(0, 3), rows=st.integers(0, 5), cols=st.integers(0, 5),
           linear=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(channels=2, rows=3, cols=1, linear=False, seed=0)
    @example(channels=2, rows=3, cols=4, linear=False, seed=1)
    def test_upsample_matches_sum_oracle_bitwise(self, dtype, channels, rows, cols, linear,
                                                 seed):
        # output gradients of mixed magnitudes, so that any other order of
        # the four adds per input pixel rounds differently
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(channels, rows, cols))
        shape = (channels, 2 * rows, 2 * cols)
        weights = signed_zero_weights(rng, shape) * 10.0 ** rng.uniform(-4, 4, shape)
        with default_dtype(dtype):
            got = taped_run(T.upsample2x, [x], weights, seed, linear=linear)
            want = taped_run(oracles.upsample2x, [x], weights, seed, linear=linear)
        assert_bitwise(got, want)


class TestBlocks:
    def test_down_block_identity_kernel_equals_maxpool(self, rng):
        block = nn.DownBlock(2, 2, rng)
        identity = np.zeros((2, 2, 3, 3))
        identity[[0, 1], [0, 1], 1, 1] = 1.0  # each channel's centre tap
        for conv in (block.conv1, block.conv2):
            conv.weight.data = identity.copy()
        x = np.abs(rng.normal(size=(2, 4, 4))) + 0.1  # positive: ReLU transparent
        _, pooled = block(T.constant(x), training=False)
        # at inference with zero mean and unit variance, each BatchNorm only
        # scales by 1 / sqrt(1 + BN_EPS)
        scale = 1.0 / np.sqrt(1.0 + T.BN_EPS)
        np.testing.assert_allclose(pooled.data, T.maxpool2d(T.constant(x)).data * scale ** 2,
                                   atol=1e-12)

    def test_conv_bn_relu_memory_at_mid_size_grid(self):
        # one training forward and backward of a ConvBNReLU(32, 32) on a
        # (32, 128, 128) float32 image, in activations of that size (2 MiB).
        # Both bounds are the figures measured with a fresh array for every
        # product and BatchNorm step: 6.30 held after the forward (the
        # padded input, convolution, xhat, BatchNorm, ReLU and loss outputs
        # and the ReLU mask) and a peak of 13.39 through the backward. A
        # buffer that a backward closure captures, or a BatchNorm temporary
        # that outlives its call, adds a whole activation to one of them
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            layer = nn.ConvBNReLU(32, 32, rng)
            x = T.parameter(rng.normal(size=(32, 128, 128)))
            weights = T.constant(rng.normal(size=(32, 128, 128)))
            tracemalloc.start()
            try:
                with T.Tape() as tape:
                    loss = T.tsum(T.mul(layer(x, training=True), weights))
                held, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                tape.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        activation = x.data.nbytes
        assert x.grad.shape == x.data.shape
        assert held <= 6.31 * activation, held / activation
        assert peak <= 13.39 * activation, peak / activation

    def test_down_up_round_trip_shapes(self, rng):
        down = nn.DownBlock(3, 8, rng)
        up = nn.UpBlock(8, 8, 4, rng)
        x = T.constant(rng.normal(size=(3, 8, 8)))
        skip, pooled = down(x, training=True)
        assert skip.data.shape == (8, 8, 8)
        assert pooled.data.shape == (8, 4, 4)
        out = up(pooled, skip, training=True)
        assert out.data.shape == (4, 8, 8)

    def test_block_grads(self, rng):
        down = nn.DownBlock(2, 3, rng)

        def f(x):
            _, pooled = down(x, training=True)
            return T.tsum(pooled)

        x = nn.resample_until_smooth(
            lambda a: np.random.default_rng(100 + a).normal(size=(2, 4, 4)), f)
        assert nn.grad_check(f, x) < 1e-5


class TestGradCheckHarness:
    def test_simple_quadratic(self):
        err = nn.grad_check(lambda x: T.tsum(T.mul(x, x)), np.array([1.0, 2.0]))
        assert err < 1e-9

    def test_analytic_values(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with nn.Tape() as tape:
            y = T.tsum(T.mul(x, x))
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(VerificationError):
            nn.grad_check(lambda x: T.tsum(T.add(x, T.constant(np.nan))), np.array([-1.0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["relu", "segment_max", "masked_max_pool", "maxpool2d"])
    @given(n=st.integers(1, 12), width=st.integers(1, 3), relu_first=st.booleans(),
           infinity=st.sampled_from([None, np.inf, -np.inf]), seed=st.integers(0, 2**32 - 1))
    @example(n=2, width=1, relu_first=False, infinity=-np.inf, seed=0)
    def test_kink_margin_matches_oracle(self, dtype, op, n, width, relu_first, infinity, seed):
        # small integers tie often, and a ReLU in front of half-integers keeps
        # its own margin at 0.5 or more and turns the negatives into tied
        # zeros: every tie has margin 0, two equal infinities included. A
        # draw holds infinities of one sign, so the loss's sum stays defined
        rng = np.random.default_rng(seed)
        x, kinked, margin = kinked_case(op, rng, n, width)
        if infinity is not None:
            x[rng.random(x.shape) < 0.5] = infinity
        with default_dtype(dtype):
            if relu_first:
                x += 0.5
                got = nn.kink_margin(lambda t: T.tsum(kinked(T.relu(t))), x)
                want = min(float(np.abs(x).min()), margin(np.maximum(x, 0.0)))
            else:
                got = nn.kink_margin(lambda t: T.tsum(kinked(t)), x)
                want = margin(x)
        assert got == want

    def test_kink_margin_reads_nan(self):
        # a NaN-led pool window, and a NaN ReLU input after a finite one: each
        # reads NaN, whichever margin the tape recorded first
        window = np.array([[[np.nan, 3.0], [1.0, 0.0]]])
        pooled = nn.kink_margin(lambda t: T.tsum(T.maxpool2d(t)), window)
        late = nn.kink_margin(lambda t: T.add(T.tsum(T.relu(T.constant([1.0]))),
                                              T.tsum(T.relu(t))), np.array([np.nan]))
        assert np.isnan(pooled) and np.isnan(late)

    def test_tied_draws_rejected(self):
        # every draw ties in the pool, so no draw is a smooth point
        def f(x):
            return T.tsum(T.masked_max_pool(x, [[True, True]]))

        with pytest.raises(VerificationError):
            nn.resample_until_smooth(lambda a: np.array([[1.0], [1.0]]), f)

    def test_backward_linearity(self, rng):
        a = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        with nn.Tape() as tape:
            l1 = T.tsum(T.mul(a, a))
            l2 = T.tsum(T.sigmoid(a))
            total = T.add(l1, l2)
        tape.backward(total)
        joint = a.grad.copy()

        grads = []
        for loss_fn in (lambda t: T.tsum(T.mul(t, t)), lambda t: T.tsum(T.sigmoid(t))):
            p = T.Tensor(a.data.copy(), requires_grad=True)
            with nn.Tape() as tape:
                loss = loss_fn(p)
            tape.backward(loss)
            grads.append(p.grad)
        np.testing.assert_allclose(joint, grads[0] + grads[1], atol=1e-12)


class TestAdam:
    def test_quadratic_convergence(self):
        p = T.Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            with nn.Tape() as tape:
                loss = T.tsum(T.mul(p, p))
            tape.backward(loss)
            opt.step()
        assert np.abs(p.data).max() < 1e-2

    def test_weight_decay_shrinks(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.01, weight_decay=1.0)
        for _ in range(50):
            opt.zero_grad()
            with nn.Tape() as tape:
                loss = T.tsum(T.mul(p, T.constant(np.zeros(1))))
            tape.backward(loss)
            opt.step()
        assert abs(p.data[0]) < 1.0
