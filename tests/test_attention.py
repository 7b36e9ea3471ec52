import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from pillarseg import attention as A
from pillarseg import nn
from pillarseg.nn import tensor as T


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def eig_oracle_2x2(cov):
    """Leading eigenvalue of a symmetric 2x2 matrix via its characteristic
    polynomial: lambda = (tr +- sqrt(tr^2 - 4 det)) / 2."""
    tr = cov[0, 0] + cov[1, 1]
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
    return (tr + disc) / 2.0


class TestPCA1D:
    def test_collinear_along_x(self):
        pos = np.column_stack([np.arange(5.0), np.zeros(5)])
        scores = A.pca_1d(pos)
        np.testing.assert_allclose(scores, pos[:, 0] - pos[:, 0].mean(), atol=1e-12)

    def test_single_point(self):
        scores = A.pca_1d(np.array([[3.0, 4.0]]))  # through the isotropic-tie branch
        assert scores.tolist() == [0.0] and not np.signbit(scores[0])

    def test_isotropic_tie_breaks_to_x(self):
        pos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        scores = A.pca_1d(pos)
        np.testing.assert_allclose(scores, pos[:, 0], atol=1e-12)

    def test_projection_variance_matches_leading_eigenvalue(self, rng):
        for _ in range(20):
            pos = rng.normal(size=(200, 2)) @ rng.normal(size=(2, 2))
            scores = A.pca_1d(pos)
            centered = pos - pos.mean(axis=0)
            cov = centered.T @ centered / len(pos)
            assert abs((scores**2).mean() - eig_oracle_2x2(cov)) < 1e-8

    def test_sign_convention_largest_loading_positive(self, rng):
        pos = rng.normal(size=(50, 2)) * [5.0, 1.0]
        scores_a = A.pca_1d(pos)
        scores_b = A.pca_1d(pos[::-1].copy())
        np.testing.assert_allclose(scores_a, scores_b[::-1], atol=1e-10)


def fps_quadratic_oracle(feats, k):
    """Exhaustive farthest-first scan, squared distances, lowest-index ties."""
    selected = [0]
    while len(selected) < k:
        best_idx, best_d = None, -1.0
        for cand in range(len(feats)):
            d = min(float(((feats[cand] - feats[s]) ** 2).sum()) for s in selected)
            if d > best_d:
                best_d, best_idx = d, cand
        selected.append(best_idx)
    return np.array(selected)


class TestFPS:
    def test_single_key_is_seed(self, rng):
        feats = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(A.fps(feats, 0.05), [0])

    def test_square_corners(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(A.fps_k(feats, 2), [0, 2])

    def test_matches_quadratic_oracle(self, rng):
        for trial in range(30):
            p = int(rng.integers(2, 64))
            c = int(rng.integers(2, 16))
            feats = rng.normal(size=(p, c))
            k = int(rng.integers(1, p + 1))
            np.testing.assert_array_equal(A.fps_k(feats, k), fps_quadratic_oracle(feats, k))

    def test_k_from_rate(self, rng):
        feats = rng.normal(size=(40, 3))
        assert len(A.fps(feats, 0.05)) == 2
        assert len(A.fps(feats, 1.0)) == 40


def feast_scalar_oracle(x, keys, weights, steering, offsets, bias):
    """Direct scalar-loop evaluation of the feature-steered convolution in
    which every node aggregates from the key set."""
    v = x.shape[0]
    m, cin, cout = weights.shape
    out = np.zeros((v, cout))
    for i in range(v):
        acc = bias.copy()
        for j in keys:
            logits = np.array([steering[h] @ (x[j] - x[i]) + offsets[h] for h in range(m)])
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            for h in range(m):
                acc = acc + (p[h] * (weights[h].T @ x[j])) / len(keys)
        out[i] = acc
    return out


def make_feast(cin, cout, heads, rng):
    return A.FeaStParams(
        weights=T.parameter(rng.normal(size=(heads, cin, cout))),
        steering=T.parameter(rng.normal(size=(heads, cin))),
        offsets=T.parameter(rng.normal(size=heads)),
        bias=T.parameter(rng.normal(size=cout)),
    )


class TestFeaStConv:
    def test_single_head_is_mean_aggregation(self, rng):
        p = make_feast(3, 2, 1, rng)
        x = rng.normal(size=(4, 3))
        keys = np.array([0, 1, 3])
        out = T.feast(T.constant(x), keys, p.weights, p.steering, p.offsets, p.bias).data
        expected = p.bias.data + np.mean([p.weights.data[0].T @ x[j] for j in keys], axis=0)
        for i in range(4):
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_uniform_heads_when_steering_zero(self, rng):
        p = make_feast(3, 2, 4, rng)
        p.steering.data[:] = 0.0
        p.offsets.data[:] = 1.7
        x = rng.normal(size=(3, 3))
        out = T.feast(T.constant(x), np.arange(3), p.weights, p.steering, p.offsets,
                      p.bias).data
        mean_w = p.weights.data.mean(axis=0)
        for i in range(3):
            expected = p.bias.data + np.mean([mean_w.T @ x[j] for j in range(3)], axis=0)
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(25):
            v = int(rng.integers(2, 8))
            m = int(rng.integers(1, 4))
            cin, cout = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            x = rng.normal(size=(v, cin))
            keys = np.sort(rng.choice(v, size=rng.integers(1, v + 1), replace=False))
            p = make_feast(cin, cout, m, rng)
            out = T.feast(T.constant(x), keys, p.weights, p.steering, p.offsets, p.bias).data
            oracle = feast_scalar_oracle(x, keys, p.weights.data, p.steering.data,
                                         p.offsets.data, p.bias.data)
            np.testing.assert_allclose(out, oracle, atol=1e-12)

    @pytest.mark.parametrize("dtype, x_tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @given(v=st.integers(1, 9), heads=st.integers(1, 4), cin=st.integers(1, 5),
           cout=st.integers(1, 5), data=st.data())
    def test_one_product_matches_per_head_oracle(self, dtype, x_tol, v, heads, cin, cout, data):
        # summing the heads in one product keeps the output and the parameter
        # gradients bitwise; only the input gradient adds its terms in another order
        keys = np.array(data.draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=v,
                                           unique=True)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shapes = [(v, cin), (heads, cin, cout), (heads, cin), (heads,), (cout,)]
        inputs = [rng.normal(size=s).astype(dtype) for s in shapes]
        upstream = rng.normal(size=(v, cout)).astype(dtype)

        def run(conv):
            T.set_default_dtype(dtype)
            try:
                x, *params = [T.parameter(a) for a in inputs]
                with T.Tape() as tape:
                    out = conv(x, keys, *params)
                    tape.backward(T.tsum(T.mul(out, T.constant(upstream))))
                return out.data, x.grad, [p.grad for p in params]
            finally:
                T.set_default_dtype(np.float64)

        out, gx, grads = run(T.feast)
        want_out, want_gx, want_grads = run(oracles.feast_conv_per_head)
        for got, want in zip([out, *grads], [want_out, *want_grads]):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), f"max abs diff {np.abs(got - want).max()}"
        assert gx.dtype == dtype
        assert np.abs(gx - want_gx).max() <= x_tol * np.abs(want_gx).max()

    def test_head_coefficients_sum_to_one(self, rng):
        x = rng.normal(size=(5, 3))
        diff = x[None, :, :] - x[:, None, :]
        p = make_feast(3, 2, 3, rng)
        logits = np.einsum("ijc,hc->ijh", diff, p.steering.data) + p.offsets.data
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        coeff = e / e.sum(axis=2, keepdims=True)
        np.testing.assert_allclose(coeff.sum(axis=2), 1.0, atol=1e-12)

    def test_empty_key_set_rejected(self, rng):
        p = make_feast(2, 2, 1, rng)
        from pillarseg.errors import ShapeError

        with pytest.raises(ShapeError, match="empty key set"):
            T.feast(T.constant(rng.normal(size=(2, 2))), np.zeros(0, dtype=np.int64),
                    p.weights, p.steering, p.offsets, p.bias)

    def test_shared_key_gradients(self, rng):
        keys = np.array([0, 2])
        p = make_feast(3, 2, 2, rng)
        assert nn.grad_check(lambda x: T.tsum(T.feast(x, keys, p.weights, p.steering,
                                                      p.offsets, p.bias)),
                             rng.normal(size=(4, 3))) < 1e-7

    def test_gradients(self, rng):
        x0 = rng.normal(size=(4, 3))
        keys = np.array([1, 2, 3])
        p = make_feast(3, 2, 2, rng)
        assert nn.grad_check(lambda x: T.tsum(T.feast(x, keys, p.weights, p.steering,
                                                      p.offsets, p.bias)), x0) < 1e-7

        x = T.constant(x0)

        def f_w(w):
            return T.tsum(T.feast(x, keys, w, p.steering, p.offsets, p.bias))

        assert nn.grad_check(f_w, p.weights.data.copy()) < 1e-7


def lstm_weights(attn, feats, positions):
    """`attn`'s (P, 1) weights of each frame of a chunk: the chunk's LSTM
    call, then the head per frame."""
    return [attn.weights(*states) for states in attn(feats, positions)]


class TestDRLSTMAttention:
    def test_single_pillar(self, rng):
        attn = A.DRLSTMAttention(4, 3, rng)
        w = lstm_weights(attn, [T.constant(rng.normal(size=(1, 4)))], [np.array([[0.0, 0.0]])])
        w = w[0].data
        assert w.shape == (1, 1)
        assert 0.0 < w[0, 0] < 1.0

    def test_zero_parameters_give_half(self, rng):
        attn = A.DRLSTMAttention(4, 3, rng)
        for p in attn.state().values():
            p.data[:] = 0.0
        w = lstm_weights(attn, [T.constant(rng.normal(size=(6, 4)))], [rng.normal(size=(6, 2))])[0]
        np.testing.assert_allclose(w.data, 0.5, atol=1e-15)

    def test_permutation_invariance(self, rng):
        attn = A.DRLSTMAttention(4, 3, rng)
        feats = rng.normal(size=(8, 4))
        pos = rng.normal(size=(8, 2))
        base = lstm_weights(attn, [T.constant(feats)], [pos])[0].data
        perm = rng.permutation(8)
        permuted = lstm_weights(attn, [T.constant(feats[perm])], [pos[perm]])[0].data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_gradcheck(self, rng):
        attn = A.DRLSTMAttention(3, 2, rng)
        pos = rng.normal(size=(5, 2))
        err = nn.grad_check(
            lambda x: T.tsum(T.mul(x, lstm_weights(attn, [x], [pos])[0])),
            rng.normal(size=(5, 3)))
        assert err < 1e-6


class TestGraphAttention:
    def test_single_pillar(self, rng):
        attn = A.GraphAttention(4, 8, 2, rng, fps_rate=0.05)
        w = attn(T.constant(rng.normal(size=(1, 4)))).data
        assert w.shape == (1, 1)
        assert 0.0 < w[0, 0] < 1.0

    def test_identical_features_identical_weights(self, rng):
        attn = A.GraphAttention(4, 8, 2, rng, fps_rate=0.05)
        feats = np.tile(rng.normal(size=(1, 4)), (6, 1))
        w = attn(T.constant(feats)).data
        np.testing.assert_allclose(w, w[0, 0], atol=1e-12)

    def test_duplicated_nodes_get_equal_weights(self, rng):
        attn = A.GraphAttention(3, 8, 2, rng, fps_rate=0.25)
        feats = rng.normal(size=(8, 3))
        doubled = np.repeat(feats, 2, axis=0)
        w = attn(T.constant(doubled)).data
        np.testing.assert_allclose(w[0::2], w[1::2], atol=1e-10)

    def test_weights_in_open_interval(self, rng):
        attn = A.GraphAttention(4, 8, 2, rng, fps_rate=0.05)
        w = attn(T.constant(rng.normal(size=(30, 4)))).data
        assert (w > 0).all() and (w < 1).all()

    def test_forward_memory_is_bounded(self, rng):
        # scores and coefficients live one node chunk at a time; the unfused
        # op graph held five (V, k, M) arrays at once and peaked near 61 MiB
        T.set_default_dtype(np.float32)
        try:
            attn = A.GraphAttention(64, 16, 4, rng, fps_rate=0.05)
            feats = T.constant(rng.normal(size=(4000, 64)))
            tracemalloc.start()
            try:
                attn(feats)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            T.set_default_dtype(np.float64)
        assert peak < 24 * 2**20

    def test_gradcheck(self, rng):
        attn = A.GraphAttention(3, 4, 2, rng, fps_rate=0.5)
        err = nn.grad_check(
            lambda x: T.tsum(T.mul(x, attn(x))),
            rng.normal(size=(6, 3)))
        assert err < 1e-6


def pillar_attend(attn, points, mask, centers):
    """`attn`'s (P, 1) weights over the (V, C) point rows of the slots that
    the (P, N) `mask` keeps."""
    layout = A.SlotRows.of(mask)
    return attn(layout.rows(points), layout, centers)


def all_slots(p, n):
    return np.ones((p, n), dtype=bool)


class TestPillarAttention:
    def test_zero_parameters_give_half(self, rng):
        attn = A.PillarAttention(5, 4, rng)
        for p in attn.state().values():
            p.data[:] = 0.0
        w = pillar_attend(attn, T.constant(rng.normal(size=(12, 5))), all_slots(3, 4),
                          rng.normal(size=(3, 3)))
        np.testing.assert_allclose(w.data, 0.5, atol=1e-15)

    def test_hand_scalar_case(self, rng):
        attn = A.PillarAttention(1, 1, rng)
        w1 = attn.channel_fc.weight.data  # (4, 1): feature + 3 center coords
        b1 = attn.channel_fc.bias.data
        w2 = attn.point_fc.weight.data  # (1, 1)
        b2 = attn.point_fc.bias.data
        f = 0.7
        center = np.array([0.3, -0.2, 0.1])
        w = pillar_attend(attn, T.constant(np.array([[f]])), all_slots(1, 1), center[None, :]).data
        pre = max(np.dot(np.concatenate([[f], center]), w1[:, 0]) + b1[0], 0.0)
        expected = 1.0 / (1.0 + math.exp(-(pre * w2[0, 0] + b2[0])))
        assert w[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_weight_count_is_pillar_count(self, rng):
        for n in (1, 4, 9):
            attn = A.PillarAttention(6, n, rng)
            w = pillar_attend(attn, T.constant(rng.normal(size=(7 * n, 6))), all_slots(7, n),
                              rng.normal(size=(7, 3)))
            assert w.data.shape == (7, 1)

    def test_gradcheck(self, rng):
        attn = A.PillarAttention(3, 4, rng)
        centers = rng.normal(size=(2, 3))
        mask = np.arange(4) < np.array([[4], [2]])  # 6 points, two padded slots
        pillar = np.nonzero(mask)[0]

        def f(x):
            return T.tsum(T.mul(x, T.gather_rows(pillar_attend(attn, x, mask, centers), pillar)))

        x = nn.resample_until_smooth(
            lambda a: np.random.default_rng(200 + a).normal(size=(6, 3)), f)
        assert nn.grad_check(f, x) < 1e-6


def fuse_one(fuse, points, mask, centers):
    """Attended (V, C) rows of a chunk of one frame, from its (V, C) rows."""
    return next(fuse([points], [mask], [centers]))


class TestMultiAttentionFuse:
    def make(self, rng, channels=4, max_points=3):
        return A.MultiAttentionFuse(channels, max_points, rng, fusion_hidden=channels,
                                    lstm_hidden=2, graph_hidden=4, heads=2, fps_rate=0.3)

    def test_zero_parameters_scale_by_eighth(self, rng):
        fuse = self.make(rng)
        for p in fuse.state().values():
            p.data[:] = 0.0
        feats = rng.normal(size=(5, 3, 4))
        mask = np.ones((5, 3), dtype=bool)
        out = fuse_one(fuse, T.constant(feats[mask]), mask, rng.normal(size=(5, 3)))
        np.testing.assert_allclose(out.data, feats[mask] / 8.0, atol=1e-12)

    def test_single_pillar_composes_blocks(self, rng):
        fuse = self.make(rng)
        feats = rng.normal(size=(1, 3, 4))
        mask = np.array([[True, True, False]])
        feats[~mask] = 0.0  # a padded slot is zero, as in every PillarSet
        centers = rng.normal(size=(1, 3))
        out = fuse_one(fuse, T.constant(feats[mask]), mask, centers)

        # compose the three blocks by hand in L, G, P order
        stream = feats.copy()
        pooled = np.where(mask[:, :, None], stream, -np.inf).max(axis=1)
        wl = lstm_weights(fuse.lstm_attn, [T.constant(pooled)], [centers[:, :2]])[0].data
        lstm_weighted = pooled * wl
        stream = stream * wl[:, :, None]
        pooled = np.where(mask[:, :, None], stream, -np.inf).max(axis=1)
        wg = fuse.graph_attn(T.constant(pooled)).data
        stream = stream * wg[:, :, None]
        cat = np.concatenate([stream, np.broadcast_to(lstm_weighted[:, None, :], stream.shape)],
                             axis=2)
        h = np.maximum(cat @ fuse.fuse1.weight.data + fuse.fuse1.bias.data, 0.0)
        h = np.maximum(h @ fuse.fuse2.weight.data + fuse.fuse2.bias.data, 0.0)
        # the valid slots' rows, then the padded slot's as the pillar's pad row
        rows = np.concatenate([h[mask], h[~mask]])
        wp = fuse.pillar_attn(T.constant(rows), A.SlotRows.of(mask), centers).data
        stream = stream * wp[:, :, None]
        np.testing.assert_allclose(out.data, stream[mask], atol=1e-12)

    def test_shape_contract(self, rng):
        fuse = self.make(rng)
        for p, n in ((2, 3), (7, 3)):
            mask = rng.random((p, n)) < 0.6
            mask[:, 0] = True
            out = fuse_one(fuse, T.constant(rng.normal(size=(int(mask.sum()), 4))), mask,
                           rng.normal(size=(p, 3)))
            assert out.data.shape == (mask.sum(), 4)

    def test_all_weights_in_open_interval(self, rng):
        fuse = self.make(rng)
        feats = rng.normal(size=(6, 3, 4))
        mask = np.ones((6, 3), dtype=bool)
        centers = rng.normal(size=(6, 3))
        pooled = T.constant(feats.max(axis=1))
        weights = [lstm_weights(fuse.lstm_attn, [pooled], [centers[:, :2]])[0],
                   fuse.graph_attn(pooled),
                   pillar_attend(fuse.pillar_attn, T.constant(feats[mask]), mask, centers)]
        for w in weights:
            assert w.data.shape == (6, 1)
            assert (w.data > 0).all() and (w.data < 1).all()
        # every stage scales a pillar's points by one weight in (0, 1)
        out = fuse_one(fuse, T.constant(feats[mask]), mask, centers).data.reshape(feats.shape)
        ratio = out / feats
        assert (ratio > 0).all() and (ratio < 1).all()
        np.testing.assert_allclose(ratio, ratio[:, :1, :1] * np.ones_like(ratio), rtol=1e-12)

    def test_gradcheck_through_fusion(self, rng):
        fuse = self.make(rng, channels=3, max_points=2)
        mask = np.array([[True, True], [True, False], [True, True], [True, True]])  # 7 points
        centers = rng.normal(size=(4, 3))

        def f(x):
            return T.tsum(fuse_one(fuse, x, mask, centers))

        x = nn.resample_until_smooth(
            lambda a: np.random.default_rng(300 + a).normal(size=(7, 3)), f)
        assert nn.grad_check(f, x) < 1e-4

    @staticmethod
    def taped(run, fuse, feats, masks, centers, weights):
        """Each frame's (V, C) rows from `run` on the frames' padded (P, N, C)
        arrays, the gradient of every parameter of `fuse` by name, for the
        loss sum(rows * weights) over the frames, and the forward's smallest
        distance from a kink (a ReLU input or a pool's lead over its
        runner-up)."""
        params = fuse.state()
        for param in params.values():
            param.grad = None
        with T.Tape(track_kinks=True) as tape:
            rows = run(fuse, feats, masks, centers)
            loss = T.tsum(T.concat([T.mul(r, T.constant(w)) for r, w in zip(rows, weights)]))
            tape.backward(loss)
        grads = {name: param.grad for name, param in params.items()}
        return [r.data for r in rows], grads, tape.min_kink_margin()

    @staticmethod
    def fuse_rows(fuse, feats, masks, centers):
        return list(fuse([T.constant(f[m]) for f, m in zip(feats, masks)], masks, centers))

    @staticmethod
    def oracle_rows(fuse, feats, masks, centers):
        streams = oracles.multi_attention_dense(fuse, [T.constant(f) for f in feats], masks,
                                                centers)
        return [T.gather_rows(T.reshape(s, (-1, s.data.shape[2])), np.flatnonzero(m))
                for s, m in zip(streams, masks)]

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=12),
                           min_size=1, max_size=3))
    @example(n=1, seed=0, counts=[[1]])
    @example(n=6, seed=1, counts=[[6] * 12, [1, 6, 2], [3]])
    @example(n=4, seed=2, counts=[[1] * 12])
    def test_rows_match_dense_oracle(self, dtype, tol, n, seed, counts):
        # the row layout folds the LSTM and graph weights into one product
        # per pillar, so rows and gradients agree with the dense stream's
        # valid slots to rounding, not bitwise. Each frame holds P pillars
        # of 1 to N valid points, full pillars included.
        rng = np.random.default_rng(seed)
        counts = [np.minimum(c, n) for c in counts]
        masks = [np.arange(n)[None, :] < np.asarray(c)[:, None] for c in counts]
        feats = [np.where(m[:, :, None], rng.normal(size=m.shape + (4,)), 0.0) for m in masks]
        centers = [rng.normal(size=(len(m), 3)) for m in masks]
        weights = [rng.normal(size=(int(m.sum()), 4)) for m in masks]
        T.set_default_dtype(dtype)
        try:
            fuse = self.make(rng, max_points=n)
            got_rows, got, got_margin = self.taped(self.fuse_rows, fuse, feats, masks, centers,
                                                   weights)
            want_rows, want, want_margin = self.taped(self.oracle_rows, fuse, feats, masks,
                                                      centers, weights)
        finally:
            T.set_default_dtype(np.float64)
        # a rounding difference must not move a ReLU input across its kink,
        # nor swap the max of a near tie in either pool of either side
        assume(min(got_margin, want_margin) > 1e-4)
        for a, b in zip(got_rows, want_rows, strict=True):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert np.abs(a - b).max() <= tol * np.abs(b).max()
        # every gradient within tol of the largest gradient entry: the sums
        # that form one parameter's gradient, as a FeaSt steering or bias
        # gradient over the nodes, may cancel far below the terms they add
        scale = max(np.abs(b).max() for b in want.values())
        assert got.keys() == want.keys()
        for name, b in want.items():
            a = got[name]
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert np.abs(a - b).max() <= tol * scale, name
