import math

import numpy as np
import pytest

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
        assert A.pca_1d(np.array([[3.0, 4.0]]))[0] == 0.0

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
        out = A.feast_conv_shared(T.constant(x), keys, p).data
        expected = p.bias.data + np.mean([p.weights.data[0].T @ x[j] for j in keys], axis=0)
        for i in range(4):
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_uniform_heads_when_steering_zero(self, rng):
        p = make_feast(3, 2, 4, rng)
        p.steering.data[:] = 0.0
        p.offsets.data[:] = 1.7
        x = rng.normal(size=(3, 3))
        out = A.feast_conv_shared(T.constant(x), np.arange(3), p).data
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
            out = A.feast_conv_shared(T.constant(x), keys, p).data
            oracle = feast_scalar_oracle(x, keys, p.weights.data, p.steering.data,
                                         p.offsets.data, p.bias.data)
            np.testing.assert_allclose(out, oracle, atol=1e-12)

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
            A.feast_conv_shared(T.constant(rng.normal(size=(2, 2))),
                                np.zeros(0, dtype=np.int64), p)

    def test_shared_key_gradients(self, rng):
        keys = np.array([0, 2])
        p = make_feast(3, 2, 2, rng)
        assert nn.grad_check(lambda x: T.tsum(A.feast_conv_shared(x, keys, p)),
                             rng.normal(size=(4, 3))) < 1e-7

    def test_gradients(self, rng):
        x0 = rng.normal(size=(4, 3))
        keys = np.array([1, 2, 3])
        p = make_feast(3, 2, 2, rng)
        assert nn.grad_check(lambda x: T.tsum(A.feast_conv_shared(x, keys, p)), x0) < 1e-7

        x = T.constant(x0)

        def f_w(w):
            saved = p.weights
            p.weights = w
            out = T.tsum(A.feast_conv_shared(x, keys, p))
            p.weights = saved
            return out

        assert nn.grad_check(f_w, p.weights.data.copy()) < 1e-7


class TestDRLSTMAttention:
    def test_single_pillar(self, rng):
        attn = A.DRLSTMAttention(4, 3, rng)
        amap = attn([T.constant(rng.normal(size=(1, 4)))], [np.array([[0.0, 0.0]])])[0]
        assert amap.weights.data.shape == (1,)
        assert 0.0 < amap.weights.data[0] < 1.0

    def test_zero_parameters_give_half(self, rng):
        attn = A.DRLSTMAttention(4, 3, rng)
        for p in attn.params().values():
            p.data[:] = 0.0
        amap = attn([T.constant(rng.normal(size=(6, 4)))], [rng.normal(size=(6, 2))])[0]
        np.testing.assert_allclose(amap.weights.data, 0.5, atol=1e-15)

    def test_permutation_invariance(self, rng):
        attn = A.DRLSTMAttention(4, 3, rng)
        feats = rng.normal(size=(8, 4))
        pos = rng.normal(size=(8, 2))
        base = attn([T.constant(feats)], [pos])[0].weights.data
        perm = rng.permutation(8)
        permuted = attn([T.constant(feats[perm])], [pos[perm]])[0].weights.data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_gradcheck(self, rng):
        attn = A.DRLSTMAttention(3, 2, rng)
        pos = rng.normal(size=(5, 2))
        err = nn.grad_check(
            lambda x: T.tsum(T.mul(x, T.reshape(attn([x], [pos])[0].weights, (-1, 1)))),
            rng.normal(size=(5, 3)))
        assert err < 1e-6


class TestGraphAttention:
    def test_single_pillar(self, rng):
        attn = A.GraphAttention(4, 8, 2, rng)
        amap = attn(T.constant(rng.normal(size=(1, 4))))
        assert amap.weights.data.shape == (1,)
        assert 0.0 < amap.weights.data[0] < 1.0

    def test_identical_features_identical_weights(self, rng):
        attn = A.GraphAttention(4, 8, 2, rng)
        feats = np.tile(rng.normal(size=(1, 4)), (6, 1))
        amap = attn(T.constant(feats))
        np.testing.assert_allclose(amap.weights.data, amap.weights.data[0], atol=1e-12)

    def test_duplicated_nodes_get_equal_weights(self, rng):
        attn = A.GraphAttention(3, 8, 2, rng, fps_rate=0.25)
        feats = rng.normal(size=(8, 3))
        doubled = np.repeat(feats, 2, axis=0)
        amap = attn(T.constant(doubled))
        w = amap.weights.data
        np.testing.assert_allclose(w[0::2], w[1::2], atol=1e-10)

    def test_weights_in_open_interval(self, rng):
        attn = A.GraphAttention(4, 8, 2, rng)
        amap = attn(T.constant(rng.normal(size=(30, 4))))
        assert (amap.weights.data > 0).all() and (amap.weights.data < 1).all()

    def test_gradcheck(self, rng):
        attn = A.GraphAttention(3, 4, 2, rng, fps_rate=0.5)
        err = nn.grad_check(
            lambda x: T.tsum(T.mul(x, T.reshape(attn(x).weights, (-1, 1)))),
            rng.normal(size=(6, 3)))
        assert err < 1e-6


class TestPillarAttention:
    def test_zero_parameters_give_half(self, rng):
        attn = A.PillarAttention(5, 4, rng)
        for p in attn.params().values():
            p.data[:] = 0.0
        amap = attn(T.constant(rng.normal(size=(3, 4, 5))), rng.normal(size=(3, 3)))
        np.testing.assert_allclose(amap.weights.data, 0.5, atol=1e-15)

    def test_hand_scalar_case(self, rng):
        attn = A.PillarAttention(1, 1, rng)
        w1 = attn.channel_fc.weight.data  # (4, 1): feature + 3 center coords
        b1 = attn.channel_fc.bias.data
        w2 = attn.point_fc.weight.data  # (1, 1)
        b2 = attn.point_fc.bias.data
        f = 0.7
        center = np.array([0.3, -0.2, 0.1])
        amap = attn(T.constant(np.array([[[f]]])), center[None, :])
        pre = max(np.dot(np.concatenate([[f], center]), w1[:, 0]) + b1[0], 0.0)
        expected = 1.0 / (1.0 + math.exp(-(pre * w2[0, 0] + b2[0])))
        assert amap.weights.data[0] == pytest.approx(expected, abs=1e-12)

    def test_weight_count_is_pillar_count(self, rng):
        for n in (1, 4, 9):
            attn = A.PillarAttention(6, n, rng)
            amap = attn(T.constant(rng.normal(size=(7, n, 6))), rng.normal(size=(7, 3)))
            assert amap.weights.data.shape == (7,)

    def test_gradcheck(self, rng):
        attn = A.PillarAttention(3, 4, rng)
        centers = rng.normal(size=(2, 3))

        def f(x):
            amap = attn(x, centers)
            return T.tsum(T.mul(x, T.reshape(amap.weights, (-1, 1, 1))))

        x = nn.resample_until_smooth(
            lambda a: np.random.default_rng(200 + a).normal(size=(2, 4, 3)), f)
        assert nn.grad_check(f, x) < 1e-6


def fuse_one(fuse, feats, mask, pos, centers):
    """Stream and maps of a chunk of one frame."""
    streams, maps = fuse([feats], [mask], [pos], [centers])
    return streams[0], maps[0]


class TestMultiAttentionFuse:
    def make(self, rng, order=("L", "G", "P"), channels=4, max_points=3):
        return A.MultiAttentionFuse(channels, max_points, rng, fusion_hidden=channels,
                                    lstm_hidden=2, graph_hidden=4, heads=2, fps_rate=0.3,
                                    order=order)

    def test_zero_parameters_scale_by_eighth(self, rng):
        fuse = self.make(rng)
        for p in fuse.params().values():
            p.data[:] = 0.0
        feats = rng.normal(size=(5, 3, 4))
        mask = np.ones((5, 3), dtype=bool)
        out, maps = fuse_one(fuse, T.constant(feats), mask, rng.normal(size=(5, 2)),
                             rng.normal(size=(5, 3)))
        np.testing.assert_allclose(out.data, feats / 8.0, atol=1e-12)
        assert set(maps) == {"L", "G", "P"}

    def test_single_pillar_composes_blocks(self, rng):
        fuse = self.make(rng)
        feats = rng.normal(size=(1, 3, 4))
        mask = np.array([[True, True, False]])
        pos = np.zeros((1, 2))
        centers = rng.normal(size=(1, 3))
        out, maps = fuse_one(fuse, T.constant(feats), mask, pos, centers)

        # compose the three blocks by hand in L, G, P order
        stream = feats.copy()
        pooled = np.where(mask[:, :, None], stream, -np.inf).max(axis=1)
        wl = fuse.lstm_attn([T.constant(pooled)], [pos])[0].weights.data
        lstm_weighted = pooled * wl[:, None]
        stream = stream * wl[:, None, None]
        pooled = np.where(mask[:, :, None], stream, -np.inf).max(axis=1)
        wg = fuse.graph_attn(T.constant(pooled)).weights.data
        stream = stream * wg[:, None, None]
        cat = np.concatenate([stream, np.broadcast_to(lstm_weighted[:, None, :], stream.shape)],
                             axis=2)
        h = np.maximum(cat @ fuse.fuse1.weight.data + fuse.fuse1.bias.data, 0.0)
        h = np.maximum(h @ fuse.fuse2.weight.data + fuse.fuse2.bias.data, 0.0)
        wp = fuse.pillar_attn(T.constant(h), centers).weights.data
        stream = stream * wp[:, None, None]
        np.testing.assert_allclose(out.data, stream, atol=1e-12)

    def test_shape_contract(self, rng):
        fuse = self.make(rng)
        for p, n in ((2, 3), (7, 3)):
            feats = rng.normal(size=(p, n, 4))
            mask = np.ones((p, n), dtype=bool)
            out, _ = fuse_one(fuse, T.constant(feats), mask, rng.normal(size=(p, 2)),
                              rng.normal(size=(p, 3)))
            assert out.data.shape == (p, n, 4)

    def test_order_permutations_run(self, rng):
        feats = rng.normal(size=(6, 3, 4))
        mask = np.ones((6, 3), dtype=bool)
        pos = rng.normal(size=(6, 2))
        centers = rng.normal(size=(6, 3))
        for order in (("G", "L", "P"), ("L", "P", "G"), ("P", "L", "G")):
            fuse = self.make(np.random.default_rng(1), order=order)
            out, maps = fuse_one(fuse, T.constant(feats), mask, pos, centers)
            assert out.data.shape == feats.shape
            assert list(maps) == list(order)

    def test_all_weights_in_open_interval(self, rng):
        fuse = self.make(rng)
        feats = rng.normal(size=(6, 3, 4))
        mask = np.ones((6, 3), dtype=bool)
        _, maps = fuse_one(fuse, T.constant(feats), mask, rng.normal(size=(6, 2)),
                           rng.normal(size=(6, 3)))
        for amap in maps.values():
            assert (amap.weights.data > 0).all() and (amap.weights.data < 1).all()

    def test_gradcheck_through_fusion(self, rng):
        fuse = self.make(rng, channels=3, max_points=2)
        mask = np.ones((4, 2), dtype=bool)
        pos = rng.normal(size=(4, 2))
        centers = rng.normal(size=(4, 3))

        def f(x):
            out, _ = fuse_one(fuse, x, mask, pos, centers)
            return T.tsum(out)

        x = nn.resample_until_smooth(
            lambda a: np.random.default_rng(300 + a).normal(size=(4, 2, 3)), f)
        assert nn.grad_check(f, x) < 1e-4
