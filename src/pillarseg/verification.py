"""Gradient verification suite: every differentiable building block plus the
full forward/loss composition, checked against central differences at 64-bit
on kink-avoided random points."""

from __future__ import annotations

import numpy as np

from . import attention as att
from . import labels as lab
from . import losses, occupancy, pillars
from .dataio import PointCloud
from .model import ModelConfig, PillarSegNet
from .nn import Affine, BatchNorm, BiLSTM, DownBlock, UpBlock, grad_check, resample_until_smooth
from .nn import tensor as T


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(9000 + tag)


def check_affine() -> float:
    rng = _rng(0)
    layer = Affine(5, 3, rng)
    w = T.constant(rng.normal(size=(4, 3)))
    return grad_check(lambda x: T.tsum(T.mul(layer(x), w)), rng.normal(size=(4, 5)))


def check_batch_norm() -> float:
    rng = _rng(1)
    bn = BatchNorm(4)
    bn.gamma.data = rng.normal(size=4)
    bn.beta.data = rng.normal(size=4)
    w = T.constant(rng.normal(size=(6, 4)))
    return grad_check(lambda x: T.tsum(T.mul(bn(x, training=True), w)),
                      rng.normal(size=(6, 4)))


def check_bilstm() -> float:
    rng = _rng(2)
    layer = BiLSTM(4, 3, rng)
    w = T.constant(rng.normal(size=(5, 6)))
    return grad_check(lambda x: T.tsum(T.mul(layer([x]), w)), rng.normal(size=(5, 4)))


def check_bilstm_ragged() -> float:
    """A chunk of two sequences of unequal lengths (5 and 3) in one time loop,
    differentiated through the input and through the recurrent weight."""
    rng = _rng(11)
    layer = BiLSTM(4, 3, rng)
    w = T.constant(rng.normal(size=(8, 6)))
    x0 = rng.normal(size=(8, 4))

    def f(x):
        return T.tsum(T.mul(layer([T.narrow(x, 0, 0, 5), T.narrow(x, 0, 5, 3)]), w))

    def f_w_hh(w_hh):
        saved, layer.w_hh = layer.w_hh, w_hh
        try:
            return f(T.constant(x0))
        finally:
            layer.w_hh = saved

    return max(grad_check(f, x0.copy()), grad_check(f_w_hh, layer.w_hh.data.copy()))


def check_conv_block_down() -> float:
    rng = _rng(3)
    block = DownBlock(2, 3, rng)

    def f(x):
        _, pooled = block(x, training=True)
        return T.tsum(pooled)

    x = resample_until_smooth(lambda a: np.random.default_rng(100 + a).normal(size=(2, 4, 4)), f)
    return grad_check(f, x)


def check_conv_block_up() -> float:
    rng = _rng(4)
    block = UpBlock(3, 2, 2, rng)
    skip = T.constant(rng.normal(size=(2, 4, 4)))

    def f(x):
        return T.tsum(block(x, skip, training=True))

    x = resample_until_smooth(lambda a: np.random.default_rng(200 + a).normal(size=(3, 2, 2)), f)
    return grad_check(f, x)


def check_feast_conv() -> float:
    """The fused FeaSt convolution, differentiated through each of its five
    inputs in turn: x, weights, steering, offsets and bias."""
    rng = _rng(5)
    keys = np.array([0, 2])
    inputs = [rng.normal(size=s) for s in [(4, 3), (3, 3, 2), (3, 3), (3,), (2,)]]
    w = T.constant(rng.normal(size=(4, 2)))

    def through(i):
        def f(t):
            args = [T.constant(a) for a in inputs]
            args[i] = t
            return T.tsum(T.mul(T.feast(args[0], keys, *args[1:]), w))
        return f

    return max(grad_check(through(i), a.copy()) for i, a in enumerate(inputs))


def check_pillar_attention() -> float:
    rng = _rng(6)
    attn = att.PillarAttention(3, 4, rng)
    centers = rng.normal(size=(3, 3))
    pillar = np.repeat(np.arange(3), [4, 2, 3])  # 9 points
    layout = att.SlotRows.of(pillar, (3, 4))

    def f(x):
        return T.tsum(T.mul(x, T.gather_rows(attn(layout.rows(x), layout, centers), pillar)))

    x = resample_until_smooth(lambda a: np.random.default_rng(300 + a).normal(size=(9, 3)), f)
    return grad_check(f, x)


def check_dr_lstm_attention() -> float:
    rng = _rng(7)
    attn = att.DRLSTMAttention(3, 2, rng)
    pos = rng.normal(size=(6, 2))

    def f(x):
        return T.tsum(T.mul(x, attn.weights(*attn([x], [pos])[0])))

    return grad_check(f, rng.normal(size=(6, 3)))


def check_graph_attention() -> float:
    rng = _rng(8)
    attn = att.GraphAttention(3, 4, 2, rng, fps_rate=0.4)

    def f(x):
        return T.tsum(T.mul(x, attn(x)))

    x = resample_until_smooth(lambda a: np.random.default_rng(400 + a).normal(size=(6, 3)), f)
    return grad_check(f, x)


def check_ma_fuse() -> float:
    rng = _rng(9)
    fuse = att.MultiAttentionFuse(3, 2, rng, fusion_hidden=3, lstm_hidden=2, graph_hidden=4,
                                  heads=2, fps_rate=0.4)
    pillar = np.repeat(np.arange(4), [2, 1, 2, 1])  # 6 points
    centers = rng.normal(size=(4, 3))

    def f(x):
        return T.tsum(next(fuse([x], [pillar], [centers])))

    x = resample_until_smooth(lambda a: np.random.default_rng(500 + a).normal(size=(6, 3)), f)
    return grad_check(f, x)


def check_full_model() -> float:
    """segnet forward on a 16x16 grid composed with the segmentation loss,
    differentiated through the pillar feature net weight."""
    rng = _rng(10)
    grid = pillars.GridConfig((0.0, 16.0), (0.0, 16.0), (-2.0, 2.0), (1.0, 1.0, 4.0), 4, 512)
    xyz = np.column_stack([rng.uniform(0, 16, 8), rng.uniform(0, 16, 8),
                           rng.uniform(-2, 2, 8)]).astype(np.float32)
    cloud = PointCloud(xyz, rng.uniform(0, 1, 8).astype(np.float32))
    pset = pillars.compact(pillars.augment_points(pillars.pillarize(cloud, grid, 0), grid))
    occ_norm = occupancy.observability(cloud, grid).normalized()
    net = PillarSegNet(
        ModelConfig(num_classes=3, max_points=4, pfn_channels=6, unet_widths=(4, 8),
                    lstm_hidden=32, fusion_hidden=10, use_occupancy=True, use_ma=False,
                    graph_hidden=16, feast_heads=4, fps_rate=0.05), seed=0)
    gt = lab.SemanticGrid(rng.integers(0, 4, (16, 16)).astype(np.int16), 0)
    loss_cfg = losses.SegLossConfig(np.ones(4), 0)

    def f(w):
        saved = net.pfn_weight
        net.pfn_weight = w
        out = losses.seg_loss(net.forward_pillars(pset, grid, occ_norm, training=True),
                              gt, loss_cfg)
        net.pfn_weight = saved
        return out

    return grad_check(f, net.pfn_weight.data.copy())


SUITE = [
    ("affine", check_affine),
    ("batch_norm", check_batch_norm),
    ("bilstm", check_bilstm),
    ("bilstm_ragged", check_bilstm_ragged),
    ("conv_block_down", check_conv_block_down),
    ("conv_block_up", check_conv_block_up),
    ("feast_conv_shared", check_feast_conv),
    ("pillar_attention", check_pillar_attention),
    ("dr_lstm_attention", check_dr_lstm_attention),
    ("graph_attention", check_graph_attention),
    ("ma_fuse", check_ma_fuse),
    ("segnet_with_loss", check_full_model),
]


def run_gradcheck_suite() -> list[tuple[str, float]]:
    """(name, max relative error) per check; all checks run at 64-bit."""
    T.set_default_dtype(np.float64)
    return [(name, fn()) for name, fn in SUITE]
