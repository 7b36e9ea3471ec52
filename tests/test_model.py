import math

import numpy as np
import pytest

import oracles
from pillarseg import losses, metrics, model, nn, occupancy, pillars
from pillarseg.dataio import PointCloud
from pillarseg.errors import ConfigError, ShapeError
from pillarseg.labels import SemanticGrid
from pillarseg.nn import tensor as T


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def toy_grid(cells=16, max_points=8):
    return pillars.GridConfig((0.0, float(cells)), (0.0, float(cells)), (-2.0, 2.0),
                              (1.0, 1.0, 4.0), max_points, 4096)


def toy_model(grid, num_classes=3, use_occupancy=True, use_ma=False, seed=0):
    cfg = model.ModelConfig(
        num_classes=num_classes, max_points=grid.max_points,
        pfn_channels=8, unet_widths=(4, 8),
        use_occupancy=use_occupancy, use_ma=use_ma,
        lstm_hidden=2, graph_hidden=4, feast_heads=2, fps_rate=0.3, fusion_hidden=10,
    )
    return model.PillarSegNet(cfg, seed=seed)


def forward_cloud(net, cloud, grid, training=False):
    """Logits of the full pipeline from a raw cloud: rasterize, augment,
    encode, segment."""
    pset = pillars.augment_points(pillars.pillarize(cloud, grid, 0), grid)
    occ_channel = None
    if net.cfg.use_occupancy:
        occ_channel = occupancy.observability(cloud, grid).normalized()
    return net.forward_pillars(pset, grid, occ_channel, training)


def make_cloud(rng, n=60, cells=16):
    xyz = np.column_stack([rng.uniform(0, cells, n), rng.uniform(0, cells, n),
                           rng.uniform(-2, 2, n)]).astype(np.float32)
    return PointCloud(xyz, rng.uniform(0, 1, n).astype(np.float32))


def pfn_dense(net, aug, mask):
    """The PFN over the valid slots of a dense (P, N, C) tensor."""
    return net.pfn_forward(T.constant(aug[mask]), np.nonzero(mask)[0], len(mask),
                           training=False)


class TestPFN:
    def test_single_point_matches_direct_formula(self, rng):
        grid = toy_grid()
        net = toy_model(grid)
        aug = rng.normal(size=(1, grid.max_points, 10))
        aug[0, 1:] = 0.0
        mask = np.zeros((1, grid.max_points), dtype=bool)
        mask[0, 0] = True
        out = pfn_dense(net, aug, mask).data
        pre = aug[0, 0] @ net.pfn_weight.data
        bn = net.pfn_bn
        normed = bn.gamma.data * (pre - bn.running_mean) / np.sqrt(bn.running_var + T.BN_EPS) \
            + bn.beta.data
        np.testing.assert_allclose(out[0], np.maximum(normed, 0.0), atol=1e-12)

    def test_permutation_invariance_exact(self, rng):
        grid = toy_grid()
        net = toy_model(grid)
        n = grid.max_points
        aug = rng.normal(size=(3, n, 10))
        counts = np.array([n, 5, 2])
        mask = np.arange(n)[None, :] < counts[:, None]
        aug[~mask] = 0.0
        base = pfn_dense(net, aug, mask).data
        shuffled = aug.copy()
        for p in range(3):
            perm = rng.permutation(counts[p])
            shuffled[p, : counts[p]] = aug[p, perm]
        out = pfn_dense(net, shuffled, mask).data
        np.testing.assert_array_equal(out, base)

    def test_duplication_invariance_exact(self, rng):
        grid = toy_grid()
        net = toy_model(grid)
        n = grid.max_points
        aug = np.zeros((1, n, 10))
        aug[0, :3] = rng.normal(size=(3, 10))
        mask = np.zeros((1, n), dtype=bool)
        mask[0, :3] = True
        base = pfn_dense(net, aug, mask).data

        dup = aug.copy()
        dup[0, 3] = aug[0, 1]  # duplicate a valid point into a free slot
        dmask = mask.copy()
        dmask[0, 3] = True
        out = pfn_dense(net, dup, dmask).data
        np.testing.assert_array_equal(out, base)

    def test_empty_pillar_contributes_zero(self, rng):
        grid = toy_grid()
        net = toy_model(grid)
        aug = rng.normal(size=(2, grid.max_points, 10))
        mask = np.zeros((2, grid.max_points), dtype=bool)
        mask[0, 0] = True
        out = pfn_dense(net, aug, mask).data
        np.testing.assert_array_equal(out[1], 0.0)


class TestSegNetForward:
    def test_empty_cloud_finite_logits(self):
        grid = toy_grid()
        net = toy_model(grid)
        cloud = PointCloud(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.float32))
        logits = forward_cloud(net, cloud, grid)
        assert logits.data.shape == (3, 16, 16)
        assert np.isfinite(logits.data).all()

    def test_output_channels_exclude_unlabeled(self, rng):
        grid = toy_grid()
        net = toy_model(grid, num_classes=5)
        logits = forward_cloud(net, make_cloud(rng), grid)
        assert logits.data.shape[0] == 5

    def test_occupancy_toggle_changes_only_unet_input(self, rng):
        grid = toy_grid()
        cloud = make_cloud(rng)
        with_occ = toy_model(grid, use_occupancy=True, seed=3)
        without = toy_model(grid, use_occupancy=False, seed=3)
        pset = pillars.augment_points(pillars.pillarize(cloud, grid, 0), grid)
        img_a = next(with_occ.pseudo_images([pset], grid, training=False)).data
        img_b = next(without.pseudo_images([pset], grid, training=False)).data
        np.testing.assert_array_equal(img_a, img_b)  # bit-identical upstream
        assert with_occ.unet.downs[0].conv1.weight.data.shape[1] == 9
        assert without.unet.downs[0].conv1.weight.data.shape[1] == 8

    def test_missing_occupancy_channel_rejected(self, rng):
        grid = toy_grid()
        net = toy_model(grid)
        pset = pillars.augment_points(pillars.pillarize(make_cloud(rng), grid, 0), grid)
        with pytest.raises(ShapeError):
            net.forward_pillars(pset, grid, None, training=False)

    def test_ma_variant_runs(self, rng):
        grid = toy_grid()
        net = toy_model(grid, use_ma=True)
        logits = forward_cloud(net, make_cloud(rng, n=40), grid)
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("training", [False, True])
    def test_empty_frames_in_ma_chunk(self, rng, training):
        # multi-attention runs over the chunk's non-empty frames only
        grid = toy_grid()
        net = toy_model(grid, use_occupancy=False, use_ma=True)
        empty = PointCloud(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.float32))
        empty, full = (pillars.augment_points(pillars.pillarize(cloud, grid, 0), grid)
                       for cloud in (empty, make_cloud(rng)))
        chunk = [empty, full, empty]
        images = list(net.pseudo_images(chunk, grid, training))
        for image in images[::2]:
            assert image.data.shape == (8, 16, 16) and not image.data.any()
        logits = list(net.frame_logits(chunk, grid, [None] * 3, training))
        alone = net.forward_pillars(full, grid, None, training)
        assert logits[1].data.tobytes() == alone.data.tobytes()

    def test_deterministic_forward(self, rng):
        grid = toy_grid()
        cloud = make_cloud(rng)
        a = forward_cloud(toy_model(grid, seed=5), cloud, grid).data
        b = forward_cloud(toy_model(grid, seed=5), cloud, grid).data
        np.testing.assert_array_equal(a, b)


def make_gt(labels, unlabeled=0):
    return SemanticGrid(np.asarray(labels, dtype=np.int16), unlabeled)


class TestOracleOps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ma_training_step_gradients_match_oracle_ops(self, rng, monkeypatch, dtype):
        # the fused LSTM, the three max pools and the fused FeaSt convolution
        # against their direct forms, through one multi-attention step over
        # two frames. The masked max pool reads point rows, so its direct form
        # is the loop segment max over each row's pillar
        grid = toy_grid()
        frames = [(make_cloud(rng, n=120), make_gt(rng.integers(0, 4, (16, 16))))
                  for _ in range(2)]
        loss_cfg = losses.SegLossConfig(np.ones(4), 0)

        def gradients():
            T.set_default_dtype(dtype)
            try:
                net = toy_model(grid, use_ma=True, seed=3)
                for cloud, gt in frames:
                    with T.Tape() as tape:
                        logits = forward_cloud(net, cloud, grid, training=True)
                        tape.backward(losses.seg_loss(logits, gt, loss_cfg))
                return {k: p.grad for k, p in net.parameters().items()}
            finally:
                T.set_default_dtype(np.float64)

        fused = gradients()
        monkeypatch.setattr(T, "lstm", oracles.bilstm)
        monkeypatch.setattr(T, "segment_max", oracles.segment_max)
        monkeypatch.setattr(T, "masked_max_pool", lambda x, mask: oracles.segment_max(
            x, np.nonzero(mask)[0], len(mask)))
        monkeypatch.setattr(T, "maxpool2d", oracles.maxpool2d)
        monkeypatch.setattr(T, "feast", oracles.feast_conv_graph)
        direct = gradients()
        assert fused.keys() == direct.keys()
        for name, g in direct.items():
            assert g is not None and g.dtype == dtype, name
            assert fused[name].tobytes() == g.tobytes(), name


class TestSegLoss:
    def make_cfg(self, k=3, weights=None):
        w = np.ones(k + 1) if weights is None else np.asarray(weights, dtype=float)
        return losses.SegLossConfig(w, unlabeled_index=0)

    def test_uniform_logits_equals_log_k(self):
        k = 12
        cfg = losses.SegLossConfig(np.ones(k + 1), 0)
        logits = T.constant(np.zeros((k, 4, 4)))
        gt = make_gt(np.full((4, 4), 3))
        loss = losses.seg_loss(logits, gt, cfg)
        assert abs(loss.item() - math.log(12)) < 1e-10

    def test_perfect_prediction_low_loss(self):
        cfg = self.make_cfg()
        gt = make_gt([[1, 2], [3, 0]])
        logits = np.zeros((3, 2, 2))
        logits[0, 0, 0] = 20.0
        logits[1, 0, 1] = 20.0
        logits[2, 1, 0] = 20.0
        loss = losses.seg_loss(T.constant(logits), gt, cfg)
        assert loss.item() < 1e-3

    def test_two_cell_hand_case(self):
        cfg = self.make_cfg(k=2, weights=[0.0, 1.0, 2.0])
        gt = make_gt([[1, 2]])
        logits = np.array([[[0.3, -0.5]], [[-0.1, 0.9]]])  # (K=2, 1, 2)
        loss = losses.seg_loss(T.constant(logits), gt, cfg)

        def nll(vec, ch):
            e = np.exp(vec - vec.max())
            return -math.log(e[ch] / e.sum())

        expected = (1.0 * nll(logits[:, 0, 0], 0) + 2.0 * nll(logits[:, 0, 1], 1)) / 2
        assert abs(loss.item() - expected) < 1e-10

    def test_unlabeled_cells_ignored(self, rng):
        cfg = self.make_cfg()
        logits = rng.normal(size=(3, 2, 2))
        gt_partial = make_gt([[1, 0], [0, 0]])
        tampered = logits.copy()
        tampered[:, 0, 1] = 99.0  # only unlabeled cells change
        tampered[:, 1, :] = -50.0
        a = losses.seg_loss(T.constant(logits), gt_partial, cfg).item()
        b = losses.seg_loss(T.constant(tampered), gt_partial, cfg).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_no_labeled_cells_errors(self, rng):
        cfg = self.make_cfg()
        with pytest.raises(ShapeError):
            losses.seg_loss(T.constant(rng.normal(size=(3, 2, 2))), make_gt(np.zeros((2, 2))), cfg)

    def test_monotone_in_true_logit(self, rng):
        cfg = self.make_cfg()
        gt = make_gt([[2]])
        logits = rng.normal(size=(3, 1, 1))
        base = losses.seg_loss(T.constant(logits), gt, cfg).item()
        bumped = logits.copy()
        bumped[1, 0, 0] += 0.1  # channel 1 <-> merged class 2
        assert losses.seg_loss(T.constant(bumped), gt, cfg).item() < base

    def test_gradient(self, rng):
        cfg = self.make_cfg(weights=[0.0, 1.0, 2.0, 1.5])
        gt = make_gt(rng.integers(0, 4, (4, 4)))
        if not (gt.labels != 0).any():
            gt.labels[0, 0] = 1
        err = nn.grad_check(lambda x: losses.seg_loss(x, gt, cfg), rng.normal(size=(3, 4, 4)))
        assert err < 1e-7


def confusion_matrix_oracle(pred, gt, mask, classes):
    out = {}
    for k in classes:
        tp = fp = fn = 0
        for p, g, m in zip(pred.ravel(), gt.ravel(), mask.ravel()):
            if not m:
                continue
            tp += (p == k) and (g == k)
            fp += (p == k) and (g != k)
            fn += (p != k) and (g == k)
        out[k] = (tp, fp, fn)
    return out


def frame_iou(pred, gt, visible, supervised):
    acc = metrics.IoUAccumulator(supervised, 0)
    acc.add(pred, gt, visible)
    return acc.result()


class TestIoU:
    def test_perfect_prediction(self, rng):
        gt = rng.integers(1, 4, (8, 8)).astype(np.int16)
        res = frame_iou(gt, gt, np.ones_like(gt, dtype=bool), [1, 2, 3])
        assert res.miou == 1.0
        assert all(v == 1.0 for v in res.defined().values())

    def test_disjoint_masks_zero(self):
        gt = np.array([[1, 1], [2, 2]], dtype=np.int16)
        pred = np.array([[2, 2], [1, 1]], dtype=np.int16)
        res = frame_iou(pred, gt, np.ones_like(gt, dtype=bool), [1, 2])
        assert res.miou == 0.0

    def test_matches_confusion_oracle(self, rng):
        for _ in range(25):
            gt = rng.integers(0, 4, (8, 8)).astype(np.int16)
            pred = rng.integers(1, 4, (8, 8)).astype(np.int16)
            visible = rng.uniform(size=(8, 8)) > 0.3
            if not (visible & (gt != 0)).any():
                continue
            res = frame_iou(pred, gt, visible, [1, 2, 3])
            oracle = confusion_matrix_oracle(pred, gt, visible & (gt != 0), [1, 2, 3])
            for k, (tp, fp, fn) in oracle.items():
                if tp + fp + fn == 0:
                    assert not np.isfinite(res.per_class[k])
                else:
                    assert res.per_class[k] == pytest.approx(tp / (tp + fp + fn))

    def test_eval_restricted_to_visible_and_labeled(self, rng):
        gt = np.array([[1, 2], [0, 1]], dtype=np.int16)
        pred = np.array([[1, 1], [2, 2]], dtype=np.int16)
        visible = np.array([[True, False], [True, True]])
        res = frame_iou(pred, gt, visible, [1, 2])
        # only cells (0,0) and (1,1) are evaluated
        assert res.evaluated_cells == 2
        assert res.per_class[1] == pytest.approx(0.5)

    def test_accumulated_frames_equal_one_pooled_frame(self, rng):
        frames = [(rng.integers(1, 4, (6, 6)), rng.integers(0, 4, (6, 6)),
                   rng.uniform(size=(6, 6)) > 0.3) for _ in range(3)]
        acc = metrics.IoUAccumulator([1, 2, 3], 0)
        for pred, gt, visible in frames:
            acc.add(pred, gt, visible)
        got = acc.result()
        pooled = frame_iou(*(np.concatenate(a) for a in zip(*frames)), [1, 2, 3])
        np.testing.assert_array_equal(got.per_class, pooled.per_class)
        assert (got.miou, got.evaluated_cells) == (pooled.miou, pooled.evaluated_cells)

    def test_class_id_outside_the_map_rejected(self):
        gt = np.array([[1, 2]], dtype=np.int16)
        with pytest.raises(ConfigError):
            frame_iou(np.array([[1, 4]], dtype=np.int16), gt, np.ones((1, 2), dtype=bool),
                      [1, 2])


class TestFullModelGradients:
    def test_segnet_plus_loss_gradcheck(self, rng):
        grid = toy_grid(cells=16, max_points=4)
        net = toy_model(grid, num_classes=3)
        cloud = make_cloud(rng, n=8)
        pset = pillars.augment_points(pillars.pillarize(cloud, grid, 0), grid)
        from pillarseg import occupancy as occ

        occ_norm = occ.observability(cloud, grid).normalized()
        gt_labels = rng.integers(0, 4, (16, 16)).astype(np.int16)
        gt = SemanticGrid(gt_labels, 0)
        cfg = losses.SegLossConfig(np.ones(4), 0)

        def f(w):
            saved = net.pfn_weight
            net.pfn_weight = w
            logits = net.forward_pillars(pset, grid, occ_norm, training=True)
            out = losses.seg_loss(logits, gt, cfg)
            net.pfn_weight = saved
            return out

        w0 = net.pfn_weight.data.copy()
        err = nn.grad_check(f, w0, coords=range(0, w0.size, 7))
        assert err < 1e-4

    def test_head_bias_grad_through_composition(self, rng):
        grid = toy_grid(cells=16, max_points=4)
        net = toy_model(grid, num_classes=3)
        cloud = make_cloud(rng, n=10)
        pset = pillars.augment_points(pillars.pillarize(cloud, grid, 0), grid)
        gt = SemanticGrid(rng.integers(0, 4, (16, 16)).astype(np.int16), 0)
        cfg = losses.SegLossConfig(np.ones(4), 0)
        from pillarseg import occupancy as occ

        occ_norm = occ.observability(cloud, grid).normalized()

        def f(b):
            saved = net.unet.head_bias
            net.unet.head_bias = b
            # rebind the tensor inside the head closure by direct call
            logits = net.forward_pillars(pset, grid, occ_norm, training=True)
            out = losses.seg_loss(logits, gt, cfg)
            net.unet.head_bias = saved
            return out

        err = nn.grad_check(f, net.unet.head_bias.data.copy())
        assert err < 1e-6


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        grid = toy_grid()
        net = toy_model(grid, use_ma=True, seed=1)
        cloud = make_cloud(rng)
        forward_cloud(net, cloud, grid, training=True)  # move BN stats off init
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, net)

        clone = toy_model(grid, use_ma=True, seed=2)
        model.load_checkpoint(path, clone)
        for name, p in net.parameters().items():
            np.testing.assert_allclose(clone.parameters()[name].data, p.data, atol=1e-7)
        buffers = {k: v for k, v in net.state().items() if isinstance(v, np.ndarray)}
        assert len(buffers) == 18  # mean and var of 9 BNs: PFN, 2 per UNet block
        for name, arr in buffers.items():
            assert clone.state()[name].astype("<f4").tobytes() == arr.astype("<f4").tobytes()
        a = forward_cloud(net, cloud, grid).data
        b = forward_cloud(clone, cloud, grid).data
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_save_is_deterministic(self, tmp_path):
        grid = toy_grid()
        net = toy_model(grid, seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_checkpoint(p1, net)
        model.save_checkpoint(p2, net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_shape_rejected(self, tmp_path):
        grid = toy_grid()
        net = toy_model(grid)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, net)
        other = toy_model(grid, num_classes=4)
        from pillarseg.errors import FormatError

        with pytest.raises(FormatError):
            model.load_checkpoint(path, other)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.update({"buffer.pfn_bn.running_mean": np.ones(1, np.float32)}),
         r"shape \(1,\) != model shape \(8,\)"),
        (lambda a: a.update({"buffer.pfn_bn.running_mean": np.ones(5, np.float32)}),
         r"shape \(5,\) != model shape \(8,\)"),
        (lambda a: a.pop("buffer.pfn_bn.running_var"), r"missing \['buffer.pfn_bn.running_var'\]"),
        (lambda a: a.update({"buffer.pfn_bn.running_max": np.ones(8, np.float32)}),
         r"unknown \['buffer.pfn_bn.running_max'\]"),
    ], ids=["broadcastable", "wrong-length", "missing", "unknown"])
    def test_malformed_buffer_rejected(self, tmp_path, edit, message):
        from pillarseg.container import read_container, write_container
        from pillarseg.errors import FormatError

        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, toy_model(toy_grid()))
        arrays = read_container(path)
        edit(arrays)
        write_container(path, arrays)
        with pytest.raises(FormatError, match=message):
            model.load_checkpoint(path, toy_model(toy_grid()))

    def test_checkpoint_with_biases_before_batchnorm_rejected(self, tmp_path):
        # the layout before the biases that BatchNorm cancels were deleted:
        # pfn_affine.weight and .bias, a bias per UNet convolution and a (K,)
        # head bias
        from pillarseg.container import read_container, write_container
        from pillarseg.errors import FormatError

        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, toy_model(toy_grid()))
        arrays = read_container(path)
        arrays["param.pfn_affine.weight"] = arrays.pop("param.pfn_weight")
        arrays["param.pfn_affine.bias"] = np.zeros(8, np.float32)
        convs = [k.removesuffix(".weight") for k in arrays if k.endswith(("conv1.weight",
                                                                         "conv2.weight"))]
        assert len(convs) == 8
        for conv in convs:
            arrays[f"{conv}.bias"] = np.zeros(len(arrays[f"{conv}.weight"]), np.float32)
        arrays["param.unet.head.bias"] = arrays["param.unet.head.bias"].reshape(-1)
        write_container(path, arrays)
        with pytest.raises(FormatError, match=r"unknown \['param.pfn_affine.bias', "
                                              r"'param.pfn_affine.weight', "
                                              r"'param.unet.down0.conv1.bias'\], "
                                              r"missing \['param.pfn_weight'\]"):
            model.load_checkpoint(path, toy_model(toy_grid()))


def reachable_state(root) -> list:
    """Every grad-requiring ``Tensor`` and every ``BatchNorm`` running array
    that ``root`` reaches through attributes, lists and dataclass fields."""
    import dataclasses

    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, T.Tensor):
            if obj.requires_grad:
                found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif hasattr(obj, "__dict__") and type(obj).__module__.startswith("pillarseg"):
            if isinstance(obj, nn.BatchNorm):
                found.extend([obj.running_mean, obj.running_var])
            stack.extend(vars(obj).values())
    return found


class TestStateCoverage:
    """A layer left out of a ``collect_state`` call would never train nor be
    checkpointed; the state table must name everything the model holds."""

    @pytest.mark.parametrize("use_ma", [False, True])
    def test_state_names_every_tensor_and_running_stat_once(self, use_ma):
        net = toy_model(toy_grid(), use_ma=use_ma)
        state = net.state()
        first: dict[int, str] = {}
        twice = [name for name, v in state.items() if first.setdefault(id(v), name) != name]
        assert not twice, f"state() names these entries a second time: {twice}"
        reached = reachable_state(net)
        unnamed = [v.shape for v in reached if id(v) not in first]
        assert not unnamed, f"state() leaves out the arrays of shapes {unnamed}"
        assert len(reached) == len(state)
        tensors = [v for v in state.values() if isinstance(v, T.Tensor)]
        assert list(net.parameters().values()) == tensors

    @pytest.mark.parametrize("use_ma, count", [(False, 29), (True, 60)])
    def test_no_bias_before_a_batchnorm(self, use_ma, count):
        # a bias in front of a BatchNorm cancels against the batch mean; the
        # logits head is the one convolution no BatchNorm follows, and the
        # attention stages' biases feed a ReLU or a sigmoid
        params = toy_model(toy_grid(), use_ma=use_ma).parameters()
        assert len(params) == count
        biases = [k for k in params if k.endswith("bias") and not k.startswith("ma.")]
        assert biases == ["unet.head.bias"]
