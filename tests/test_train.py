import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from pillarseg import config, train
from pillarseg.errors import DivergenceError
from pillarseg.flat import packaged_text, parse_flat
from pillarseg.labels import SemanticGrid
from pillarseg.model import PillarSegNet, load_checkpoint, save_checkpoint
from pillarseg.nn import Adam
from pillarseg.nn import tensor as T


def micro_overrides(**extra):
    values = {
        "x_range": ["-4", "4"],
        "y_range": ["-4", "4"],
        "pillar_size": ["0.5", "0.5", "0.25"],
        "max_pillars": ["256"],
        "pfn_channels": ["8"],
        "unet_widths": ["4", "8"],
        "train_frames": ["6"],
        "val_frames": ["2"],
        "epochs": ["2"],
        "lstm_hidden": ["2"],
        "graph_hidden": ["4"],
        "feast_heads": ["2"],
        "fps_rate": ["0.2"],
    }
    for k, v in extra.items():
        values[k] = v
    return values


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("ground = -3.5 3.5 -3.5 3.5\nground_density = 1.5\n"
                    "boxes = 2\nbox_size = 1.0 1.6 1.2\nposts = 2\n")
    return str(path)


def micro_config(scene_file, **extra):
    values = micro_overrides(**extra)
    values["scene"] = [scene_file]
    return config.load_run_config(None, values)


class TestTrainToy:
    def test_loss_decreases(self, scene_file):
        cfg = micro_config(scene_file, epochs=["3"])
        result = train.train_toy(cfg)
        losses = [float(result.report[f"epoch.{e}.train_loss"]) for e in (1, 2, 3)]
        assert losses[-1] < losses[0]
        assert result.final_iou is not None

    def test_deterministic_at_64_bit(self, scene_file):
        cfg_a = micro_config(scene_file, dtype=["f64"])
        cfg_b = micro_config(scene_file, dtype=["f64"])
        a = train.train_toy(cfg_a)
        b = train.train_toy(cfg_b)
        assert a.log_lines == b.log_lines
        assert a.report == b.report

    def test_zero_epochs_reports_initial_metrics(self, scene_file, tmp_path):
        cfg = micro_config(scene_file, epochs=["0"])
        result = train.train_toy(cfg)
        assert "final.miou" in result.report
        path = tmp_path / "init.ckpt"
        save_checkpoint(path, result.model)
        clone_cfg = micro_config(scene_file, epochs=["0"])
        clone = train.PillarSegNet(train.model_config(clone_cfg), seed=99)
        load_checkpoint(path, clone)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(path2, clone)
        assert path.read_bytes() == path2.read_bytes()

    def test_divergence_reports_step(self, scene_file, monkeypatch):
        cfg = micro_config(scene_file, epochs=["1"])

        def bad_loss(*args, **kwargs):
            return T.constant(np.nan)

        monkeypatch.setattr(train, "seg_loss", bad_loss)
        with pytest.raises(DivergenceError) as exc:
            train.train_toy(cfg)
        assert exc.value.step == 0

    def test_augmented_training_runs(self, scene_file):
        cfg = micro_config(scene_file, epochs=["1"],
                           augment=["flip_x", "flip_y", "rotate", "scale"])
        result = train.train_toy(cfg)
        assert np.isfinite(float(result.report["epoch.1.train_loss"]))

    def test_noise_injection_path(self, scene_file):
        cfg = micro_config(scene_file, epochs=["1"], noise_snr=["10"])
        result = train.train_toy(cfg)
        assert np.isfinite(float(result.report["epoch.1.train_loss"]))

    def test_ma_variant_runs(self, scene_file):
        cfg = micro_config(scene_file, epochs=["1"], use_ma=["true"])
        result = train.train_toy(cfg)
        assert np.isfinite(float(result.report["epoch.1.val_miou"]))

    def test_augmented_training_prepares_each_frame_once_per_use(self, scene_file,
                                                                monkeypatch):
        calls = []
        prepare = train.prepare_frame

        def counting(cfg, index, augment_seed=None):
            calls.append((index, augment_seed))
            return prepare(cfg, index, augment_seed)

        monkeypatch.setattr(train, "prepare_frame", counting)
        cfg = micro_config(scene_file, augment=["flip_x"])
        train.train_toy(cfg)
        # the validation frames once, then every epoch's augmented training frames
        assert len(calls) == cfg.val_frames + cfg.epochs * cfg.train_frames
        assert all(seed is not None for index, seed in calls if index < cfg.train_frames)

    def test_default_dtype_restored_after_training(self, scene_file):
        cfg = micro_config(scene_file, epochs=["0"])
        train.train_toy(cfg)
        assert T.constant(0.0).data.dtype == np.float64


def assert_fields_equal(a, b):
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


def per_frame_training(cfg):
    """The state table after `train_toy`'s steps, taken with one tape per
    frame and each loss scaled by 1 / batch, as `toy_step_grad_norms` takes
    its step."""
    idx = list(range(cfg.train_frames))
    packs = train.prepare_frames(cfg, idx)
    loss_cfg = train._loss_config(cfg)
    with train.model_dtype(cfg):
        net = PillarSegNet(train.model_config(cfg), seed=cfg.seed)
        opt = Adam(net.parameters(), lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2,
                   weight_decay=cfg.weight_decay)
        order_rng = np.random.default_rng(train.frame_seed(cfg.seed, 999_983))
        for _ in range(cfg.epochs):
            perm = order_rng.permutation(len(idx))
            for start in range(0, len(perm), cfg.batch_size):
                batch = perm[start : start + cfg.batch_size]
                opt.zero_grad()
                for j in batch:
                    occ = packs[j].obs_norm if cfg.use_occupancy else None
                    with T.Tape() as tape:
                        logits = net.forward_pillars(train.frame_pset(cfg, packs[j], j), cfg.grid,
                                                     occ, training=True)
                        gt = SemanticGrid(packs[j].label_grid, cfg.class_map.unlabeled_index)
                        loss = T.mul(train.seg_loss(logits, gt, loss_cfg), 1.0 / len(batch))
                    tape.backward(loss)
                opt.step()
    return net.state()


@pytest.mark.parametrize("use_ma", [True, False], ids=["ma", "baseline"])
def test_batched_step_matches_one_tape_per_frame(scene_file, use_ma):
    # train_toy records a batch's LSTM once and each frame's rest on its own
    # tape; every parameter and BatchNorm statistic must come out bitwise as
    # with one tape per frame. Without MA the batch's shared tape records
    # nothing. Batches of 3 (and a partial one) add three frames' terms
    cfg = micro_config(scene_file, use_ma=[str(use_ma).lower()], batch_size=["3"],
                       train_frames=["5"])
    got = train.train_toy(cfg).model.state()
    want = per_frame_training(cfg)
    assert got.keys() == want.keys()
    for name, value in want.items():
        a, b = (np.asarray(v.data if isinstance(v, T.Tensor) else v) for v in (got[name], value))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestPrepareFrames:
    @pytest.mark.parametrize("augmented", [False, True])
    def test_serial_packs_repeat(self, scene_file, augmented):
        cfg = micro_config(scene_file, noise_snr=["10"], augment=["flip_x", "rotate", "scale"])
        idx = [0, 1, 2]
        seeds = [train.frame_seed(5, 500_000 + i) for i in idx] if augmented else None
        packs = [train.prepare_frames(cfg, idx, seeds) for _ in range(2)]
        assert len(packs[1]) == len(idx)
        # an augmented frame caches no pillar set; frame_pset builds it
        assert all((pack.pset is None) == augmented for pack in packs[1])
        for first, again, i in zip(*packs, idx):
            assert_fields_equal(first, again)
            assert train.frame_pset(cfg, first, i).features.dtype == np.float32
        # noise_snr adds noise points to every frame
        quiet = train.prepare_frames(micro_config(scene_file), idx)
        assert all(len(noisy.cloud) > len(plain.cloud) for noisy, plain in zip(packs[0], quiet))


class TestEvalSeparation:
    def test_predictions_independent_of_labels(self, scene_file):
        cfg = micro_config(scene_file, epochs=["1"])
        result = train.train_toy(cfg)
        idx = [cfg.train_frames, cfg.train_frames + 1]
        packs = train.prepare_frames(cfg, idx)
        _, _, baseline = train.evaluate(cfg, result.model, packs, idx)
        for pack in packs:  # corrupt every label
            pack.label_grid[:] = 2
        _, _, tampered = train.evaluate(cfg, result.model, packs, idx)
        assert len(baseline) == len(idx)
        for a, b in zip(baseline, tampered):
            np.testing.assert_array_equal(a, b)


def toy_ma_config():
    values = parse_flat(packaged_text("toy.cfg"))
    values.update(use_ma=["true"], augment=["none"])
    return config.build_run_config(values)


def toy_ma_step_tape():
    """The tape of one training forward of frame 0 of the packaged toy model
    with multi-attention, as `forward_pillars` runs it, and the frame's
    pillar set."""
    cfg = toy_ma_config()
    pack = train.prepare_frame(cfg, 0)
    pset = train.frame_pset(cfg, pack, 0)
    with train.model_dtype(cfg):
        net = PillarSegNet(train.model_config(cfg), seed=cfg.seed)
        with T.Tape() as tape:
            logits = net.forward_pillars(pset, cfg.grid, pack.obs_norm, training=True)
            gt = SemanticGrid(pack.label_grid, cfg.class_map.unlabeled_index)
            T.mul(train.seg_loss(logits, gt, train._loss_config(cfg)), 1.0 / cfg.batch_size)
    return tape, pset


def test_toy_ma_step_tape_nodes():
    # the fused FeaSt op records one node per graph layer, the unfused op
    # graph recorded 15 (148 nodes in all)
    tape, _ = toy_ma_step_tape()
    assert len(tape.nodes) <= 92


def test_toy_ma_step_records_no_padded_tensor():
    # multi-attention reads a frame's points as the (V, C) rows the PFN
    # reads, so no node holds the zero-padded (P, N, C) layout; the LSTM
    # stage's scaling of that layout once recorded one. The (P, N) slot
    # scores of the pillar attention are 2-D
    tape, pset = toy_ma_step_tape()
    padded = pset.features.shape[:2]
    assert [node.data.shape for node in tape.nodes
            if node.data.ndim == 3 and node.data.shape[:2] == padded] == []


def toy_ma_batch_config():
    """The packaged toy MA run cut to one batch (frames 0 and 1), one
    validation frame and one epoch."""
    return dataclasses.replace(toy_ma_config(), train_frames=2, val_frames=1, epochs=1)


def test_toy_ma_batched_step_tape_nodes(monkeypatch):
    # the batch's shared tape plus the tape of the frame being computed: the
    # most nodes a batched step records at once, within one frame's bound
    made = []

    class Recorded(T.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train, "Tape", Recorded)
    train.train_toy(toy_ma_batch_config())
    shared, *frames = made
    assert len(frames) == 2 and len(shared.nodes) == 1
    assert len(shared.nodes) + max(len(tape.nodes) for tape in frames) <= 92


def test_toy_ma_batched_step_memory():
    # one batched two-frame toy-MA run against the same run with one tape
    # per frame: 60.8 MiB against a tracemalloc peak of 60.2 MiB. One tape
    # per batch holds both frames' graphs and their gradients at once, and
    # peaked at 75.4 MiB
    cfg = toy_ma_batch_config()
    peaks = []
    for run in (per_frame_training, train.train_toy):
        tracemalloc.start()
        try:
            run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.15 * peaks[0], [peak / 2**20 for peak in peaks]


@pytest.mark.parametrize("use_ma, bound_mib", [(False, 21), (True, 32)], ids=["baseline", "ma"])
def test_two_frame_step_memory(use_ma, bound_mib):
    # one two-frame toy batch, one validation frame: a tape drops each node's
    # gradient and backward rule once visited, and the tracemalloc peak fell
    # from 38.9 to 18.5 MiB (baseline) and from 60.8 to 28.3 MiB (MA)
    cfg = dataclasses.replace(toy_ma_batch_config(), use_ma=use_ma)
    tracemalloc.start()
    try:
        train.train_toy(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak / 2**20


def test_toy_pfn_segment_max_memory():
    # one T.segment_max forward over a toy frame's PFN rows, (V, 32) float32
    # in pillars of at most 20 points: 3,793 rows in 1,085 pillars on frame
    # 0, peaking at 1.76 MiB. The bound is one (32, pillars, 20) slab of the
    # rows padded to the longest pillar, 2.65 MiB, which the op never builds
    cfg = config.build_run_config(parse_flat(packaged_text("toy.cfg")))
    pset = train.frame_pset(cfg, train.prepare_frame(cfg, 0), 0)
    pillar_ids = np.repeat(np.arange(pset.valid_pillars), pset.valid_points)
    rows = np.random.default_rng(0).normal(size=(len(pillar_ids), cfg.pfn_channels))
    with train.model_dtype(cfg):
        x = T.constant(np.maximum(rows, 0.0))
        tracemalloc.start()
        try:
            T.segment_max(x, pillar_ids, pset.valid_pillars)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert x.data.dtype == np.float32
    assert peak < cfg.pfn_channels * pset.valid_pillars * cfg.grid.max_points * 4


def test_toy_ma_forward_tape_memory():
    # what one toy-ma training forward of frame 0 leaves held for its
    # backward: 24.0 MiB with the fusion on point rows, against 33.5 MiB
    # when it ran on every slot of the zero-padded (P, N, C) tensor
    cfg = toy_ma_config()
    pack = train.prepare_frame(cfg, 0)
    with train.model_dtype(cfg):
        net = PillarSegNet(train.model_config(cfg), seed=cfg.seed)
        pset = train.frame_pset(cfg, pack, 0)
        with T.Tape():
            tracemalloc.start()
            try:
                net.forward_pillars(pset, cfg.grid, pack.obs_norm, training=True)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    assert held < 28 * 2**20


@pytest.mark.parametrize("use_ma", [True, False])
def test_training_step_forms_no_unread_gradients(monkeypatch, use_ma):
    # a backward rule forms an operand's gradient only when the operand has
    # requires_grad; one toy-MA step used to form 12 arrays (1.37 MiB) that
    # nothing read, among them a (P, N, C) product for a constant input
    cfg = dataclasses.replace(toy_ma_config(), use_ma=use_ma)
    pack = train.prepare_frame(cfg, 0)
    unread = []
    accum = T._accum

    def spy(t, g):
        if not t.requires_grad:
            unread.append(g.shape)
        accum(t, g)

    monkeypatch.setattr(T, "_accum", spy)
    with train.model_dtype(cfg):
        net = PillarSegNet(train.model_config(cfg), seed=cfg.seed)
        with T.Tape() as tape:
            logits = net.forward_pillars(train.frame_pset(cfg, pack, 0), cfg.grid, pack.obs_norm,
                                         training=True)
            gt = SemanticGrid(pack.label_grid, cfg.class_map.unlabeled_index)
            loss = T.mul(train.seg_loss(logits, gt, train._loss_config(cfg)), 1.0 / cfg.batch_size)
            tape.backward(loss)
    params = [p for p in net.state().values() if isinstance(p, T.Tensor)]
    assert params and all(p.grad is not None for p in params)
    assert unread == []


@functools.cache
def toy_step_grad_norms(use_ma: bool) -> dict[str, float]:
    """Each parameter's gradient norm after one training step of the packaged
    toy model on frames 0 and 1, taken with one tape per frame and each loss
    scaled by 1 / batch_size, which `train_toy`'s batched step matches
    bitwise."""
    cfg = dataclasses.replace(toy_ma_config(), use_ma=use_ma)
    with train.model_dtype(cfg):
        net = PillarSegNet(train.model_config(cfg), seed=cfg.seed)
        for index in range(cfg.batch_size):
            pack = train.prepare_frame(cfg, index)
            with T.Tape() as tape:
                logits = net.forward_pillars(train.frame_pset(cfg, pack, index), cfg.grid,
                                             pack.obs_norm, training=True)
                gt = SemanticGrid(pack.label_grid, cfg.class_map.unlabeled_index)
                loss = T.mul(train.seg_loss(logits, gt, train._loss_config(cfg)),
                             1.0 / cfg.batch_size)
            tape.backward(loss)
    return {name: float(np.linalg.norm(p.grad)) for name, p in net.parameters().items()}


@pytest.mark.parametrize("use_ma, graph_stage", [
    (False, False),
    (True, False),
    pytest.param(True, True, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: the key-node graph stage gives every node nearly "
                            "the same output, so its steering gradients sit near rounding")),
], ids=["baseline", "ma", "ma-graph"])
def test_every_parameter_gets_a_gradient(use_ma, graph_stage):
    # a parameter whose gradient is rounding noise is one the loss cannot
    # move, as the nine biases in front of a BatchNorm were (8e-9 to 9e-8 on
    # the baseline, against a median of 0.146), yet Adam steps it by about
    # the learning rate
    norms = toy_step_grad_norms(use_ma)
    floor = 1e-4 * np.median(list(norms.values()))
    below = {name: norm for name, norm in norms.items()
             if name.startswith("ma.graph.") == graph_stage and not norm > floor}
    assert not below, f"gradient norms below {floor:.3g}: {below}"
