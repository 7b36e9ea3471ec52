"""Desk-scale training and evaluation on synthetic scenes."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import augment as aug
from . import labels as lab
from . import occupancy as occ
from . import pillars as pil
from .config import RunConfig
from .dataio import PointCloud, generate_synthetic_frame
from .errors import DivergenceError
from .losses import SegLossConfig, seg_loss
from .metrics import IoUAccumulator, IoUResult
from .model import ModelConfig, PillarSegNet
from .nn import Adam, Tape
from .nn import tensor as T

_FRAME_SEED_STRIDE = 1_000_003


@dataclass
class FramePack:
    """Precomputed per-frame training data in the current sensor frame."""

    cloud: PointCloud
    classes: np.ndarray
    label_grid: np.ndarray  # (H, W) merged indices
    obs_norm: np.ndarray  # (H, W) in [0, 1]
    visible: np.ndarray  # (H, W) bool, observability count > 0
    pset: pil.PillarSet | None = None  # cached unless the frame is augmented


@dataclass
class TrainResult:
    model: PillarSegNet
    log_lines: list[str]
    report: dict[str, str]
    final_iou: IoUResult


def frame_seed(base: int, index: int) -> int:
    return base * _FRAME_SEED_STRIDE + index


def model_config(cfg: RunConfig) -> ModelConfig:
    """The model of a run: every field that ``ModelConfig`` shares with
    ``RunConfig`` is copied by name."""
    shared = {f.name for f in fields(ModelConfig)} & {f.name for f in fields(RunConfig)}
    return ModelConfig(num_classes=cfg.class_map.num_supervised, max_points=cfg.grid.max_points,
                       **{name: getattr(cfg, name) for name in shared})


def label_config(cfg: RunConfig) -> lab.LabelGenConfig:
    return lab.LabelGenConfig(cfg.label_weights.copy(), cfg.class_map.unlabeled_index,
                              cfg.pose_threshold, lab.static_classes(cfg.class_map))


def prepare_frame(cfg: RunConfig, index: int, augment_seed: int | None = None) -> FramePack:
    """Synthesize and preprocess one frame; ``augment_seed`` applies a world
    transform before any derived product so labels and occupancy stay
    consistent with the transformed cloud."""
    cloud, classes = generate_synthetic_frame(frame_seed(cfg.seed, index), cfg.scene,
                                              cfg.class_map)
    if cfg.noise_snr is not None:
        before = len(cloud)
        cloud = occ.inject_noise(cloud, cfg.noise_snr, frame_seed(cfg.seed, index) + 1,
                                 cfg.grid)
        classes = np.concatenate([
            classes, np.full(len(cloud) - before, cfg.class_map.unlabeled_index)
        ])
    augmented = augment_seed is not None and cfg.augment.enabled
    if augmented:
        xyz = aug.apply_augment(cloud.xyz, cfg.augment, augment_seed)
        cloud = PointCloud(xyz.astype(np.float32), cloud.reflectance)
    grid = cfg.grid
    label_grid = lab.sparse_labels(cloud.xyz.astype(np.float64), classes, grid,
                                   label_config(cfg)).labels
    omap = occ.observability(cloud, grid)
    pack = FramePack(cloud, classes, label_grid, omap.normalized(), omap.counts > 0)
    if not augmented:
        pack.pset = frame_pset(cfg, pack, index)
    return pack


def prepare_frames(cfg: RunConfig, indices, augment_seeds=None):
    seeds = augment_seeds or [None] * len(indices)
    return [prepare_frame(cfg, i, s) for i, s in zip(indices, seeds)]


def frame_pset(cfg: RunConfig, pack: FramePack, index: int) -> pil.PillarSet:
    """The pack's cached pillar set, or one built from its cloud when none is
    cached (an augmented frame); either is in :func:`pillars.compact` form."""
    if pack.pset is not None:
        return pack.pset
    pset = pil.pillarize(pack.cloud, cfg.grid, frame_seed(cfg.seed, index))
    return pil.compact(pil.augment_points(pset, cfg.grid))


def _loss_config(cfg: RunConfig) -> SegLossConfig:
    return SegLossConfig(cfg.loss_weights.copy(), cfg.class_map.unlabeled_index)


def evaluate(cfg: RunConfig, net: PillarSegNet, packs: list[FramePack],
             indices) -> tuple[float, IoUResult, list[np.ndarray]]:
    """Mean validation loss, dataset-level IoU on visible labeled cells, and
    the (H, W) prediction of each frame.

    Frames are inferred ``batch_size`` at a time: a chunk runs its
    multi-attention LSTM in one time loop, and the rest of each frame runs
    lazily, when its loss is taken. Each frame's logits are bitwise those of
    a chunk of one. A prediction never reads the frame's labels: they enter
    only the loss and the IoU.
    """
    loss_cfg = _loss_config(cfg)
    supervised = cfg.class_map.supervised_indices
    acc = IoUAccumulator(supervised, cfg.class_map.unlabeled_index)
    losses_sum = 0.0
    preds = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is the caller's
        for start in range(0, len(packs), cfg.batch_size):
            chunk = list(zip(packs[start:start + cfg.batch_size],
                             indices[start:start + cfg.batch_size]))
            psets = [frame_pset(cfg, pack, index) for pack, index in chunk]
            occs = [pack.obs_norm if cfg.use_occupancy else None for pack, _ in chunk]
            logits = net.frame_logits(psets, cfg.grid, occs, training=False)
            for (pack, _), frame_logits in zip(chunk, logits):
                gt = lab.SemanticGrid(pack.label_grid, cfg.class_map.unlabeled_index)
                losses_sum += seg_loss(frame_logits, gt, loss_cfg).item()
                pred = net.predict(frame_logits, supervised)
                preds.append(pred)
                acc.add(pred, pack.label_grid, pack.visible)
    return losses_sum / len(packs), acc.result(), preds


@contextmanager
def model_dtype(cfg: RunConfig):
    """Build and run tensors in the configured dtype; float64 again on exit."""
    T.set_default_dtype(np.float64 if cfg.dtype == "f64" else np.float32)
    try:
        yield
    finally:
        T.set_default_dtype(np.float64)


def train_toy(cfg: RunConfig, progress=None) -> TrainResult:
    """Adam training of the segmentation loss over synthetic frames.

    Deterministic for a fixed config and seed. Raises
    :class:`DivergenceError` on a non-finite training or validation loss.
    """
    with model_dtype(cfg):
        return _train_toy_inner(cfg, progress)


def _train_toy_inner(cfg: RunConfig, progress) -> TrainResult:
    train_idx = list(range(cfg.train_frames))
    val_idx = list(range(cfg.train_frames, cfg.train_frames + cfg.val_frames))
    # with augmentation every epoch prepares its own transformed frames
    train_packs = None if cfg.augment.enabled else prepare_frames(cfg, train_idx)
    val_packs = prepare_frames(cfg, val_idx)

    net = PillarSegNet(model_config(cfg), seed=cfg.seed)
    opt = Adam(net.parameters(), lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2,
               weight_decay=cfg.weight_decay)
    loss_cfg = _loss_config(cfg)
    order_rng = np.random.default_rng(frame_seed(cfg.seed, 999_983))

    log_lines: list[str] = []
    report: dict[str, str] = {"epochs": str(cfg.epochs)}
    step = 0

    def emit(line: str):
        log_lines.append(line)
        if progress is not None:
            progress(line)

    if cfg.epochs == 0:
        val_loss, final_iou, _ = evaluate(cfg, net, val_packs, val_idx)
        emit(f"epoch 0 val_loss {val_loss:.10g} val_miou {final_iou.miou:.10g}")

    for epoch in range(1, cfg.epochs + 1):
        perm = order_rng.permutation(len(train_idx))
        if cfg.augment.enabled:
            aug_seeds = [frame_seed(cfg.seed, 500_000 + epoch * len(train_idx) + i)
                         for i in train_idx]
            epoch_packs = prepare_frames(cfg, train_idx, aug_seeds)
        else:
            epoch_packs = train_packs

        epoch_loss = 0.0
        for start in range(0, len(perm), cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            packs = [epoch_packs[j] for j in batch]
            psets = [frame_pset(cfg, pack, train_idx[j]) for pack, j in zip(packs, batch)]
            occs = [pack.obs_norm if cfg.use_occupancy else None for pack in packs]
            opt.zero_grad()
            batch_loss = 0.0
            # the batch's LSTM runs once, on a tape of its own, and each frame's
            # rest on another, differentiated before the next frame runs; the
            # LSTM tape goes last, with the gradients the frames left on it.
            # So every gradient and BatchNorm statistic is bitwise that of one
            # tape per frame. `tape` keeps the last frame's graph alive until
            # the next is built, though after its backward only the node
            # outputs: freed first, its memory goes back to the system and the
            # next frame faults it in again
            with Tape() as shared:
                logits = net.frame_logits(psets, cfg.grid, occs, training=True)
            for pack in packs:
                with Tape() as tape:
                    gt = lab.SemanticGrid(pack.label_grid, cfg.class_map.unlabeled_index)
                    loss = T.mul(seg_loss(next(logits), gt, loss_cfg), 1.0 / len(batch))
                value = loss.item()
                if not math.isfinite(value):
                    raise DivergenceError(step)
                tape.backward(loss)
                batch_loss += value
                step += 1
            shared.backward(None)
            opt.step()
            epoch_loss += batch_loss * len(batch)
        epoch_loss /= len(perm)

        val_loss, final_iou, _ = evaluate(cfg, net, val_packs, val_idx)
        if not math.isfinite(val_loss):  # a divergence on the epoch's last step
            raise DivergenceError(step, f"non-finite validation loss after epoch {epoch}")
        emit(f"epoch {epoch} train_loss {epoch_loss:.10g} val_loss {val_loss:.10g} "
             f"val_miou {final_iou.miou:.10g}")
        report[f"epoch.{epoch}.train_loss"] = repr(epoch_loss)
        report[f"epoch.{epoch}.val_loss"] = repr(val_loss)
        report[f"epoch.{epoch}.val_miou"] = repr(final_iou.miou)

    report["final.miou"] = repr(final_iou.miou)
    for k, v in final_iou.defined().items():
        report[f"final.iou.{cfg.class_map.class_names[k]}"] = repr(v)
    return TrainResult(net, log_lines, report, final_iou)
