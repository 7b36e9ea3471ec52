"""Loss formulas: weighted segmentation cross entropy and the standalone
detection losses (box residual regression, focal classification, direction)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .labels import SemanticGrid
from .nn import tensor as T
from .nn.tensor import Tensor


@dataclass
class SegLossConfig:
    """Per-merged-class weights for the segmentation loss, as checked by
    :class:`~pillarseg.config.RunConfig`: float64, one per merged class, and
    positive for every supervised class; the unlabeled entry is never read."""

    class_weights: np.ndarray
    unlabeled_index: int

    @property
    def supervised_indices(self) -> list[int]:
        return [i for i in range(len(self.class_weights)) if i != self.unlabeled_index]


def seg_loss(logits: Tensor, gt: SemanticGrid, cfg: SegLossConfig) -> Tensor:
    """Mean over labeled cells of the weighted negative log softmax probability
    of the true class; unlabeled cells contribute nothing."""
    k, h, w = logits.data.shape
    supervised = cfg.supervised_indices
    if k != len(supervised):
        raise ShapeError(f"logits have {k} channels but {len(supervised)} supervised classes")
    labeled = gt.labels != cfg.unlabeled_index
    m = int(labeled.sum())
    if m == 0:
        raise ShapeError("no labeled cells to supervise")
    rows, cols = np.nonzero(labeled)
    merged = gt.labels[rows, cols].astype(np.int64)

    to_channel = np.full(len(cfg.class_weights), -1, dtype=np.int64)
    for ch, merged_idx in enumerate(supervised):
        to_channel[merged_idx] = ch
    channels = to_channel[merged]

    flat = T.reshape(logits, (k, h * w))
    cells = T.gather_rows(T.transpose(flat, (1, 0)), rows * w + cols)  # (M, K)
    lam = cfg.class_weights[merged]
    onehot = np.zeros((m, k))
    onehot[np.arange(m), channels] = 1.0

    log_probs = T.log_softmax(cells, axis=1)
    picked = T.tsum(T.mul(log_probs, T.constant(onehot)), axis=1)
    return T.mul(T.tsum(T.mul(picked, T.constant(lam))), -1.0 / m)


# ---------------------------------------------------------------------------
# detection-task loss formulas (standalone operations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box3D:
    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float

    def __post_init__(self):
        if self.w <= 0 or self.l <= 0 or self.h <= 0:
            raise ConfigError(f"box dimensions must be positive: {self.w}, {self.l}, {self.h}")


@dataclass(frozen=True)
class DetLossConfig:
    alpha: float = 0.25
    gamma: float = 2.0
    beta_loc: float = 2.0
    beta_cls: float = 1.0
    beta_dir: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.gamma < 0 or min(self.beta_loc, self.beta_cls, self.beta_dir) < 0:
            raise ConfigError("gamma and loss weights must be non-negative")


def box_residuals(gt: Box3D, anchor: Box3D) -> np.ndarray:
    """Seven regression targets (x, y, z, w, l, h, theta).

    Center offsets normalize by the anchor's ground diagonal (z by its
    height), dimensions are log ratios, and the angle residual is
    sin(theta_gt - theta_anchor)."""
    diag = math.sqrt(anchor.w**2 + anchor.l**2)
    return np.array([
        (gt.x - anchor.x) / diag,
        (gt.y - anchor.y) / diag,
        (gt.z - anchor.z) / anchor.h,
        math.log(gt.w / anchor.w),
        math.log(gt.l / anchor.l),
        math.log(gt.h / anchor.h),
        math.sin(gt.theta - anchor.theta),
    ])


def smooth_l1(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < 1.0, 0.5 * x * x, np.abs(x) - 0.5)


def focal_loss(p: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if (p <= 0).any() or (p > 1).any():
        raise ConfigError("anchor class probabilities must lie in (0, 1]")
    return -alpha * (1.0 - p) ** gamma * np.log(p)


def det_losses(
    residuals: np.ndarray,
    class_probs: np.ndarray,
    dir_logits: np.ndarray,
    dir_targets: np.ndarray,
    cfg: DetLossConfig,
    n_pos: int,
) -> tuple[float, float, float, float]:
    """(L_loc, L_cls, L_dir, L_total); components are sums over the positive
    anchors, the total is the weighted sum divided by ``n_pos``."""
    if n_pos < 1:
        raise ConfigError("n_pos must be at least 1")
    residuals = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
    if residuals.shape[1] != 7:
        raise ShapeError(f"expected 7 residuals per anchor, got {residuals.shape}")
    l_loc = float(smooth_l1(residuals).sum())
    l_cls = float(focal_loss(class_probs, cfg.alpha, cfg.gamma).sum())

    dir_logits = np.atleast_2d(np.asarray(dir_logits, dtype=np.float64))
    dir_targets = np.asarray(dir_targets, dtype=np.int64).reshape(-1)
    shifted = dir_logits - dir_logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    l_dir = float(-log_probs[np.arange(len(dir_targets)), dir_targets].sum())

    total = (cfg.beta_loc * l_loc + cfg.beta_cls * l_cls + cfg.beta_dir * l_dir) / n_pos
    return l_loc, l_cls, l_dir, total
