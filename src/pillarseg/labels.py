"""Top-view semantic label generation.

Sparse labels come from a single sweep via a weighted per-cell argmax over
class histograms; dense labels additionally pull static-class points from
pose-aligned nearby frames before the same argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import ClassMap, Frame
from .errors import ConfigError
from .pillars import GridConfig, cell_indices, crop_mask


@dataclass
class LabelGenConfig:
    """Per-class argmax weights and densification parameters, as checked by
    :class:`~pillarseg.config.RunConfig`: float64 ``class_weights`` >= 0 per
    merged class, 0 at ``unlabeled_index``, and a positive ``pose_threshold``
    or None, which means "twice the farthest point distance of the current
    frame", recomputed per frame. ``static_classes`` are the merged indices
    imported from nearby frames during densification.
    """

    class_weights: np.ndarray  # (num_merged,)
    unlabeled_index: int
    pose_threshold: float | None = None
    static_classes: frozenset[int] = field(default_factory=frozenset)


# merged classes whose objects can move between frames, so densification
# imports none of their points: the SemanticKITTI merge's and the moving
# classes of nuScenes-LidarSeg
MOVABLE_CLASSES = frozenset({
    "vehicle", "person", "two-wheel", "rider",
    "car", "bus", "truck", "trailer", "const-vehicle", "motorcycle", "bicycle", "pedestrian",
})


def static_classes(class_map: ClassMap) -> frozenset[int]:
    """Merged indices that densification imports from nearby frames: every
    class but the unlabeled one and the movable ones."""
    return frozenset(i for i, name in enumerate(class_map.class_names)
                     if name not in MOVABLE_CLASSES and i != class_map.unlabeled_index)


@dataclass(frozen=True)
class SemanticGrid:
    """(H, W) class-id map; cells with no points carry the unlabeled index."""

    labels: np.ndarray  # (H, W) int16
    unlabeled_index: int
    histograms: np.ndarray | None = None  # (H, W, K) int64 counts


def class_histograms(
    xyz: np.ndarray, classes: np.ndarray, cfg: GridConfig, num_classes: int
) -> np.ndarray:
    """(H, W, K) per-cell class counts of in-range points."""
    hist = np.zeros((cfg.height, cfg.width, num_classes), dtype=np.int64)
    keep = crop_mask(xyz, cfg)
    if not keep.any():
        return hist
    rows, cols = cell_indices(xyz[keep], cfg)
    np.add.at(hist, (rows, cols, classes[keep].astype(np.int64)), 1)
    return hist


def argmax_labels(hist: np.ndarray, lcfg: LabelGenConfig) -> np.ndarray:
    """Weighted per-cell argmax; zero weighted mass yields the unlabeled index.

    Ties break toward the lowest class index.
    """
    weighted = hist * lcfg.class_weights
    best = weighted.argmax(axis=2)  # argmax takes the first maximum: lowest index
    labels = np.where(weighted.max(axis=2) > 0, best, lcfg.unlabeled_index)
    return labels.astype(np.int16)


def sparse_labels(
    xyz: np.ndarray, classes: np.ndarray, cfg: GridConfig, lcfg: LabelGenConfig
) -> SemanticGrid:
    """Single-sweep top-view labels via the weighted argmax."""
    hist = class_histograms(xyz, classes, cfg, len(lcfg.class_weights))
    return SemanticGrid(argmax_labels(hist, lcfg), lcfg.unlabeled_index, hist)


def densify(
    current: int, frames: list[Frame], cfg: GridConfig, lcfg: LabelGenConfig
) -> SemanticGrid:
    """Multi-frame labels in the current frame's coordinates.

    Nearby frames (Euclidean ego-translation distance strictly below the
    threshold) contribute only static-class points; the current frame
    contributes everything. The threshold defaults to twice the farthest
    point distance of the current frame.
    """
    ref = frames[current]
    if ref.pose is None or any(f.pose is None for f in frames):
        raise ConfigError("densify requires a pose for every frame")
    if ref.classes is None:
        raise ConfigError("densify requires per-point classes")

    threshold = lcfg.pose_threshold
    if threshold is None:
        if len(ref.cloud) == 0:
            raise ConfigError("cannot derive pose threshold from an empty frame")
        threshold = 2.0 * float(np.linalg.norm(ref.cloud.xyz.astype(np.float64), axis=1).max())

    num_classes = len(lcfg.class_weights)
    hist = class_histograms(ref.cloud.xyz.astype(np.float64), ref.classes, cfg, num_classes)

    inv_ref = ref.pose.inverse()
    static = np.zeros(num_classes, dtype=bool)
    for idx in lcfg.static_classes:
        static[idx] = True

    for i, frame in enumerate(frames):
        if i == current:
            continue
        dist = float(np.linalg.norm(frame.pose.translation - ref.pose.translation))
        if dist >= threshold:
            continue
        keep = static[frame.classes.astype(np.int64)]
        if not keep.any():
            continue
        world = frame.pose.apply(frame.cloud.xyz[keep].astype(np.float64))
        local = inv_ref.apply(world)
        hist += class_histograms(local, frame.classes[keep], cfg, num_classes)

    return SemanticGrid(argmax_labels(hist, lcfg), lcfg.unlabeled_index, hist)
