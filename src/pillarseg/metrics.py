"""Evaluation metrics: dataset-level per-class IoU / mIoU, accumulated frame
by frame over visible labeled cells."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class IoUResult:
    per_class: np.ndarray  # indexed by merged class id; NaN where undefined
    miou: float
    evaluated_cells: int

    def defined(self) -> dict[int, float]:
        return {i: float(v) for i, v in enumerate(self.per_class) if np.isfinite(v)}


class IoUAccumulator:
    """Dataset-level IoU from a confusion matrix over visible labeled cells.

    ``confusion[g, p]`` counts the cells of ground-truth class g predicted as
    class p; each frame adds its counts. Classes absent from prediction and
    ground truth are reported as NaN and excluded from the mean.
    """

    def __init__(self, supervised_indices, unlabeled_index: int):
        self.supervised = np.asarray(list(supervised_indices), dtype=np.int64)
        self.unlabeled = unlabeled_index
        self.size = int(max(self.supervised.max(), unlabeled_index)) + 1
        self.confusion = np.zeros((self.size, self.size), dtype=np.int64)

    def add(self, pred: np.ndarray, gt: np.ndarray, visible: np.ndarray) -> None:
        if pred.shape != gt.shape or pred.shape != visible.shape:
            raise ShapeError(f"shape mismatch: pred {pred.shape}, gt {gt.shape}, "
                             f"visible {visible.shape}")
        mask = visible & (gt != self.unlabeled)
        g = gt[mask].astype(np.int64)
        p = pred[mask].astype(np.int64)
        if g.size and (min(g.min(), p.min()) < 0 or max(g.max(), p.max()) >= self.size):
            raise ConfigError(f"class ids must lie in [0, {self.size})")
        counts = np.bincount(g * self.size + p, minlength=self.size * self.size)
        self.confusion += counts.reshape(self.size, self.size)

    def result(self) -> IoUResult:
        inter = np.diagonal(self.confusion)
        union = self.confusion.sum(axis=0) + self.confusion.sum(axis=1) - inter
        per_class = np.full(self.size, np.nan)
        k = self.supervised[union[self.supervised] > 0]
        per_class[k] = inter[k] / union[k]
        defined = per_class[np.isfinite(per_class)]
        miou = float(defined.mean()) if defined.size else float("nan")
        return IoUResult(per_class, miou, int(self.confusion.sum()))
