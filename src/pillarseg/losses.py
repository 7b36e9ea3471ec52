"""Weighted segmentation cross entropy over the labeled cells of a frame."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
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
