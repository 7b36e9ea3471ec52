"""Top-view pillar rasterization and the (P, N, C) feature tensor.

Cells are half-open along x and y: a point on a shared boundary belongs to
the cell whose low edge it sits on, so assignment is total and deterministic.
Row index follows y, column index follows x.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataio import PointCloud
from .errors import ConfigError, ShapeError
from .flat import Positive, Size

AUGMENTED_CHANNELS = 10  # x, y, z, r, dxyz to pillar mean, dxyz to cell center


@dataclass(frozen=True)
class GridConfig:
    """Crop ranges and pillar geometry of the top-view grid."""

    x_range: tuple[float, float] = (-16.0, 16.0)
    y_range: tuple[float, float] = (-16.0, 16.0)
    z_range: tuple[float, float] = (-1.0, 3.0)
    pillar_size: tuple[Positive, Positive, Positive] = (0.5, 0.5, 0.25)
    max_points: Size = 20
    max_pillars: Size = 4096

    def __post_init__(self):
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range), ("z", self.z_range)):
            if not hi > lo:
                raise ConfigError(f"{name}_range max must exceed min, got [{lo}, {hi}]")
        for name, (lo, hi), step in (
            ("x", self.x_range, self.pillar_size[0]),
            ("y", self.y_range, self.pillar_size[1]),
        ):
            cells = (hi - lo) / step
            if abs(cells - round(cells)) > 1e-6:
                raise ConfigError(f"{name}_range extent is not a multiple of pillar_size")

    @property
    def width(self) -> int:
        return int(round((self.x_range[1] - self.x_range[0]) / self.pillar_size[0]))

    @property
    def height(self) -> int:
        return int(round((self.y_range[1] - self.y_range[0]) / self.pillar_size[1]))

    @property
    def depth(self) -> int:
        cells = (self.z_range[1] - self.z_range[0]) / self.pillar_size[2]
        return max(1, int(round(cells)))

    @property
    def z_center(self) -> float:
        return 0.5 * (self.z_range[0] + self.z_range[1])

    def cell_centers_xy(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """World (x, y) of cell centers for the given (row, col) indices."""
        x = self.x_range[0] + (np.asarray(cols) + 0.5) * self.pillar_size[0]
        y = self.y_range[0] + (np.asarray(rows) + 0.5) * self.pillar_size[1]
        return np.column_stack([x, y])


@dataclass(frozen=True)
class PillarSet:
    """The occupied pillars of a frame, one row each.

    ``features`` is (valid_pillars, max_points, C) with rows in ascending
    (row, col) order; slots at or beyond a row's ``valid_points`` are exactly
    zero.
    """

    features: np.ndarray
    pillar_coords: np.ndarray  # (valid_pillars, 2) int, (row, col)
    valid_points: np.ndarray  # (valid_pillars,) int
    valid_pillars: int

    @property
    def mask(self) -> np.ndarray:
        """(valid_pillars, max_points) bool validity mask."""
        n = self.features.shape[1]
        return np.arange(n)[None, :] < self.valid_points[:, None]


def crop_mask(xyz: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Points inside the half-open crop box [min, max) on all three axes."""
    m = np.ones(len(xyz), dtype=bool)
    for axis, (lo, hi) in enumerate((cfg.x_range, cfg.y_range, cfg.z_range)):
        m &= (xyz[:, axis] >= lo) & (xyz[:, axis] < hi)
    return m


def cell_indices(xyz: np.ndarray, cfg: GridConfig) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) cell index per point; caller guarantees points are in range."""
    cols = np.floor((xyz[:, 0] - cfg.x_range[0]) / cfg.pillar_size[0]).astype(np.int64)
    rows = np.floor((xyz[:, 1] - cfg.y_range[0]) / cfg.pillar_size[1]).astype(np.int64)
    np.clip(cols, 0, cfg.width - 1, out=cols)
    np.clip(rows, 0, cfg.height - 1, out=rows)
    return rows, cols


def pillarize(cloud: PointCloud, cfg: GridConfig, rng_seed: int = 0) -> PillarSet:
    """Crop and rasterize a cloud into its occupied pillars of raw (x, y, z, r)
    channels; see :class:`PillarSet`.

    Pillar overflow beyond ``max_pillars`` and then, in output order, each
    pillar's overflow beyond ``max_points`` are resolved by seeded uniform
    sampling without replacement; when nothing overflows the output is
    seed-independent.
    """
    n_max = cfg.max_points
    keep = crop_mask(cloud.xyz, cfg)
    pts = np.column_stack([cloud.xyz[keep], cloud.reflectance[keep]]).astype(np.float64)
    rows, cols = cell_indices(pts, cfg)
    uniq, inverse, counts = np.unique(rows * cfg.width + cols, return_inverse=True,
                                      return_counts=True)
    rng: np.random.Generator | None = None

    pillar_ids = np.arange(len(uniq))
    if len(uniq) > cfg.max_pillars:
        rng = np.random.default_rng(rng_seed)
        pillar_ids = np.sort(rng.choice(len(uniq), size=cfg.max_pillars, replace=False))

    # stable grouping: points of each pillar in cloud order; a point's slot is
    # its rank there, or the rank of its draw in an overflowing pillar
    order = np.argsort(inverse, kind="stable")
    starts = np.cumsum(counts) - counts
    slot = np.arange(len(order)) - np.repeat(starts, counts)
    for pid in pillar_ids[counts[pillar_ids] > n_max]:
        if rng is None:
            rng = np.random.default_rng(rng_seed)
        sel = np.sort(rng.choice(int(counts[pid]), size=n_max, replace=False))
        slot[starts[pid] : starts[pid] + counts[pid]] = n_max
        slot[starts[pid] + sel] = np.arange(n_max)

    out_row = np.full(len(uniq), -1)
    out_row[pillar_ids] = np.arange(len(pillar_ids))
    row = out_row[inverse[order]]
    take = (slot < n_max) & (row >= 0)
    features = np.zeros((len(pillar_ids), n_max, 4))
    features[row[take], slot[take]] = pts[order[take]]
    coords = np.column_stack([uniq[pillar_ids] // cfg.width, uniq[pillar_ids] % cfg.width])
    return PillarSet(features, coords, np.minimum(counts[pillar_ids], n_max), len(pillar_ids))


def augment_points(pset: PillarSet, cfg: GridConfig) -> PillarSet:
    """Expand raw (x, y, z, r) channels to the 10-channel encoding.

    Adds per-point offsets to the arithmetic mean of the pillar's valid points
    and offsets to the pillar's geometric cell center (z offset taken to the
    z-range midpoint). Padded slots stay zero.
    """
    if pset.features.shape[2] != 4:
        raise ShapeError(f"expected raw 4-channel features, got {pset.features.shape[2]}")
    v, n_max, _ = pset.features.shape
    out = np.zeros((v, n_max, AUGMENTED_CHANNELS), dtype=pset.features.dtype)
    out[:, :, :4] = pset.features

    mask = pset.mask
    counts = np.maximum(pset.valid_points, 1).astype(np.float64)
    xyz = pset.features[:, :, :3]
    means = xyz.sum(axis=1) / counts[:, None]
    centers = pillar_centers(pset, cfg)

    out[:, :, 4:7] = np.where(mask[:, :, None], xyz - means[:, None, :], 0.0)
    out[:, :, 7:10] = np.where(mask[:, :, None], xyz - centers[:, None, :], 0.0)
    return replace(pset, features=out)


def compact(pset: PillarSet) -> PillarSet:
    """Float32 form of a pillar set, the form that frames train and infer on."""
    return replace(pset, features=pset.features.astype(np.float32))


def pillar_centers(pset: PillarSet, cfg: GridConfig) -> np.ndarray:
    """(valid_pillars, 3) geometric cell centers of the pillars."""
    xy = cfg.cell_centers_xy(pset.pillar_coords[:, 0], pset.pillar_coords[:, 1])
    return np.column_stack([xy, np.full(len(xy), cfg.z_center)])
