"""Ray-cast occupancy features: 2D observability counts and 3D visibility states.

One batched supercover traversal serves both, from an origin on or off the
grid. It steps every ray of a scan at once in the manner of Amanatides and
Woo's incremental grid stepping: a vectorized Liang-Barsky clip to the grid
box, then per ray its current cell, the steps left to its end cell, its step
directions and its next-crossing parameters `tmax`/`tdelta`, with the rays
that have finished dropped from the working set after each step. Rays are
cast in 2D for observability, whose counts are a bincount of the visited
cells, and in 3D for visibility.

Traversal contract. Each ray emits every cell whose closed rectangle (box in
3D) meets the segment clipped to the grid, however short the chord it cuts
off. Crossings whose segment parameters t lie within `_TIE_TOL` of each other
count as one exact corner crossing (voxel edge or vertex in 3D): all touching
neighbours are emitted, the partially stepped ones first, subsets of the tied
axes in `itertools.combinations` order, then the diagonal one. An emitted
cell may therefore lie up to about `_TIE_TOL * |segment|` from the segment
instead of touching it. A cell that the segment meets only on a grid line it
does not cross (an axis-parallel segment on that line, or an endpoint on it)
is emitted only when it holds the segment's points under the floor
convention. The scalar reference in the tests follows the same steps one ray
at a time, and the tests require bitwise-equal results.

A ray may stop early at a cell of a "stop" mask, which is then its last
emitted cell. Visibility stops each 3D ray at the first voxel that holds a
point: a voxel without points that some ray passes is FREE, a point-bearing
voxel where some ray stops is OCCUPIED, and every other voxel is UNKNOWN.
Each ray's path is fixed by its own geometry and the mask, never by what
other rays marked, so the states do not depend on the order of the rays and
all of them can be cast together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .dataio import PointCloud
from .errors import ConfigError
from .pillars import GridConfig, crop_mask

# states of the 3D visibility grid
UNKNOWN = 0
FREE = 1
OCCUPIED = 2

_TIE_TOL = 1e-12  # tie tolerance on the segment parameter t in [0, 1]


@dataclass(frozen=True)
class ObservabilityMap:
    """Dense per-cell ray-pass counts on the top-view grid."""

    counts: np.ndarray  # (H, W) int64

    def normalized(self) -> np.ndarray:
        """log(1 + count) scaled by the frame maximum, in [0, 1]."""
        peak = self.counts.max()
        if peak <= 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return np.log1p(self.counts) / math.log1p(peak)


@dataclass(frozen=True)
class VoxelStateGrid:
    """(H, W, D) grid over {UNKNOWN, FREE, OCCUPIED}."""

    states: np.ndarray


class _Lattice(NamedTuple):
    """Box, cell size and cell counts per axis (x, y[, z]), and the strides
    that map a cell to its flat index in the (H, W[, D]) output array."""

    lo: np.ndarray
    hi: np.ndarray
    size: np.ndarray
    shape: np.ndarray
    strides: np.ndarray


def _lattice(cfg: GridConfig, ndim: int) -> _Lattice:
    """The top-view grid (ndim 2) or the voxel grid (ndim 3) of `cfg`."""
    depth = cfg.depth
    lo = np.array([cfg.x_range[0], cfg.y_range[0], cfg.z_range[0]])
    hi = np.array([cfg.x_range[1], cfg.y_range[1], cfg.z_range[1]])
    # z voxels tile the extent exactly even when it is not a multiple of dz
    size = np.array([cfg.pillar_size[0], cfg.pillar_size[1], (hi[2] - lo[2]) / depth])
    shape = np.array([cfg.width, cfg.height, depth])
    strides = np.array([1, cfg.width] if ndim == 2 else [depth, cfg.width * depth, 1])
    return _Lattice(lo[:ndim], hi[:ndim], size[:ndim], shape[:ndim], strides)


def _cells(u: np.ndarray, lat: _Lattice) -> np.ndarray:
    """Floor cells of points in cell units, clamped to the grid."""
    return np.clip(np.floor(u).astype(np.int64), 0, lat.shape - 1)


def _clip(p0: np.ndarray, p1: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Liang-Barsky clip of the segments from p0 to each row of p1 to the
    closed box [lo, hi]: the clipped ends of the segments that meet it."""
    d = p1 - p0
    t0 = np.zeros(len(d))
    t1 = np.ones(len(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(len(lo)):
            # where d == 0 these are infinite or NaN: they leave [t0, t1] as it
            # is when p0 lies in [lo, hi] on this axis, and empty it otherwise
            ta = (lo[axis] - p0[axis]) / d[:, axis]
            tb = (hi[axis] - p0[axis]) / d[:, axis]
            t0 = np.fmax(t0, np.minimum(ta, tb))
            t1 = np.fmin(t1, np.maximum(ta, tb))
    ok = t0 <= t1
    d = d[ok]
    return p0 + t0[ok, None] * d, p0 + t1[ok, None] * d


def _tie_subsets(ndim: int) -> list[tuple[int, list[list[int]]]]:
    """For each set of two or more tied axes, its bit code and the partially
    stepped neighbours to emit, as axis lists in combinations order."""
    table = []
    for k in range(2, ndim + 1):
        for tied in combinations(range(ndim), k):
            subsets = [list(s) for size in range(1, k) for s in combinations(tied, size)]
            table.append((sum(1 << i for i in tied), subsets))
    return table


def _traverse(origin: np.ndarray, endpoints: np.ndarray, lat: _Lattice,
              stop: np.ndarray | None = None) -> np.ndarray:
    """Flat indices of the cells that the rays from origin to each endpoint visit.

    Each ray is clipped to the grid box first; rays that miss it visit
    nothing. A ray ends at its endpoint's cell or, when `stop` (a flat bool
    mask over the output array) is given, at the first stop cell it visits.
    One ray's cells appear in traversal order; rays are interleaved.
    """
    q0, q1 = _clip(origin, endpoints, lat.lo, lat.hi)
    u0 = (q0 - lat.lo) / lat.size
    u1 = (q1 - lat.lo) / lat.size
    cur = _cells(u0, lat)
    d = u1 - u0
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        tmax = np.where(step != 0, (cur + (step > 0) - u0) / d, np.inf)
        tdelta = np.where(step != 0, np.abs(1.0 / d), np.inf)
    flat = cur @ lat.strides
    # per-axis state, one row per axis and one column per ray: steps left (a
    # ray steps only towards its end cell, so `rem > 0` marks exactly the axes
    # with cur != end and a nonzero step) and flat-index steps in `ints`; next
    # crossings and crossing spacings in t in `floats`
    k = len(lat.shape)
    ints = np.vstack([np.abs(_cells(u1, lat) - cur).T, (step * lat.strides).T])
    floats = np.vstack([tmax.T, tdelta.T])
    bits = 1 << np.arange(k)
    ties = _tie_subsets(k)

    visited = [flat]
    live = ints[:k].any(axis=0)
    if stop is not None:
        live &= ~stop[flat]
    while live.any():
        if not live.all():
            flat = flat[live]
            ints = np.compress(live, ints, axis=1)
            floats = np.compress(live, floats, axis=1)
        rem, fstep, tmax, tdelta = ints[:k], ints[k:], floats[:k], floats[k:]
        cand = rem > 0
        tmin = np.where(cand, tmax, np.inf).min(axis=0)
        tied = cand & (tmax <= tmin + _TIE_TOL)
        done = None
        corner = np.flatnonzero(tied.sum(axis=0) > 1)
        if corner.size:
            code = bits @ tied[:, corner]
            for c, subsets in ties:
                rays = corner[code == c]
                for axes in subsets:
                    if not rays.size:
                        break
                    cell = flat[rays] + fstep[axes][:, rays].sum(axis=0)
                    visited.append(cell)
                    if stop is not None:
                        hit = stop[cell]
                        done = np.zeros(len(flat), dtype=bool) if done is None else done
                        done[rays[hit]] = True
                        rays = rays[~hit]
        flat = flat + (fstep * tied).sum(axis=0)
        # tied axes have a finite spacing, and x + 0.0 == x for every other one
        tmax += np.where(tied, tdelta, 0.0)
        rem -= tied
        live = rem.any(axis=0)
        if done is None:
            visited.append(flat)
        else:  # a ray that stopped at a corner neighbour ends there
            visited.append(flat[~done])
            live &= ~done
        if stop is not None:
            live &= ~stop[flat]
    return np.concatenate(visited)


def traverse_cells_2d(
    origin: tuple[float, float], endpoint: tuple[float, float], cfg: GridConfig
) -> list[tuple[int, int]]:
    """Ordered (row, col) cells traversed by the segment, origin and endpoint included.

    A one-segment view of the batched traversal (see the module docstring for
    its contract). The segment is clipped to the grid extent first, and one
    that misses the grid yields no cells; a degenerate segment yields its
    single cell.
    """
    lat = _lattice(cfg, 2)
    flat = _traverse(np.asarray(origin, dtype=np.float64),
                     np.asarray([endpoint], dtype=np.float64), lat)
    return [divmod(f, cfg.width) for f in flat.tolist()]


def observability(cloud: PointCloud, cfg: GridConfig, origin=(0.0, 0.0, 0.0)) -> ObservabilityMap:
    """Per-cell count of laser rays from origin to each in-range point."""
    lat = _lattice(cfg, 2)
    o = np.array([float(origin[0]), float(origin[1])])
    endpoints = cloud.xyz[crop_mask(cloud.xyz, cfg)][:, :2].astype(np.float64)
    flat = _traverse(o, endpoints, lat)
    counts = np.bincount(flat, minlength=cfg.height * cfg.width).reshape(cfg.height, cfg.width)
    return ObservabilityMap(counts)


def visibility(cloud: PointCloud, cfg: GridConfig, origin=(0.0, 0.0, 0.0)) -> VoxelStateGrid:
    """Three-state voxel grid from 3D rays that stop at the first point-bearing voxel."""
    lat = _lattice(cfg, 3)
    states = np.zeros((cfg.height, cfg.width, cfg.depth), dtype=np.uint8)
    pts = cloud.xyz[crop_mask(cloud.xyz, cfg)].astype(np.float64)
    holds_point = np.zeros(states.size, dtype=bool)
    holds_point[_cells((pts - lat.lo) / lat.size, lat) @ lat.strides] = True
    visited = _traverse(np.asarray(origin, dtype=np.float64), pts, lat, holds_point)
    states.ravel()[visited] = np.where(holds_point[visited], OCCUPIED, FREE)
    return VoxelStateGrid(states)


def inject_noise(cloud: PointCloud, snr: float, seed: int, cfg: GridConfig) -> PointCloud:
    """Append floor(N / snr) uniform noise points inside the crop volume.

    Noise reflectance is uniform in [0, 1]. Original points unchanged.
    """
    if snr <= 0:
        raise ConfigError(f"snr must be positive, got {snr}")
    n_noise = int(len(cloud) // snr)
    if n_noise == 0:
        return cloud
    rng = np.random.default_rng(seed)
    xyz = np.empty((n_noise, 3), dtype=np.float32)
    for axis, (a, b) in enumerate((cfg.x_range, cfg.y_range, cfg.z_range)):
        xyz[:, axis] = rng.uniform(a, b, n_noise)
    refl = rng.uniform(0.0, 1.0, n_noise).astype(np.float32)
    return PointCloud(np.vstack([cloud.xyz, xyz]), np.concatenate([cloud.reflectance, refl]))
