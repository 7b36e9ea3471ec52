"""Output checks for the benchmark, written apart from ``pillarseg``.

Each check recomputes what it needs from the raw points (crop, cell and voxel
indices, class histograms, the mIoU) or tests a property the method must
have, and returns a list of failure messages; an empty list means the output
is correct. Only plain numbers are taken from the program's config: the grid
geometry, the label weights and the class indices.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# levels that `pillarseg occupancy` writes for UNKNOWN, FREE and OCCUPIED
STATE_LEVELS = (0, 128, 255)


def in_crop(xyz: np.ndarray, grid) -> np.ndarray:
    """Points inside the half-open box [min, max) on x, y and z."""
    keep = np.ones(len(xyz), dtype=bool)
    for axis, (lo, hi) in enumerate((grid.x_range, grid.y_range, grid.z_range)):
        keep &= (xyz[:, axis] >= lo) & (xyz[:, axis] < hi)
    return keep


def _cells(xyz: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Flat (row * W + col) cell index of every in-crop point, plus its mask."""
    height = int(round((grid.y_range[1] - grid.y_range[0]) / grid.pillar_size[1]))
    width = int(round((grid.x_range[1] - grid.x_range[0]) / grid.pillar_size[0]))
    keep = in_crop(xyz, grid)
    pts = xyz[keep].astype(np.float64)
    col = np.clip(np.floor((pts[:, 0] - grid.x_range[0]) / grid.pillar_size[0]), 0, width - 1)
    row = np.clip(np.floor((pts[:, 1] - grid.y_range[0]) / grid.pillar_size[1]), 0, height - 1)
    return row.astype(np.int64) * width + col.astype(np.int64), keep, height, width


def cell_counts(xyz: np.ndarray, grid) -> np.ndarray:
    """(H, W) number of in-crop points per top-view cell."""
    flat, _, height, width = _cells(xyz, grid)
    return np.bincount(flat, minlength=height * width).reshape(height, width)


def label_grid(xyz: np.ndarray, classes: np.ndarray, grid, weights: np.ndarray,
               unlabeled: int) -> np.ndarray:
    """(H, W) labels: per-cell class histogram times the label weights, ties to
    the lowest class index, cells without weighted mass unlabeled."""
    flat, keep, height, width = _cells(xyz, grid)
    k = len(weights)
    hist = np.bincount(flat * k + np.asarray(classes)[keep].astype(np.int64),
                       minlength=height * width * k).reshape(height, width, k)
    w = np.asarray(weights, dtype=np.float64).copy()
    w[unlabeled] = 0.0
    weighted = hist * w
    return np.where(weighted.max(axis=2) > 0, weighted.argmax(axis=2), unlabeled)


def origin_cell(grid) -> tuple[int, int]:
    """(row, col) of the cell holding the sensor at (0, 0)."""
    return (int(math.floor(-grid.y_range[0] / grid.pillar_size[1])),
            int(math.floor(-grid.x_range[0] / grid.pillar_size[0])))


def check_observability(counts: np.ndarray, xyz: np.ndarray, grid) -> list[str]:
    """Every ray starts in the origin cell, and reaches the cell of its point."""
    hist = cell_counts(xyz, grid)
    errors = []
    rays = int(hist.sum())
    at_origin = int(counts[origin_cell(grid)])
    if at_origin != rays:
        errors.append(f"origin cell count {at_origin} != {rays} in-crop points")
    missed = int(np.count_nonzero(counts[hist > 0] < 1))
    if missed:
        errors.append(f"{missed} cells hold points but have observability count 0")
    return errors


def check_visible(visible: np.ndarray, xyz: np.ndarray, grid) -> list[str]:
    """The observed-cell mask covers the origin cell and every cell with a point."""
    hist = cell_counts(xyz, grid)
    errors = []
    if not visible[origin_cell(grid)]:
        errors.append("origin cell is not observed")
    missed = int(np.count_nonzero(~visible[hist > 0]))
    if missed:
        errors.append(f"{missed} cells hold points but are not observed")
    return errors


def check_pillars(pset, xyz: np.ndarray, grid) -> list[str]:
    """Pillars are the occupied cells in ascending (row, col) order, each with
    min(points in the cell, max_points) valid points."""
    hist = cell_counts(xyz, grid).ravel()
    occupied = np.flatnonzero(hist)
    if len(occupied) > grid.max_pillars:
        return []  # pillar sampling chooses a subset; nothing exact to compare
    v = pset.valid_pillars
    if v != len(occupied):
        return [f"{v} pillars for {len(occupied)} occupied cells"]
    width = int(round((grid.x_range[1] - grid.x_range[0]) / grid.pillar_size[0]))
    errors = []
    coords = np.asarray(pset.pillar_coords[:v])
    if not (np.array_equal(coords[:, 0], occupied // width)
            and np.array_equal(coords[:, 1], occupied % width)):
        errors.append("pillar coordinates are not the occupied cells in (row, col) order")
    want = np.minimum(hist[occupied], grid.max_points)
    bad = int(np.count_nonzero(np.asarray(pset.valid_points[:v]) != want))
    if bad:
        errors.append(f"{bad} pillars have a wrong valid point count")
    return errors


def check_labels(labels: np.ndarray, expected: np.ndarray) -> list[str]:
    wrong = int(np.count_nonzero(np.asarray(labels) != expected))
    return [f"{wrong} label cells differ from the class histogram argmax"] if wrong else []


def miou(preds, gts, visibles, supervised, unlabeled: int) -> tuple[float, int]:
    """Dataset mIoU over observed labeled cells, and the number of those cells.

    A class counts when it appears in the prediction or the ground truth of
    some evaluated cell.
    """
    inter = dict.fromkeys(supervised, 0)
    union = dict.fromkeys(supervised, 0)
    cells = 0
    for pred, gt, vis in zip(preds, gts, visibles):
        mask = vis & (gt != unlabeled)
        p, g = pred[mask], gt[mask]
        cells += int(mask.sum())
        for k in supervised:
            inter[k] += int(np.count_nonzero((p == k) & (g == k)))
            union[k] += int(np.count_nonzero((p == k) | (g == k)))
    per_class = [inter[k] / union[k] for k in supervised if union[k] > 0]
    return (float(np.mean(per_class)) if per_class else float("nan")), cells


def best_constant_miou(gts, visibles, supervised, unlabeled: int) -> float:
    """Highest mIoU that predicting one class everywhere reaches on the same cells."""
    totals = dict.fromkeys(supervised, 0)
    cells = 0
    for gt, vis in zip(gts, visibles):
        g = gt[vis & (gt != unlabeled)]
        cells += g.size
        for k in supervised:
            totals[k] += int(np.count_nonzero(g == k))
    present = {k for k in supervised if totals[k] > 0}
    best = 0.0
    for c in supervised:
        best = max(best, totals[c] / cells / len(present | {c}))
    return best


def check_miou(reported: float, recomputed: float) -> list[str]:
    # Exact: both sides divide the same integer counts and average the same
    # per-class values in class order, so any difference is a wrong count.
    if reported != recomputed:
        return [f"reported mIoU {reported!r} != recomputed {recomputed!r}"]
    return []


def voxel_counts(xyz: np.ndarray, grid) -> np.ndarray:
    """(H, W, D) in-crop point count per voxel; z voxels tile the z extent."""
    height = int(round((grid.y_range[1] - grid.y_range[0]) / grid.pillar_size[1]))
    width = int(round((grid.x_range[1] - grid.x_range[0]) / grid.pillar_size[0]))
    extent = grid.z_range[1] - grid.z_range[0]
    depth = max(1, int(round(extent / grid.pillar_size[2])))
    pts = xyz[in_crop(xyz, grid)].astype(np.float64)
    lo = np.array([grid.x_range[0], grid.y_range[0], grid.z_range[0]])
    size = np.array([grid.pillar_size[0], grid.pillar_size[1], extent / depth])
    idx = np.floor((pts - lo) / size).astype(np.int64)
    idx = np.clip(idx, 0, np.array([width, height, depth]) - 1)
    flat = (idx[:, 1] * width + idx[:, 0]) * depth + idx[:, 2]
    return np.bincount(flat, minlength=height * width * depth).reshape(height, width, depth)


def check_visibility(levels: np.ndarray, xyz: np.ndarray, grid) -> list[str]:
    """(H, W, D) rendered voxel states: an OCCUPIED voxel holds a point, a FREE
    one holds none, and some voxel is OCCUPIED."""
    unknown, free, occupied = STATE_LEVELS
    errors = []
    stray = int(np.count_nonzero(~np.isin(levels, STATE_LEVELS)))
    if stray:
        errors.append(f"{stray} voxels carry no state level")
    points = voxel_counts(xyz, grid) > 0
    if levels.shape != points.shape:
        return errors + [f"state grid {levels.shape} != voxel grid {points.shape}"]
    empty_occupied = int(np.count_nonzero((levels == occupied) & ~points))
    if empty_occupied:
        errors.append(f"{empty_occupied} OCCUPIED voxels hold no point")
    free_with_points = int(np.count_nonzero((levels == free) & points))
    if free_with_points:
        errors.append(f"{free_with_points} FREE voxels hold a point")
    if not (levels == occupied).any():
        errors.append("no voxel is OCCUPIED")
    return errors


def read_pgm(path: Path) -> np.ndarray:
    """Decode a binary P5 graymap with 8- or 16-bit samples."""
    data = Path(path).read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while not data[end:end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    pos += 1  # single whitespace byte before the samples
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a P5 graymap")
    width, height, maxval = (int(t) for t in tokens[1:])
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    samples = np.frombuffer(data[pos:], dtype=dtype)
    if samples.size != width * height:
        raise ValueError(f"{path}: {samples.size} samples for {width}x{height}")
    return samples.reshape(height, width)


def read_scan(path: Path) -> np.ndarray:
    """(N, 3) float32 xyz of a 16-byte-record binary scan."""
    return np.frombuffer(Path(path).read_bytes(), dtype="<f4").reshape(-1, 4)[:, :3]
