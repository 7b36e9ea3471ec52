"""Exact geometric oracles and the scalar reference traversal shared by the
traversal tests.

They are written independently of `pillarseg.occupancy`, so a test that
compares the traversal against them does not reuse the code it checks. The
scalar traversal steps one ray at a time with plain Python floats; the
batched engine in `pillarseg.occupancy` must reproduce it bitwise.
"""

import math
from itertools import combinations

import numpy as np

from pillarseg.pillars import crop_mask


def segment_meets_box(p0, p1, lo, hi):
    """True when the Liang-Barsky clip of segment p0-p1 to the closed box [lo, hi] is non-empty."""
    t0, t1 = 0.0, 1.0
    for axis in range(len(lo)):
        d = p1[axis] - p0[axis]
        if d == 0.0:
            if not lo[axis] <= p0[axis] <= hi[axis]:
                return False
            continue
        ta = (lo[axis] - p0[axis]) / d
        tb = (hi[axis] - p0[axis]) / d
        t0 = max(t0, min(ta, tb))
        t1 = min(t1, max(ta, tb))
        if t0 > t1:
            return False
    return True


def point_box_distance(p, lo, hi):
    """Euclidean distance from point p to the closed box [lo, hi]."""
    return math.hypot(*(max(lo[i] - p[i], p[i] - hi[i], 0.0) for i in range(len(p))))


def point_segment_distance(q, p0, p1):
    """Euclidean distance from point q to the closed segment p0-p1."""
    d = [b - a for a, b in zip(p0, p1)]
    dd = sum(x * x for x in d)
    t = 0.0 if dd == 0.0 else sum((q[i] - p0[i]) * d[i] for i in range(len(d))) / dd
    t = min(max(t, 0.0), 1.0)
    return math.hypot(*(p0[i] + t * d[i] - q[i] for i in range(len(d))))


def segment_box_distance(p0, p1, lo, hi):
    """Exact distance between the segment p0-p1 and the closed 2D box [lo, hi].

    Zero when the segment meets the box. Otherwise the two convex sets are
    disjoint and their distance is attained at a vertex of one of them: a
    segment endpoint or a box corner.
    """
    p0 = [float(v) for v in p0]
    p1 = [float(v) for v in p1]
    if segment_meets_box(p0, p1, lo, hi):
        return 0.0
    corners = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
    return min([point_box_distance(p, lo, hi) for p in (p0, p1)]
               + [point_segment_distance(c, p0, p1) for c in corners])


def segment_distance_to_cell(origin, endpoint, row, col, cfg):
    """Exact distance between the segment and the closed rectangle of cell (row, col)."""
    lo = (cfg.x_range[0] + col * cfg.pillar_size[0], cfg.y_range[0] + row * cfg.pillar_size[1])
    hi = (lo[0] + cfg.pillar_size[0], lo[1] + cfg.pillar_size[1])
    return segment_box_distance(origin, endpoint, lo, hi)


TIE_TOL = 1e-12  # crossings whose t in [0, 1] differ by at most this count as one


def clip_segment(p0, p1, lo, hi):
    """Liang-Barsky clip of segment p0-p1 to the closed box [lo, hi]; None if outside."""
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for axis in range(len(lo)):
        if d[axis] == 0.0:
            if p0[axis] < lo[axis] or p0[axis] > hi[axis]:
                return None
        else:
            ta = (lo[axis] - p0[axis]) / d[axis]
            tb = (hi[axis] - p0[axis]) / d[axis]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return None
    return p0 + t0 * d, p0 + t1 * d


def cell_of(u, shape):
    return [min(max(int(math.floor(u[i])), 0), shape[i] - 1) for i in range(len(shape))]


def supercover(u0, u1, shape):
    """Ordered supercover traversal in cell units; endpoints must lie in [0, shape].

    At a corner (edge or vertex in 3D) crossing, every partially stepped
    neighbour is emitted before the diagonal one, subsets of the tied axes in
    `itertools.combinations` order.
    """
    ndim = len(shape)
    cur = cell_of(u0, shape)
    end = cell_of(u1, shape)
    d = u1 - u0
    step = [0] * ndim
    tmax = [math.inf] * ndim
    tdelta = [math.inf] * ndim
    for i in range(ndim):
        if d[i] > 0:
            step[i] = 1
            tmax[i] = (cur[i] + 1 - u0[i]) / d[i]
            tdelta[i] = 1.0 / d[i]
        elif d[i] < 0:
            step[i] = -1
            tmax[i] = (cur[i] - u0[i]) / d[i]
            tdelta[i] = -1.0 / d[i]

    cells = [tuple(cur)]
    while cur != end:
        candidates = [i for i in range(ndim) if cur[i] != end[i] and step[i] != 0]
        if not candidates:
            break
        tmin = min(tmax[i] for i in candidates)
        tied = [i for i in candidates if tmax[i] <= tmin + TIE_TOL]
        if len(tied) > 1:
            for size in range(1, len(tied)):
                for subset in combinations(tied, size):
                    cell = list(cur)
                    for i in subset:
                        cell[i] += step[i]
                    cells.append(tuple(cell))
        for i in tied:
            cur[i] += step[i]
            tmax[i] += tdelta[i]
        cells.append(tuple(cur))
    return cells


def traverse_cells_2d(origin, endpoint, cfg):
    """(row, col) cells of the segment clipped to the grid, in traversal order."""
    lo = np.array([cfg.x_range[0], cfg.y_range[0]])
    hi = np.array([cfg.x_range[1], cfg.y_range[1]])
    clipped = clip_segment(np.asarray(origin, dtype=np.float64),
                           np.asarray(endpoint, dtype=np.float64), lo, hi)
    if clipped is None:
        return []
    size = np.array([cfg.pillar_size[0], cfg.pillar_size[1]])
    cells = supercover((clipped[0] - lo) / size, (clipped[1] - lo) / size,
                       (cfg.width, cfg.height))
    return [(cy, cx) for cx, cy in cells]


def in_crop(xyz, cfg):
    return xyz[crop_mask(xyz, cfg)].astype(np.float64)


def observability_counts(xyz, cfg, origin):
    """(H, W) count of the rays from origin to each in-crop point that pass each cell."""
    counts = np.zeros((cfg.height, cfg.width), dtype=np.int64)
    for p in in_crop(xyz, cfg):
        for r, c in traverse_cells_2d(origin[:2], p[:2], cfg):
            counts[r, c] += 1
    return counts


def visibility_states(xyz, cfg, origin, unknown=0, free=1, occupied=2):
    """(H, W, D) voxel states: each ray marks the voxels it passes free and
    stops, occupied, at the first one that holds a point."""
    depth = cfg.depth
    states = np.full((cfg.height, cfg.width, depth), unknown, dtype=np.uint8)
    pts = in_crop(xyz, cfg)
    lo = np.array([cfg.x_range[0], cfg.y_range[0], cfg.z_range[0]])
    hi = np.array([cfg.x_range[1], cfg.y_range[1], cfg.z_range[1]])
    size = np.array([cfg.pillar_size[0], cfg.pillar_size[1],
                     (cfg.z_range[1] - cfg.z_range[0]) / depth])
    shape = (cfg.width, cfg.height, depth)
    holds_point = set(tuple(cell_of(u, shape)) for u in (pts - lo) / size)
    o = np.asarray(origin, dtype=np.float64)
    for p in pts:
        clipped = clip_segment(o, p, lo, hi)
        if clipped is None:
            continue
        for cx, cy, cz in supercover((clipped[0] - lo) / size, (clipped[1] - lo) / size, shape):
            if (cx, cy, cz) in holds_point:
                states[cy, cx, cz] = occupied
                break
            if states[cy, cx, cz] == unknown:
                states[cy, cx, cz] = free
    return states
