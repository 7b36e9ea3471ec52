"""Reference implementations that tests compare the program against.

Exact geometric oracles and the scalar reference traversal serve the
traversal tests. They are written independently of `pillarseg.occupancy`, so
a test that compares the traversal against them does not reuse the code it
checks. The scalar traversal steps one ray at a time with plain Python
floats; the batched engine in `pillarseg.occupancy` must reproduce it bitwise.

`pillarize_padded` fills the fixed `max_pillars x max_points` pillar tensor
with a Python loop over the pillars; the loop-free `pillarseg.pillars.pillarize`
must reproduce its valid rows bitwise, seeded sampling included.

The taped references at the end are the direct forms of three autograd ops:
one LSTM direction per time loop and one sequence at a time, a Python loop
over segments for the segment max, and a softmax reducing along its own axis. The fused and
loop-free ops in `pillarseg.nn.tensor` must reproduce their outputs and
gradients bitwise.
"""

import math
from itertools import combinations

import numpy as np

from pillarseg.nn.tensor import Tensor, _accum, _record, _recording, as_tensor, concat, narrow
from pillarseg.pillars import PillarSet, cell_indices, crop_mask


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


def pillarize_padded(cloud, cfg, rng_seed=0):
    """Pillars of raw (x, y, z, r) channels in a zero-padded (max_pillars,
    max_points, 4) tensor, filled pillar by pillar.

    Draws from one generator seeded with `rng_seed`: first the kept pillars
    when they overflow `max_pillars`, then the kept points of each pillar
    over `max_points`, in output order.
    """
    n_max = cfg.max_points
    p_max = cfg.max_pillars
    features = np.zeros((p_max, n_max, 4), dtype=np.float64)
    coords = np.zeros((p_max, 2), dtype=np.int64)
    valid_points = np.zeros(p_max, dtype=np.int64)

    keep = crop_mask(cloud.xyz, cfg)
    if not keep.any():
        return PillarSet(features, coords, valid_points, 0)

    xyz = cloud.xyz[keep].astype(np.float64)
    refl = cloud.reflectance[keep].astype(np.float64)
    rows, cols = cell_indices(xyz, cfg)
    keys = rows * cfg.width + cols

    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    rng = None

    pillar_ids = np.arange(len(uniq))
    if len(uniq) > p_max:
        rng = np.random.default_rng(rng_seed)
        pillar_ids = np.sort(rng.choice(len(uniq), size=p_max, replace=False))
    n_valid = len(pillar_ids)

    order = np.argsort(inverse, kind="stable")
    starts = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])

    pts = np.column_stack([xyz, refl])
    for out_idx, pid in enumerate(pillar_ids):
        members = order[starts[pid] : starts[pid + 1]]
        if len(members) > n_max:
            if rng is None:
                rng = np.random.default_rng(rng_seed)
            sel = np.sort(rng.choice(len(members), size=n_max, replace=False))
            members = members[sel]
        k = len(members)
        features[out_idx, :k] = pts[members]
        valid_points[out_idx] = k
        coords[out_idx, 0] = uniq[pid] // cfg.width
        coords[out_idx, 1] = uniq[pid] % cfg.width

    return PillarSet(features, coords, valid_points, n_valid)


def lstm_direction(x, w_ih, w_hh, b, reverse=False):
    """One LSTM direction over a (T, Cin) sequence, one gemv per step; returns (T, H)."""
    x, w_ih, w_hh, b = as_tensor(x), as_tensor(w_ih), as_tensor(w_hh), as_tensor(b)
    t_len = x.data.shape[0]
    hidden = w_hh.data.shape[0]
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    h3 = 3 * hidden

    pre = x.data @ w_ih.data + b.data
    acts = np.empty((t_len, 4 * hidden), dtype=x.data.dtype)
    cells = np.empty((t_len, hidden), dtype=x.data.dtype)
    tanh_cells = np.empty_like(cells)
    h_prev_all = np.empty_like(cells)
    outputs = np.zeros((t_len, hidden), dtype=x.data.dtype)

    h = np.zeros(hidden, dtype=x.data.dtype)
    c = np.zeros(hidden, dtype=x.data.dtype)
    for t in order:
        z = pre[t] + h @ w_hh.data
        a = acts[t]
        np.negative(z[:h3], out=a[:h3])
        np.exp(a[:h3], out=a[:h3])
        a[:h3] += 1.0
        np.reciprocal(a[:h3], out=a[:h3])
        np.tanh(z[h3:], out=a[h3:])
        h_prev_all[t] = h
        c = a[hidden:2 * hidden] * c
        c += a[:hidden] * a[h3:]
        tc = np.tanh(c)
        h = a[2 * hidden:h3] * tc
        cells[t] = c
        tanh_cells[t] = tc
        outputs[t] = h

    out = Tensor(outputs)
    if not _recording(x, w_ih, w_hh, b):
        return out

    def backward(g_out):
        dpre = np.zeros((t_len, 4 * hidden), dtype=x.data.dtype)
        w_hh_t = w_hh.data.T
        dh_next = np.zeros(hidden, dtype=x.data.dtype)
        dc_next = np.zeros(hidden, dtype=x.data.dtype)
        zeros_c = np.zeros(hidden, dtype=x.data.dtype)
        steps = list(order)
        for k in range(t_len - 1, -1, -1):
            t = steps[k]
            c_prev = cells[steps[k - 1]] if k > 0 else zeros_c
            a = acts[t]
            i = a[:hidden]
            f = a[hidden:2 * hidden]
            o = a[2 * hidden:h3]
            g_ = a[h3:]
            tc = tanh_cells[t]
            dh = g_out[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dz = dpre[t]
            dz[:hidden] = dc * g_
            dz[hidden:2 * hidden] = dc * c_prev
            dz[2 * hidden:h3] = dh * tc
            dz[h3:] = dc * i
            dz[:h3] *= a[:h3] * (1.0 - a[:h3])
            dz[h3:] *= 1.0 - g_ * g_
            dh_next = dz @ w_hh_t
            dc_next = dc * f
        _accum(x, dpre @ w_ih.data.T)
        _accum(w_ih, x.data.T @ dpre)
        _accum(w_hh, h_prev_all.T @ dpre)
        _accum(b, dpre.sum(axis=0))

    return _record(out, backward)


def bilstm(x, w_ih, w_hh, b, lengths=None):
    """Forward and reverse directions as two taped ops, concatenated: (T, 2H).

    ``lengths`` splits the rows of x into sequences that each run on their
    own, with their outputs stacked in row order.
    """
    if lengths is None:
        return concat([lstm_direction(x, w_ih, w_hh, b), lstm_direction(x, w_ih, w_hh, b, True)],
                      axis=1)
    starts = np.cumsum(lengths) - lengths
    return concat([bilstm(narrow(x, 0, s, n), w_ih, w_hh, b)
                   for s, n in zip(starts.tolist(), lengths)], axis=0)


def segment_max(x, segments, num_segments):
    """Per-segment max, one numpy argmax per non-empty segment; zero rows for empty ones."""
    x = as_tensor(x)
    segments = np.asarray(segments, dtype=np.int64)
    n, width = x.data.shape
    data = np.zeros((num_segments, width), dtype=x.data.dtype)
    arg = np.full((num_segments, width), -1, dtype=np.int64)
    order = np.argsort(segments, kind="stable")
    sorted_seg = segments[order]
    boundaries = np.flatnonzero(np.diff(sorted_seg)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [n]])
    for s, e in zip(starts, ends):
        rows = order[s:e]
        seg_id = sorted_seg[s]
        block = x.data[rows]
        local = np.argmax(block, axis=0)
        data[seg_id] = block[local, np.arange(width)]
        arg[seg_id] = rows[local]
    out = Tensor(data)
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros_like(x.data)
        valid = arg >= 0
        np.add.at(gx, (arg[valid], np.nonzero(valid)[1]), g[valid])
        _accum(x, gx)

    return _record(out, backward)


def softmax(x, axis=-1):
    """Softmax with its max and sum reduced along `axis` itself."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)
    if not _recording(x):
        return out

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(x, s * (g - dot))

    return _record(out, backward)
