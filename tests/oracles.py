"""Reference implementations that tests compare the program against.

Exact geometric oracles and the scalar reference traversal serve the
traversal tests. They are written independently of `pillarseg.occupancy`, so
a test that compares the traversal against them does not reuse the code it
checks. The scalar traversal steps one ray at a time with plain Python
floats; the batched engine in `pillarseg.occupancy` must reproduce it bitwise.

`pillarize_padded` fills the fixed `max_pillars x max_points` pillar tensor
with a Python loop over the pillars; the loop-free `pillarseg.pillars.pillarize`
must reproduce its valid rows bitwise, seeded sampling included.

The taped references at the end are the direct forms of six autograd ops:
one LSTM direction per time loop and one sequence at a time, a Python loop
over segments for the segment max and over pillars for the masked max pool
on the padded (P, N, C) tensor (the op pools rows, so only its forward
compares; its gradient is the segment max's over each row's pillar), one
argmax over a copy of the 2x2 windows for the image max pool, the FeaSt
convolution as a graph of generic taped ops (`feast_conv_graph`), and the 2D
convolution as one product with an im2col column matrix (`conv2d_im2col`).
The fused and loop-free ops in `pillarseg.nn.tensor` must reproduce their
outputs and gradients bitwise, except the shifted-slice `conv2d`, which sums
its products tap by tap and so agrees with the column-matrix form to
rounding. Three more references spell out an op's arithmetic with a fresh
array for every step, where the op reuses its buffers: the shifted-slice
convolution (`conv2d_taps`), batch normalization by its direct formulas
(`batch_norm`) and the upsampling gradient as one ``sum(axis=(2, 4))``
(`upsample2x`). Those ops must reproduce them bitwise, BatchNorm's running
statistics included.
The FeaSt graph is head-major, as the fused op is: (M, k) key scores
``steering @ xk.T + offsets``, (M, V) node scores ``steering @ x.T``, their
(M, V, k) difference, a softmax over the head axis 0 and one
``coeff @ (xk @ W)`` product. `feast_conv_per_head` shares those
coefficients but aggregates with one (V, k) @ (k, out) product per head; the
fused op must reproduce its output and parameter gradients bitwise, and its
input gradient to rounding.

`maxpool2d_kink_margin` and `runner_up_gap` give the kink margin that the
three pools report to a kink-tracking tape, each output's lead over its
runner-up: by one partition of the window copy, and by sorting each segment.

`multi_attention_dense` is the multi-attention fusion on the zero-padded
(P, N, C) tensor, every slot through every stage, pooled by the dense loop
`masked_max_pool`. `MultiAttentionFuse`, which reads only the valid slots as
rows, must reproduce its valid slots and its parameter gradients to
rounding, since it folds the LSTM and graph weights into one product per
pillar and carries all padded slots of a pillar in one row.
"""

import math
from itertools import combinations

import numpy as np

from pillarseg.nn import tensor as T
from pillarseg.nn.tensor import (Tensor, _accum, _record, _recording, _unbroadcast, as_tensor,
                                 concat, narrow)
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
            with np.errstate(over="ignore"):  # a subnormal d[axis]: an infinite t is right
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
    with np.errstate(over="ignore"):  # a subnormal d[i]: infinite crossings are right
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
    starts = np.flatnonzero(np.diff(sorted_seg, prepend=-1))  # none for no rows
    ends = np.append(starts[1:], n)
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


def masked_max_pool(x, mask):
    """Per-pillar max over the slots that `mask` keeps, one numpy argmax per
    pillar with a kept slot; zero rows for the others."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    p, _, c = x.data.shape
    data = np.zeros((p, c), dtype=x.data.dtype)
    arg = {}
    for i in range(p):
        slots = np.flatnonzero(mask[i])
        if len(slots):
            block = x.data[i, slots]
            local = np.argmax(block, axis=0)
            data[i] = block[local, np.arange(c)]
            arg[i] = slots[local]
    out = Tensor(data)
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros_like(x.data)
        for i, slots in arg.items():
            gx[i, slots, np.arange(c)] = g[i]
        _accum(x, gx)

    return _record(out, backward)


def _windows(x):
    """A (C, H/2, W/2, 4) copy of the 2x2 windows of a (C, H, W) array,
    corners in row-major order."""
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
        c, h // 2, w // 2, 4
    )


def maxpool2d(x):
    """2x2 max pooling with stride 2 by one numpy argmax over a (C, H/2, W/2, 4)
    copy of the windows, corners in row-major order."""
    x = as_tensor(x)
    c, h, w = x.data.shape
    windows = _windows(x.data)
    idx = np.argmax(windows, axis=3)
    out = Tensor(np.take_along_axis(windows, idx[..., None], axis=3)[..., 0])
    if not _recording(x):
        return out

    def backward(g):
        gw = np.zeros_like(windows)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=3)
        _accum(x, gw.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w))

    return _record(out, backward)


def _lead(top, second):
    """top - second, 0 where they are equal: two equal infinities tie."""
    with np.errstate(invalid="ignore"):
        return np.where(top == second, 0.0, top - second)


def maxpool2d_kink_margin(x):
    """Smallest lead of a 2x2 window's max over its runner-up in the (C, H, W)
    array ``x``, by one ``np.partition`` over the window copy."""
    part = np.partition(_windows(x), -2, axis=3)
    return float(_lead(part[..., -1], part[..., -2]).min())


def runner_up_gap(groups):
    """Smallest lead of a column's max over its runner-up in the (k, C)
    arrays ``groups``, by sorting each; inf when no group has two rows."""
    return min((float(_lead(*np.sort(g, axis=0)[:-3:-1]).min()) for g in groups
                if len(g) > 1), default=math.inf)


def sub(a, b):
    """a - b with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

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


def _feast_coefficients(x, key_idx, steering, offsets):
    """The gathered keys and the (M, V, k) head coefficients of the
    shared-key FeaSt convolution, as taped ops."""
    v = x.data.shape[0]
    k = len(key_idx)
    heads = steering.data.shape[0]
    xk = T.gather_rows(x, key_idx)
    s_keys = T.add(T.matmul(steering, T.transpose(xk, (1, 0))),
                   T.reshape(offsets, (heads, 1)))  # (M, k)
    s_nodes = T.matmul(steering, T.transpose(x, (1, 0)))  # (M, V)
    scores = sub(T.reshape(s_keys, (heads, 1, k)), T.reshape(s_nodes, (heads, v, 1)))
    return xk, softmax(scores, axis=0)


def feast_conv_graph(x, key_idx, weights, steering, offsets, bias):
    """Shared-key FeaSt convolution as a graph of taped ops: the head-major
    (M, V, k) scores, a softmax over their first (head) axis, and all heads
    aggregated in one (M, V, k) @ (M, k, out) product.

    This is the form `pillarseg.nn.tensor.feast` fuses, and the fused op must
    reproduce its output and all five gradients bitwise when its nodes fit
    one chunk.
    """
    xk, coeff = _feast_coefficients(as_tensor(x), key_idx, as_tensor(steering), offsets)
    per_head = T.matmul(coeff, T.matmul(xk, weights))  # (M, V, out)
    return T.add(T.mul(T.tsum(per_head, axis=0), 1.0 / len(key_idx)), bias)


def feast_conv_per_head(x, key_idx, weights, steering, offsets, bias):
    """Shared-key FeaSt convolution that aggregates head by head and adds the
    heads' (V, out) contributions in order."""
    x, weights = as_tensor(x), as_tensor(weights)
    v, k = x.data.shape[0], len(key_idx)
    xk, coeff = _feast_coefficients(x, key_idx, as_tensor(steering), offsets)
    out = None
    for m in range(weights.data.shape[0]):
        w_m = T.reshape(narrow(weights, 0, m, 1), weights.data.shape[1:])
        pm = T.reshape(narrow(coeff, 0, m, 1), (v, k))
        contrib = T.matmul(pm, T.matmul(xk, w_m))
        out = contrib if out is None else T.add(out, contrib)
    return T.add(T.mul(out, 1.0 / k), bias)


def _im2col(x, k, pad):
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((c, k, k, h, w), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i : i + h, j : j + w]
    return cols.reshape(c * k * k, h * w)


def _col2im(cols, shape, k, pad):
    c, h, w = shape
    cols = cols.reshape(c, k, k, h, w)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, i : i + h, j : j + w] += cols[:, i, j]
    return xp[:, pad : pad + h, pad : pad + w]


def conv2d_im2col(x, weight):
    """Same-size convolution of a (C, H, W) tensor with (Cout, C, k, k) odd
    square kernels as one (Cout, k * k * C) @ (k * k * C, H * W) product with
    the im2col column matrix; the backward scatters the input gradient's
    columns back with col2im."""
    x, weight = as_tensor(x), as_tensor(weight)
    cout, _, k, _ = weight.data.shape
    pad = k // 2
    c, h, w = x.data.shape
    cols = _im2col(x.data, k, pad)
    w2 = weight.data.reshape(cout, -1)
    out = Tensor((w2 @ cols).reshape(cout, h, w))
    if not _recording(x, weight):
        return out

    def backward(g):
        g2 = g.reshape(cout, -1)
        _accum(weight, (g2 @ cols.T).reshape(weight.data.shape))
        _accum(x, _col2im(w2.T @ g2, x.data.shape, k, pad))

    return _record(out, backward)


def conv2d_taps(x, weight):
    """The shifted-slice convolution with a fresh array per tap product:
    k * k products ``weight[:, :, i, j] @ xf[:, off : off + span]`` of the
    zero-padded, row-flattened input, added in tap order to a zero-initialised
    accumulator; the backward takes one weight-gradient and one input-gradient
    product per tap, the latter added in tap order to a zero-initialised
    padded gradient. `T.conv2d` must reproduce it bitwise."""
    x, weight = as_tensor(x), as_tensor(weight)
    cout, _, k, _ = weight.data.shape
    pad = k // 2
    c, h, w = x.data.shape
    row = w + 2 * pad
    span = max((h - 1) * row + w, 0)
    xp = np.zeros((c, h + 2 * pad, row), dtype=x.data.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.data
    xf = xp.reshape(c, -1)
    taps = [(i, j, i * row + j) for i in range(k) for j in range(k)]
    w_taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))
    acc = np.zeros((cout, h, row), dtype=xf.dtype)
    acc_span = acc.reshape(cout, -1)[:, :span]
    for i, j, off in taps:
        acc_span += w_taps[i, j] @ xf[:, off : off + span]
    out = Tensor(np.ascontiguousarray(acc[:, :, :w]))
    if not _recording(x, weight):
        return out

    def backward(g):
        gp = np.zeros((cout, h, row), dtype=g.dtype)
        gp[:, :, :w] = g
        g_span = gp.reshape(cout, -1)[:, :span]
        gw = np.empty_like(weight.data)
        gxf = np.zeros_like(xf)
        for i, j, off in taps:
            gw[:, :, i, j] = (xf[:, off : off + span] @ g_span.T).T
            gxf[:, off : off + span] += w_taps[i, j].T @ g_span
        _accum(weight, gw)
        _accum(x, gxf.reshape(c, h + 2 * pad, row)[:, pad : pad + h, pad : pad + w])

    return _record(out, backward)


def upsample2x(x):
    """Nearest-neighbor 2x upsampling by two repeats; the backward sums each
    2x2 block of the gradient with one ``sum(axis=(2, 4))``."""
    x = as_tensor(x)
    out = Tensor(x.data.repeat(2, axis=1).repeat(2, axis=2))
    if not _recording(x):
        return out
    c, h, w = x.data.shape

    def backward(g):
        _accum(x, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    return _record(out, backward)


def batch_norm(x, gamma, beta, running_mean, running_var, training, channel_axis=-1):
    """Batch normalization by the direct formulas, with a fresh array for
    every step: ``x.mean`` and ``x.var`` for the batch statistics,
    ``(x - mean) * inv_std`` for ``xhat`` and ``xhat * gamma + beta``; the
    backward forms ``dxhat - sum(dxhat) / n - xhat * sum(dxhat * xhat) / n``
    as written. `T.batch_norm` must reproduce its output, gradients and
    running statistics bitwise."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    axis = channel_axis % x.data.ndim
    reduce_axes = tuple(i for i in range(x.data.ndim) if i != axis)
    bshape = [1] * x.data.ndim
    bshape[axis] = x.data.shape[axis]

    def expand(v):
        return v.reshape(bshape)

    if training:
        mean = x.data.mean(axis=reduce_axes)
        var = x.data.var(axis=reduce_axes)
        running_mean *= T.BN_MOMENTUM
        running_mean += (1.0 - T.BN_MOMENTUM) * mean
        running_var *= T.BN_MOMENTUM
        running_var += (1.0 - T.BN_MOMENTUM) * var
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + T.BN_EPS)
    xhat = (x.data - expand(mean)) * expand(inv_std)
    out = Tensor(xhat * expand(gamma.data) + expand(beta.data))
    if not _recording(x, gamma, beta):
        return out

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=reduce_axes))
        _accum(beta, g.sum(axis=reduce_axes))
        dxhat = g * expand(gamma.data)
        if training:
            n = x.data.size // x.data.shape[axis]
            term = (
                dxhat
                - expand(dxhat.sum(axis=reduce_axes)) / n
                - xhat * expand((dxhat * xhat).sum(axis=reduce_axes)) / n
            )
            _accum(x, term * expand(inv_std))
        else:
            _accum(x, dxhat * expand(inv_std))

    return _record(out, backward)


def broadcast_middle(x, n):
    """(P, D) -> (P, n, D) by repetition along a new middle axis."""
    x = as_tensor(x)
    out = Tensor(np.broadcast_to(x.data[:, None, :], (x.data.shape[0], n, x.data.shape[1])).copy())
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g.sum(axis=1))

    return _record(out, backward)


def pillar_attention_dense(attn, aug_feats, centers):
    """`attn`'s (P, 1) weights over a dense (P, N, C) tensor: the channel
    affine on every slot, with the pillar centers concatenated per slot."""
    aug_feats = as_tensor(aug_feats)
    p, n, _ = aug_feats.data.shape
    cat = concat([aug_feats, broadcast_middle(T.constant(centers), n)], axis=2)
    per_point = T.relu(attn.channel_fc(cat))  # (P, N, 1)
    per_pillar = attn.point_fc(T.transpose(per_point, (0, 2, 1)))  # (P, 1, 1)
    return T.sigmoid(T.reshape(per_pillar, (p, 1)))


def multi_attention_dense(fuse, aug_feats, masks, centers):
    """The attended (P, N, C) stream of each frame of a chunk under `fuse`'s
    parameters: the LSTM, graph and pillar weights scale the whole stream in
    turn, and the fusion affines run on every slot, padded or not."""

    def scale(streams, weights):
        return [T.mul(s, T.reshape(w, (-1, 1, 1))) for s, w in zip(streams, weights)]

    streams = [as_tensor(f) for f in aug_feats]
    pooled = [masked_max_pool(s, m) for s, m in zip(streams, masks)]
    states = fuse.lstm_attn(pooled, [c[:, :2] for c in centers])
    weights = [fuse.lstm_attn.weights(*s) for s in states]
    lstm_weighted = [T.mul(p, w) for p, w in zip(pooled, weights)]
    streams = scale(streams, weights)

    pooled = [masked_max_pool(s, m) for s, m in zip(streams, masks)]
    streams = scale(streams, [fuse.graph_attn(p) for p in pooled])

    weights = []
    for stream, partner, c in zip(streams, lstm_weighted, centers):
        cat = concat([stream, broadcast_middle(partner, stream.data.shape[1])], axis=2)
        fused = T.relu(fuse.fuse2(T.relu(fuse.fuse1(cat))))
        weights.append(pillar_attention_dense(fuse.pillar_attn, fused, c))
    return scale(streams, weights)
