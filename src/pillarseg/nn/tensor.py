"""Dense tensors with taped reverse-mode differentiation.

A ``Tape`` records operations in creation order while it is the active
context; ``Tape.backward`` replays the records once in reverse. Outside a
tape, every op is a plain numpy computation. Broadcasting follows numpy with
gradients reduced back over the broadcast axes.

Tensors default to 64-bit values (tests run at that precision); training may
switch to 32-bit via :func:`set_default_dtype`.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np

from ..errors import ShapeError

_DEFAULT_DTYPE = np.float64
_TAPE_STACK: list["Tape"] = []


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    if np.dtype(dtype) not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ShapeError(f"unsupported default dtype {dtype}")
    _DEFAULT_DTYPE = np.dtype(dtype).type


class Tape:
    """Topologically ordered operation records for one backward pass."""

    def __init__(self, track_kinks: bool = False):
        self.nodes: list[Tensor] = []
        self.track_kinks = track_kinks
        self.kink_margins: list[float] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()

    def min_kink_margin(self) -> float:
        return min(self.kink_margins, default=math.inf)

    def backward(self, root: "Tensor") -> None:
        """Accumulate gradients of `root` (a scalar) into every grad-requiring leaf."""
        if root.data.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
        root.grad = np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """n-dimensional value array, optionally participating in differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=_DEFAULT_DTYPE))


def parameter(x) -> Tensor:
    return Tensor(x, requires_grad=True)


def _recording(*tensors: Tensor) -> bool:
    return active_tape() is not None and any(t.requires_grad for t in tensors)


def _record(out: Tensor, backward: Callable[[np.ndarray], None]) -> Tensor:
    out.requires_grad = True
    out._backward = backward
    active_tape().nodes.append(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # backward rules never mutate gradient arrays in place, so the first
    # accumulation may alias the incoming array
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _scatter_add_rows(target: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """target[idx] += rows with duplicate indices, via sort + reduceat."""
    if len(idx) == 0:
        return
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_idx)) + 1])
    sums = np.add.reduceat(rows[order], starts, axis=0)
    target[sorted_idx[starts]] += sums


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce gradient `g` back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, warning as numpy does when it makes a NaN from NaN-free operands.

    numpy warns after a product whenever the floating-point invalid flag is
    set, and its OpenBLAS float32 kernels at times set that flag for finite
    operands whose product is finite: the warning then comes at random, on
    one call and not on the same call repeated. So the flag is ignored and
    the result is checked instead, which still warns on a NaN the product
    really makes, such as inf * 0.
    """
    with np.errstate(invalid="ignore"):
        out = a @ b
    if np.isnan(out).any() and not (np.isnan(a).any() or np.isnan(b).any()):
        warnings.warn("invalid value encountered in matmul", RuntimeWarning, stacklevel=2)
    return out


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _record(out, backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(_product(a.data, b.data))
    if not _recording(a, b):
        return out

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(_product(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(_product(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _record(out, backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    tape = active_tape()
    if tape is not None and tape.track_kinks and x.data.size:
        tape.kink_margins.append(float(np.abs(x.data).min()))
    if not _recording(x):
        return out
    mask = x.data > 0

    def backward(g):
        _accum(x, g * mask)

    return _record(out, backward)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = np.empty_like(x.data)
    pos = x.data >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    e = np.exp(x.data[~pos])
    s[~pos] = e / (1.0 + e)
    out = Tensor(s)
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g * s * (1.0 - s))

    return _record(out, backward)


# ---------------------------------------------------------------------------
# reductions and normalizations
# ---------------------------------------------------------------------------


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis))
    if not _recording(x):
        return out

    def backward(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy() if np.ndim(g) else np.full_like(x.data, g))
            return
        _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return _record(out, backward)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = Tensor(ls)
    if not _recording(x):
        return out
    p = np.exp(ls)

    def backward(g):
        _accum(x, g - p * g.sum(axis=axis, keepdims=True))

    return _record(out, backward)


# ---------------------------------------------------------------------------
# shape surgery
# ---------------------------------------------------------------------------


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _record(out, backward)


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.transpose(axes))
    if not _recording(x):
        return out
    inverse = np.argsort(axes)

    def backward(g):
        _accum(x, g.transpose(inverse))

    return _record(out, backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    if not _recording(*ts):
        return out
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                _accum(t, piece)

    return _record(out, backward)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; gradient zero-pads back."""
    x = as_tensor(x)
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    out = Tensor(x.data[tuple(index)])
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[tuple(index)] = g
        _accum(x, gx)

    return _record(out, backward)


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------


def gather_rows(x, idx) -> Tensor:
    """Rows of `x` at integer indices `idx` (axis 0); gradient scatter-adds."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data[idx])
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros_like(x.data)
        _scatter_add_rows(gx, idx, g)
        _accum(x, gx)

    return _record(out, backward)


def _first_max(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The rank of the first candidate at the max, per output element.

    ``blocks[r]`` holds the rank-r candidates of the first ``len(blocks[r])``
    outputs, so each block spans a prefix of the one before it along axis 0,
    and every output has a rank-0 candidate. A chain of in-place
    ``np.maximum`` calls gives the max, and the rank is the count of leading
    ranks whose candidate is not at it. That is the pick of ``np.argmax``:
    ``==`` treats +0 and -0 as equal, and a NaN max is met by the first NaN.
    Callers gather their output from that candidate, so it keeps the
    candidate's own bits, the sign of a zero included.
    """
    top = blocks[0].copy()
    for b in blocks[1:]:
        np.maximum(top[: len(b)], b, out=top[: len(b)])
    nan = np.isnan(top).any()
    rank = np.zeros(top.shape, dtype=np.intp)
    ahead = np.ones(top.shape, dtype=bool)  # the max is still to come
    for b in blocks[:-1]:  # an output's last candidate needs no test
        k = len(b)
        miss = b != top[:k]
        if nan:
            miss &= b == b
        ahead[:k] &= miss
        rank[:k] += ahead[:k]
    return rank


def _segment_first_max(x: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """First max per column over segments of rows of the 2-D ``x``.

    ``rows`` lists rows of ``x`` grouped by segment, and ``counts`` (all
    positive) gives the segments' row counts in that order. Returns a
    (segments, C) array of flat indices into ``x``: per segment and column, the
    first of the segment's rows at the max (:func:`_first_max`).

    The rows are laid out by rank. Segments are sorted by descending count, and
    the rank-r rows of every segment that has one form one contiguous block, so
    the blocks of :func:`_first_max` shrink with r.
    """
    by_count = np.argsort(-counts, kind="stable")
    sorted_counts = counts[by_count]
    # widths[r]: the segments with more than r rows, a prefix in by_count order
    widths = np.searchsorted(-sorted_counts, -np.arange(sorted_counts.max(initial=1)))
    offsets = np.concatenate([[0], np.cumsum(widths)])
    starts = (np.cumsum(counts) - counts)[by_count]
    seg = np.arange(len(rows)) - np.repeat(offsets[:-1], widths)
    ranked_rows = rows[starts[seg] + np.repeat(np.arange(len(widths)), widths)]
    ranked = x[ranked_rows]
    rank = _first_max([ranked[a:b] for a, b in zip(offsets[:-1], offsets[1:])])
    width = x.shape[1]
    src = np.empty((len(counts), width), dtype=np.intp)
    src[by_count] = (ranked_rows * width)[offsets[rank] + np.arange(len(counts))[:, None]]
    src += np.arange(width)
    return src


def segment_max(x, segments, num_segments: int) -> Tensor:
    """Per-segment max over rows; empty segments yield zero rows (no gradient).

    Segment ids may come in any order. Each output takes the first of its
    segment's rows at the max, as ``np.argmax`` picks it (``_first_max``, the
    kernel behind every max pool here), and the gradient goes to that row.
    """
    x = as_tensor(x)
    segments = np.asarray(segments, dtype=np.int64)
    counts = np.bincount(segments, minlength=num_segments)
    seg_ids = np.flatnonzero(counts)
    src = _segment_first_max(x.data, np.argsort(segments, kind="stable"), counts[seg_ids])
    data = np.zeros((num_segments, x.data.shape[1]), dtype=x.data.dtype)
    data[seg_ids] = x.data.reshape(-1)[src]
    out = Tensor(data)
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros(x.data.size, dtype=x.data.dtype)
        gx[src] += g[seg_ids]  # added to zeros: -0.0 turns +0.0, as summed
        _accum(x, gx.reshape(x.data.shape))

    return _record(out, backward)


def masked_max_pool(x, mask) -> Tensor:
    """(P, N, C) max over the N axis restricted to mask; empty rows yield zero.

    Only the slots that ``mask`` keeps are read. Each output takes the first
    kept slot at the max, as ``np.argmax`` picks it (``_first_max``, the kernel
    behind every max pool here), and the gradient goes to that slot.
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    p, n, c = x.data.shape
    counts = mask.sum(axis=1)
    live = np.flatnonzero(counts)
    src = _segment_first_max(x.data.reshape(p * n, c), np.flatnonzero(mask), counts[live])
    data = np.zeros((p, c), dtype=x.data.dtype)
    data[live] = x.data.reshape(-1)[src]
    out = Tensor(data)
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros(x.data.size, dtype=x.data.dtype)
        gx[src] = g[live]
        _accum(x, gx.reshape(p, n, c))

    return _record(out, backward)


def scatter_to_image(x, rows, cols, height: int, width: int) -> Tensor:
    """(V, C) pillar rows to a (C, H, W) image at unique (row, col) coords."""
    x = as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    img = np.zeros((x.data.shape[1], height, width), dtype=x.data.dtype)
    img[:, rows, cols] = x.data.T
    out = Tensor(img)
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g[:, rows, cols].T)

    return _record(out, backward)


# ---------------------------------------------------------------------------
# image ops
# ---------------------------------------------------------------------------


def conv2d(x, weight) -> Tensor:
    """Same-size 2D convolution of a (C, H, W) tensor with (Cout, C, k, k)
    kernels, with no bias: every convolution but the logits head feeds a
    BatchNorm, which would cancel one, and the head adds its own.

    The input is zero-padded by p = k // 2 and flattened row by row into
    ``xf`` of shape (C, (H + 2p) * row), with ``row = W + 2p``. In that layout
    tap (i, j) of every output pixel reads the contiguous column slice
    ``xf[:, i * row + j : i * row + j + span]``, ``span = (H - 1) * row + W``,
    so the forward is k * k products ``weight[:, :, i, j] @ slice``, summed in
    the tap order (0, 0), (0, 1), ..., (k - 1, k - 1) into one buffer on the
    same row stride. One copy drops the 2p pad columns that end each row, so
    the output is a fresh contiguous array, not a view of that buffer. The
    backward lays the output gradient out on that stride and takes one
    weight-gradient and one input-gradient product per tap; the tape keeps
    only ``xf``, never a (k * k * C, H * W) column matrix.

    Each output is a sum of k * k partial dot products of length C, not one
    of length k * k * C, so it rounds differently from a column-matrix
    convolution; the two agree to rounding.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be (Cout, C, k, k), got {weight.data.shape}")
    cout, cin, kh, kw = weight.data.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernels must be odd squares, got {kh}x{kw}")
    if x.data.ndim != 3 or x.data.shape[0] != cin:
        raise ShapeError(f"conv2d input {x.data.shape} does not match kernel {weight.data.shape}")
    pad = kh // 2
    c, h, w = x.data.shape
    row = w + 2 * pad
    span = (h - 1) * row + w
    xp = np.zeros((c, h + 2 * pad, row), dtype=x.data.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.data
    xf = xp.reshape(c, -1)
    taps = [(i, j, i * row + j) for i in range(kh) for j in range(kw)]
    w_taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))  # (k, k, Cout, C)
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
            # (C, span) @ (span, Cout) is the faster orientation of this long product
            gw[:, :, i, j] = (xf[:, off : off + span] @ g_span.T).T
            gxf[:, off : off + span] += w_taps[i, j].T @ g_span
        _accum(weight, gw)
        _accum(x, gxf.reshape(c, h + 2 * pad, row)[:, pad : pad + h, pad : pad + w])

    return _record(out, backward)


def maxpool2d(x) -> Tensor:
    """2x2 max pooling with stride 2 on a (C, H, W) tensor; extents must be even.

    The four window corners are strided views, taken in row-major order. Each
    output takes the first corner at the max, as ``np.argmax`` picks it
    (``_first_max``, the kernel behind every max pool here), and the gradient
    goes to that corner.
    """
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2d needs a (C, H, W) input, got {x.data.shape}")
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d needs even extents, got {h}x{w}")
    rank = _first_max([x.data[:, i::2, j::2] for i in (0, 1) for j in (0, 1)])
    # flat index of each window's first corner, plus the winning corner's offset
    src = np.array([0, 1, w, w + 1])[rank]
    src += np.arange(0, c * h * w, h * w)[:, None, None] + np.arange(0, h * w, 2 * w)[:, None]
    src += np.arange(0, w, 2)
    tape = active_tape()
    if tape is not None and tape.track_kinks:
        windows = x.data.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
            c, h // 2, w // 2, 4
        )
        part = np.partition(windows, -2, axis=3)
        tape.kink_margins.append(float((part[..., -1] - part[..., -2]).min()))
    out = Tensor(x.data.reshape(-1)[src])
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros(c * h * w, dtype=x.data.dtype)
        gx[src] = g
        _accum(x, gx.reshape(c, h, w))

    return _record(out, backward)


def upsample2x(x) -> Tensor:
    """Nearest-neighbor 2x upsampling of a (C, H, W) tensor."""
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"upsample2x needs a (C, H, W) input, got {x.data.shape}")
    out = Tensor(x.data.repeat(2, axis=1).repeat(2, axis=2))
    if not _recording(x):
        return out
    c, h, w = x.data.shape

    def backward(g):
        _accum(x, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    return _record(out, backward)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


BN_MOMENTUM, BN_EPS = 0.9, 1e-5


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, channel_axis: int = -1) -> Tensor:
    """Per-channel normalization over all non-channel axes, ``x - mean`` over
    ``sqrt(var + BN_EPS)``.

    Train mode normalizes by batch statistics (biased variance) and updates the
    running arrays in place with ``running = m*running + (1-m)*batch``,
    ``m = BN_MOMENTUM``; inference mode uses the running statistics.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    axis = channel_axis % x.data.ndim
    reduce_axes = tuple(i for i in range(x.data.ndim) if i != axis)
    bshape = [1] * x.data.ndim
    bshape[axis] = x.data.shape[axis]

    def expand(v):
        return v.reshape(bshape)

    if training:
        count = x.data.size // x.data.shape[axis]
        if count == 0:
            raise ShapeError("batch_norm train mode needs a non-empty batch")
        mean = x.data.mean(axis=reduce_axes)
        var = x.data.var(axis=reduce_axes)
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mean
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
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


# ---------------------------------------------------------------------------
# fused LSTM (manual backprop-through-time)
# ---------------------------------------------------------------------------


def lstm(x, w_ih, w_hh, b, lengths=None) -> Tensor:
    """Bidirectional LSTM of one shared cell over a chunk of sequences; returns (N, 2H).

    ``x`` (N, Cin) is the concatenation of the chunk's sequences, whose row
    counts are ``lengths`` (default: one sequence of all N rows). Columns
    ``[:H]`` of each sequence run forward in time and ``[H:]`` in reverse,
    each from zero hidden and cell states.

    One time loop of ``max(lengths)`` steps carries 2B state rows, a forward
    and a reverse row per sequence: step s advances the forward rows at t = s
    and the reverse rows at t = L - 1 - s. Past the end of a shorter sequence
    its rows see zero inputs; a padded row feeds only itself and is never
    read, so no mask is needed. The input projection runs per sequence, since
    a row-concatenated product is not bitwise equal to per-sequence ones. So
    each sequence's output equals that of a chunk of one bitwise.

    Gates are packed (input, forget, output, candidate) along the last axis of
    the (Cin, 4H) / (H, 4H) weights. The loop works on the negated i, f and o
    columns of the input projection and of ``w_hh``, so exp, add-one and
    reciprocal give their sigmoid 1 / (1 + exp(-z)) with no negation per
    step; negation is exact, so the gates are bitwise unchanged.

    The loop is gate-major. A step costs about ten numpy calls on (2B, H)
    blocks, so numpy's per-call overhead, not arithmetic, sets its pace, and
    a call on a contiguous block is about twice as fast as on a strided view
    of a row-major (2B, 4H) gate array. Each step keeps one record of seven
    (2B, H) blocks: i, f, o, tanh g, the cell entering the step, tanh of the
    cell it makes, and the hidden state entering it; the input projection is
    laid out (steps, 4, 2B, H) to match. So every elementwise operand is one
    contiguous block, and the cell update is one multiply of [i, f] by
    [tanh g, cell] and one add of the two halves. The recurrent product stays
    a row-major (2B, 1, H) @ (H, 4H) matmul, one gemv per row as a
    single-sequence run computes it, read back through a transposed view.

    Backward is a manual backprop-through-time pass in one reverse loop over
    the same records. A padded step has no output gradient, so a shorter
    sequence's rows enter its last step with zero gradients (up to sign).
    Each step's gate gradients are formed gate-major and written row-major,
    as the operand of the ``w_hh`` product. Each of x, w_ih, w_hh and b
    receives two gradient terms, the reverse direction's first, so for one
    sequence the sums equal those of two single-direction passes. Over
    several sequences each term is one product over all rows, equal to
    per-sequence sums only to rounding.
    """
    x, w_ih, w_hh, b = as_tensor(x), as_tensor(w_ih), as_tensor(w_hh), as_tensor(b)
    n, cin = x.data.shape
    hidden = w_hh.data.shape[0]
    if w_ih.data.shape != (cin, 4 * hidden) or b.data.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm parameter shapes {w_ih.data.shape}/{w_hh.data.shape}/{b.data.shape} "
            f"inconsistent for input {x.data.shape}"
        )
    lengths = np.array([n] if lengths is None else lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or (lengths < 0).any() or lengths.sum() != n:
        raise ShapeError(f"lstm lengths {lengths.tolist()} do not split {n} rows")
    nseq, steps, rows = len(lengths), int(lengths.max()), 2 * len(lengths)
    h3 = 3 * hidden
    dtype = x.data.dtype
    starts = np.cumsum(lengths) - lengths
    seq = np.repeat(np.arange(nseq), lengths)  # sequence of each row of x
    fwd = np.arange(n) - starts[seq]  # the step that reads a row forward: its time
    rev = lengths[seq] - 1 - fwd  # and in reverse

    pre = np.concatenate([x.data[s:s + k] @ w_ih.data + b.data for s, k in zip(starts, lengths)])
    pre = pre.reshape(n, 4, hidden)
    pre_steps = np.zeros((steps, 4, nseq, 2, hidden), dtype=pre.dtype)
    pre_steps[fwd, :, seq, 0] = pre
    pre_steps[rev, :, seq, 1] = pre
    pre_steps = pre_steps.reshape(steps, 4, rows, hidden)
    np.negative(pre_steps[:, :3], out=pre_steps[:, :3])
    w_fold = w_hh.data.copy()
    np.negative(w_fold[:, :h3], out=w_fold[:, :h3])

    # record[s] holds step s's blocks i, f, o, tanh g, cell in, tanh(cell out)
    # and hidden in; step s writes its cell and hidden state into record[s + 1]
    record = np.empty((steps + 1, 7, rows, hidden), dtype=dtype)
    record[0, 4:] = 0.0
    product = np.empty((rows, 1, 4 * hidden), dtype=dtype)
    product_gates = product.reshape(rows, 4, hidden).transpose(1, 0, 2)
    pair = np.empty((2, rows, hidden), dtype=dtype)
    ig, fc = pair
    ones = np.ones((3, rows, hidden), dtype=dtype)  # an array adds faster than a Python float
    steps_rec, next_rec = record[:-1], record[1:]
    # iterating the arrays builds every step's views in C, before any step runs
    for p, z, sig, g, i_f, g_c, o, tc, h_in, c, h in zip(
            pre_steps, steps_rec[:, :4], steps_rec[:, :3], steps_rec[:, 3], steps_rec[:, :2],
            steps_rec[:, 3:5], steps_rec[:, 2], steps_rec[:, 5], steps_rec[:, 6, :, None],
            next_rec[:, 4], next_rec[:, 6]):
        np.matmul(h_in, w_fold, out=product)
        np.add(product_gates, p, out=z)
        np.exp(sig, out=sig)
        np.add(sig, ones, out=sig)
        np.reciprocal(sig, out=sig)  # sigmoid of i, f, o
        np.tanh(g, out=g)
        np.multiply(i_f, g_c, out=pair)
        np.add(ig, fc, out=c)  # bitwise f * c + i * g
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)

    by_seq = record[:, 6].reshape(steps + 1, nseq, 2, hidden)
    out = Tensor(np.concatenate([by_seq[fwd + 1, seq, 0], by_seq[rev + 1, seq, 1]], axis=1))
    if not _recording(x, w_ih, w_hh, b):
        return out

    def backward(g_out):
        g_steps = np.zeros((steps, nseq, 2, hidden), dtype=g_out.dtype)
        g_steps[fwd, seq, 0] = g_out[:, :hidden]
        g_steps[rev, seq, 1] = g_out[:, hidden:]
        g_steps = g_steps.reshape(steps, rows, hidden)
        # gate blocks (i, f, o, g): the gradient of each is dc * partner (g,
        # cell in, -, i), except o's, dh * tanh(cell), times the activation
        # derivative; the o partner is o itself, finite and overwritten
        gates = steps_rec[:, :4]
        partner = steps_rec[:, [3, 4, 2, 0]]
        deriv = np.empty_like(gates)
        np.multiply(gates[:, :3], 1.0 - gates[:, :3], out=deriv[:, :3])
        np.subtract(1.0, gates[:, 3] * gates[:, 3], out=deriv[:, 3])
        tanh_cells = steps_rec[:, 5]
        tanh_deriv = 1.0 - tanh_cells * tanh_cells
        # dpre is row-major, the layout of the input of the dz @ w_hh.T gemv
        dpre = np.empty((steps, rows, 1, 4 * hidden), dtype=dtype)
        dpre_gates = dpre.reshape(steps, rows, 4, hidden).transpose(0, 2, 1, 3)
        dz_step = np.empty((4, rows, hidden), dtype=dtype)
        dz_o = dz_step[2]
        dh = np.empty((rows, hidden), dtype=dtype)
        dc = np.empty((rows, hidden), dtype=dtype)
        dh_next = np.zeros((rows, 1, hidden), dtype=dtype)
        dc_next = np.zeros((rows, hidden), dtype=dtype)
        dh_next_flat = dh_next[:, 0]
        w_hh_t = w_hh.data.T
        for g, o, td, part, dv, tc, f, dz_gates, dz_row in zip(
                g_steps[::-1], steps_rec[::-1, 2], tanh_deriv[::-1], partner[::-1],
                deriv[::-1], steps_rec[::-1, 5], steps_rec[::-1, 1], dpre_gates[::-1],
                dpre[::-1]):
            np.add(g, dh_next_flat, out=dh)
            np.multiply(dh, o, out=dc)
            np.multiply(dc, td, out=dc)
            np.add(dc, dc_next, out=dc)
            np.multiply(dc, part, out=dz_step)
            np.multiply(dh, tc, out=dz_o)
            np.multiply(dz_step, dv, out=dz_gates)
            np.matmul(dz_row, w_hh_t, out=dh_next)
            np.multiply(dc, f, out=dc_next)
        # per direction in time order, reverse first
        dpre_by_seq = dpre.reshape(steps, nseq, 2, 4 * hidden)
        for d, step in ((1, rev), (0, fwd)):
            dz = dpre_by_seq[step, seq, d]
            if x.requires_grad:
                _accum(x, dz @ w_ih.data.T)
            _accum(w_ih, x.data.T @ dz)
            _accum(w_hh, by_seq[step, seq, d].T @ dz)
            _accum(b, dz.sum(axis=0))

    return _record(out, backward)


# ---------------------------------------------------------------------------
# fused FeaSt graph convolution (manual backward)
# ---------------------------------------------------------------------------

_FEAST_CHUNK_ELEMS = 2**20  # score elements (nodes x keys x heads) per node chunk


def feast(x, key_idx, weights, steering, offsets, bias) -> Tensor:
    """Feature-steered graph convolution in which every node aggregates from
    one shared key set; returns (V, out).

    ``y_i = b + (1/k) sum_m sum_j p_m(x_i, x_j) W_m^T x_j`` over the k keys
    ``x_j = x[key_idx]``, where ``p_m`` is the softmax over the M heads of
    ``u_m . x_j + c_m - u_m . x_i`` (steering vectors u, offsets c). Shapes:
    x (V, in), weights (M, in, out), steering (M, in), offsets (M,), bias (out,).

    The scores and coefficients are head-major, (M, Vc, k), for chunks of
    ``max(1, _FEAST_CHUNK_ELEMS // (k * M))`` nodes, so the forward needs
    O(chunk) memory beyond the (M, V) node scores; a recording call keeps
    every chunk's coefficients for the backward. Within one chunk the output
    and the five gradients equal bit for bit those of the head-major graph
    of taped ops that computes the same products; over several chunks they
    agree to rounding.
    """
    x, weights, steering, offsets, bias = (
        as_tensor(t) for t in (x, weights, steering, offsets, bias))
    key_idx = np.asarray(key_idx, dtype=np.int64)
    v = x.data.shape[0]
    heads, _, cout = weights.data.shape
    k = len(key_idx)
    if k == 0:
        raise ShapeError("empty key set")
    xk = x.data[key_idx]
    s_keys = _product(steering.data, xk.T) + offsets.data[:, None]  # (M, k)
    s_nodes = _product(steering.data, x.data.T)  # (M, V)
    proj = _product(xk, weights.data)  # (M, k, out)
    scale = np.asarray(1.0 / k, dtype=x.data.dtype)
    rows = max(1, _FEAST_CHUNK_ELEMS // (k * heads))
    chunks = [slice(start, min(start + rows, v)) for start in range(0, v, rows)]
    recording = _recording(x, weights, steering, offsets, bias)

    coeffs = []
    out = np.empty((v, cout), dtype=x.data.dtype)
    for chunk in chunks:
        coeff = s_keys[:, None, :] - s_nodes[:, chunk, None]  # scores
        coeff -= coeff.max(axis=0)
        np.exp(coeff, out=coeff)
        coeff /= coeff.sum(axis=0)
        out[chunk] = _product(coeff, proj).sum(axis=0) * scale + bias.data
        if recording:
            coeffs.append(coeff)
    out = Tensor(out)
    if not recording:
        return out

    def backward(g):
        g_scaled = g * scale
        g_nodes = np.empty((heads, v), dtype=g.dtype)
        g_proj = g_keys = None
        for chunk, coeff in zip(chunks, coeffs):
            g_c = g_scaled[chunk]
            part = _product(np.swapaxes(coeff, -1, -2), g_c)  # (M, k, out)
            g_proj = part if g_proj is None else g_proj + part
            gsc = _product(g_c, np.swapaxes(proj, -1, -2))  # (M, Vc, k)
            gsc -= (gsc * coeff).sum(axis=0)
            gsc *= coeff  # score gradients
            part = gsc.sum(axis=1)  # (M, k)
            g_keys = part if g_keys is None else g_keys + part
            g_nodes[:, chunk] = -gsc.sum(axis=2)
        _accum(weights, _product(xk.T, g_proj))
        # the node term, then the key term, as the graph adds them: one summed
        # call rounds differently
        _accum(steering, _product(g_nodes, x.data))
        _accum(steering, _product(g_keys, xk))
        _accum(offsets, g_keys.sum(axis=1))
        _accum(bias, g.sum(axis=0))
        _accum(x, _product(steering.data.T, g_nodes).T)
        g_xk = _product(g_proj, np.swapaxes(weights.data, -1, -2)).sum(axis=0)
        g_xk = g_xk + _product(steering.data.T, g_keys).T
        gx = np.zeros_like(x.data)
        _scatter_add_rows(gx, key_idx, g_xk)
        _accum(x, gx)

    return _record(out, backward)
