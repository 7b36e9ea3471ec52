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


def default_dtype():
    return _DEFAULT_DTYPE


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
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

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=_DEFAULT_DTYPE))


def parameter(x, dtype=None) -> Tensor:
    return Tensor(np.asarray(x), requires_grad=True, dtype=dtype)


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


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _record(out, backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _record(out, backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(out, backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)
    if not _recording(a, b):
        return out

    def backward(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

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


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)
    out = Tensor(t)
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g * (1.0 - t * t))

    return _record(out, backward)


def exp(x) -> Tensor:
    x = as_tensor(x)
    e = np.exp(x.data)
    out = Tensor(e)
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g * e)

    return _record(out, backward)


def log(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.log(x.data))
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g / x.data)

    return _record(out, backward)


def square(x) -> Tensor:
    return mul(x, x)


# ---------------------------------------------------------------------------
# reductions and normalizations
# ---------------------------------------------------------------------------


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    if not _recording(x):
        return out

    def backward(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy() if np.ndim(g) else np.full_like(x.data, g))
            return
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(gg, x.data.shape).copy())

    return _record(out, backward)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def tmax(x, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; gradient flows to the first maximum along the axis."""
    x = as_tensor(x)
    idx = np.argmax(x.data, axis=axis)
    out_data = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    tape = active_tape()
    if tape is not None and tape.track_kinks and x.data.shape[axis] > 1:
        part = np.partition(x.data, -2, axis=axis)
        top1 = part.take(-1, axis=axis)
        top2 = part.take(-2, axis=axis)
        tape.kink_margins.append(float((top1 - top2).min()))
    out = Tensor(out_data if keepdims else out_data.squeeze(axis))
    if not _recording(x):
        return out

    def backward(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), gg, axis=axis)
        _accum(x, gx)

    return _record(out, backward)


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along `axis`.

    The max and sum run over the leading axis of a C-contiguous copy with
    `axis` moved first; numpy reduces such slabs elementwise, far faster than
    a short strided axis. Output and input gradient come back C-contiguous,
    so later reductions over them keep their order. Slabs are summed in
    sequence, as numpy sums a contiguous axis shorter than 8 elements: the
    result equals a reduction along `axis` itself bitwise when that axis is
    shorter than 8 or not the last one, and to rounding otherwise.
    """
    x = as_tensor(x)
    lead = np.ascontiguousarray(np.moveaxis(x.data, axis, 0))
    e = np.exp(lead - lead.max(axis=0))
    s = np.ascontiguousarray(np.moveaxis(e / e.sum(axis=0), 0, axis))
    out = Tensor(s)
    if not _recording(x):
        return out

    def backward(g):
        s_lead = np.ascontiguousarray(np.moveaxis(s, axis, 0))
        g_lead = np.ascontiguousarray(np.moveaxis(g, axis, 0))
        dot = (g_lead * s_lead).sum(axis=0)
        _accum(x, np.ascontiguousarray(np.moveaxis(s_lead * (g_lead - dot), 0, axis)))

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


def broadcast_middle(x, n: int) -> Tensor:
    """(P, D) -> (P, n, D) by repetition along a new middle axis."""
    x = as_tensor(x)
    out = Tensor(np.broadcast_to(x.data[:, None, :], (x.data.shape[0], n, x.data.shape[1])).copy())
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g.sum(axis=1))

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


def segment_sum(x, segments, num_segments: int) -> Tensor:
    """Sum rows of `x` into `num_segments` buckets given per-row segment ids."""
    x = as_tensor(x)
    segments = np.asarray(segments, dtype=np.int64)
    data = np.zeros((num_segments,) + x.data.shape[1:], dtype=x.data.dtype)
    _scatter_add_rows(data, segments, x.data)
    out = Tensor(data)
    if not _recording(x):
        return out

    def backward(g):
        _accum(x, g[segments])

    return _record(out, backward)


def segment_max(x, segments, num_segments: int) -> Tensor:
    """Per-segment max over rows; empty segments yield zero rows (no gradient).

    Ties route the gradient to the first row of the segment attaining the max.
    Segment ids may come in any order. A stable sort groups the rows; each
    non-empty segment's rows then fill one row of a (C, segments, longest)
    slab padded with -inf, whose argmax is the first row at the max.
    """
    x = as_tensor(x)
    segments = np.asarray(segments, dtype=np.int64)
    n, width = x.data.shape
    data = np.zeros((num_segments, width), dtype=x.data.dtype)
    order = np.argsort(segments, kind="stable")
    sorted_seg = segments[order]
    starts = np.flatnonzero(np.diff(sorted_seg, prepend=sorted_seg[:1] - 1))
    seg_ids = sorted_seg[starts]
    counts = np.diff(starts, append=n)
    slab = np.full((width, len(starts), counts.max(initial=1)), -np.inf, dtype=x.data.dtype)
    slab[:, np.repeat(np.arange(len(starts)), counts),
         np.arange(n) - np.repeat(starts, counts)] = x.data[order].T
    arg = order[starts + slab.argmax(axis=2)].T  # source row per (non-empty segment, column)
    data[seg_ids] = np.take_along_axis(x.data, arg, axis=0)
    out = Tensor(data)
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[arg, np.arange(width)] += g[seg_ids]  # added to zeros: -0.0 turns +0.0, as summed
        _accum(x, gx)

    return _record(out, backward)


def masked_max_pool(x, mask) -> Tensor:
    """(P, N, C) max over the N axis restricted to mask; empty rows yield zero."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    neg = np.where(mask[:, :, None], x.data, -np.inf)
    any_valid = mask.any(axis=1)
    idx = np.argmax(neg, axis=1)  # (P, C)
    pooled = np.take_along_axis(x.data, idx[:, None, :], axis=1)[:, 0, :]
    pooled = np.where(any_valid[:, None], pooled, 0.0)
    out = Tensor(pooled)
    if not _recording(x):
        return out

    def backward(g):
        gx = np.zeros_like(x.data)
        gg = np.where(any_valid[:, None], g, 0.0)
        np.put_along_axis(gx, idx[:, None, :], gg[:, None, :], axis=1)
        _accum(x, gx)

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


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int) -> np.ndarray:
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((c, kh, kw, h, w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + h, j : j + w]
    return cols.reshape(c * kh * kw, h * w)


def _col2im(cols: np.ndarray, shape: tuple[int, int, int], kh: int, kw: int, pad: int) -> np.ndarray:
    c, h, w = shape
    cols = cols.reshape(c, kh, kw, h, w)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, i : i + h, j : j + w] += cols[:, i, j]
    return xp[:, pad : pad + h, pad : pad + w]


def conv2d(x, weight, bias=None, padding: int | None = None) -> Tensor:
    """Same-size 2D convolution of a (C, H, W) tensor with (Cout, Cin, k, k) kernels."""
    x, weight = as_tensor(x), as_tensor(weight)
    cout, cin, kh, kw = weight.data.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernels must be odd squares, got {kh}x{kw}")
    if x.data.ndim != 3 or x.data.shape[0] != cin:
        raise ShapeError(f"conv2d input {x.data.shape} does not match kernel {weight.data.shape}")
    pad = kh // 2 if padding is None else padding
    c, h, w = x.data.shape
    cols = _im2col(x.data, kh, kw, pad)
    w2 = weight.data.reshape(cout, -1)
    res = w2 @ cols
    if bias is not None:
        bias = as_tensor(bias)
        res = res + bias.data[:, None]
    out = Tensor(res.reshape(cout, h, w))
    operands = (x, weight) if bias is None else (x, weight, bias)
    if not _recording(*operands):
        return out

    def backward(g):
        g2 = g.reshape(cout, -1)
        _accum(weight, (g2 @ cols.T).reshape(weight.data.shape))
        if bias is not None:
            _accum(bias, g2.sum(axis=1))
        _accum(x, _col2im(w2.T @ g2, x.data.shape, kh, kw, pad))

    return _record(out, backward)


def maxpool2d(x) -> Tensor:
    """2x2 max pooling with stride 2 on a (C, H, W) tensor; extents must be even."""
    x = as_tensor(x)
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d needs even extents, got {h}x{w}")
    windows = x.data.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
        c, h // 2, w // 2, 4
    )
    idx = np.argmax(windows, axis=3)
    pooled = np.take_along_axis(windows, idx[..., None], axis=3)[..., 0]
    tape = active_tape()
    if tape is not None and tape.track_kinks:
        part = np.partition(windows, -2, axis=3)
        tape.kink_margins.append(float((part[..., -1] - part[..., -2]).min()))
    out = Tensor(pooled)
    if not _recording(x):
        return out

    def backward(g):
        gw = np.zeros_like(windows)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=3)
        gx = gw.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)
        _accum(x, gx)

    return _record(out, backward)


def upsample2x(x) -> Tensor:
    """Nearest-neighbor 2x upsampling of a (C, H, W) tensor."""
    x = as_tensor(x)
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


def batch_norm(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.9,
    eps: float = 1e-5,
    channel_axis: int = -1,
) -> Tensor:
    """Per-channel normalization over all non-channel axes.

    Train mode normalizes by batch statistics (biased variance) and updates the
    running arrays in place with ``running = momentum*running + (1-m)*batch``;
    inference mode uses the running statistics.
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
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + eps)
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


def lstm(x, w_ih, w_hh, b) -> Tensor:
    """Bidirectional LSTM of one shared cell over a (T, Cin) sequence; returns (T, 2H).

    Columns ``[:H]`` run forward in time and ``[H:]`` in reverse, each from
    zero hidden and cell states. One time loop carries a (2, H) state: step s
    advances the forward direction at t = s and the reverse one at
    t = T - 1 - s, with the recurrent product as one batched (2, 1, H) @ (H, 4H)
    matmul. Gates are packed (input, forget, output, candidate) along the last
    axis of the (Cin, 4H) / (H, 4H) weights, so one sigmoid covers the first
    three blocks.

    Backward is a manual backprop-through-time pass in the same single loop.
    Each of x, w_ih, w_hh and b receives two gradient terms, the reverse
    direction's first, so the sums equal those of two single-direction passes.
    """
    x, w_ih, w_hh, b = as_tensor(x), as_tensor(w_ih), as_tensor(w_hh), as_tensor(b)
    t_len, cin = x.data.shape
    hidden = w_hh.data.shape[0]
    if w_ih.data.shape != (cin, 4 * hidden) or b.data.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm parameter shapes {w_ih.data.shape}/{w_hh.data.shape}/{b.data.shape} "
            f"inconsistent for input {x.data.shape}"
        )
    h3 = 3 * hidden
    dtype = x.data.dtype

    pre = x.data @ w_ih.data + b.data  # (T, 4H)
    pre_steps = np.stack([pre, pre[::-1]], axis=1)  # (T, 2, 4H): times s and T-1-s
    # per step s: post-activation gates and tanh(cell); cells[s] and states[s]
    # are the cell and hidden state entering step s, zero at s = 0
    acts = np.empty((t_len, 2, 4 * hidden), dtype=dtype)
    tanh_cells = np.empty((t_len, 2, hidden), dtype=dtype)
    cells = np.zeros((t_len + 1, 2, hidden), dtype=dtype)
    states = np.zeros((t_len + 1, 2, 1, hidden), dtype=dtype)
    for s in range(t_len):
        a = acts[s]
        np.matmul(states[s], w_hh.data, out=a[:, None])
        a += pre_steps[s]
        sig = a[:, :h3]
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)  # sigmoid of i, f, o
        np.tanh(a[:, h3:], out=a[:, h3:])
        c = cells[s + 1]
        np.multiply(a[:, hidden:2 * hidden], cells[s], out=c)
        c += a[:, :hidden] * a[:, h3:]
        np.tanh(c, out=tanh_cells[s])
        np.multiply(a[:, 2 * hidden:h3], tanh_cells[s], out=states[s + 1, :, 0])

    out = Tensor(np.concatenate([states[1:, 0, 0], states[:0:-1, 1, 0]], axis=1))
    if not _recording(x, w_ih, w_hh, b):
        return out

    def backward(g_out):
        g_steps = np.stack([g_out[:, :hidden], g_out[::-1, hidden:]], axis=1)  # (T, 2, H)
        # gate blocks (i, f, o, g): the gradient of each is dc * partner, except
        # o's, dh * tanh(cell), times the activation derivative
        gates = acts.reshape(t_len, 2, 4, hidden)
        partner = gates[:, :, [3, 1, 2, 0]]
        partner[:, :, 1] = cells[:-1]
        deriv = np.empty_like(gates)
        np.multiply(gates[:, :, :3], 1.0 - gates[:, :, :3], out=deriv[:, :, :3])
        np.subtract(1.0, gates[:, :, 3] * gates[:, :, 3], out=deriv[:, :, 3])
        tanh_deriv = 1.0 - tanh_cells * tanh_cells
        dpre = np.empty((t_len, 2, 4, hidden), dtype=dtype)
        dh_next = dc_next = np.zeros((2, hidden), dtype=dtype)
        for s in range(t_len - 1, -1, -1):
            dh = g_steps[s] + dh_next
            dc = dh * gates[s, :, 2]
            dc *= tanh_deriv[s]
            dc += dc_next
            dz = dpre[s]
            np.multiply(dc[:, None], partner[s], out=dz)
            np.multiply(dh, tanh_cells[s], out=dz[:, 2])
            dz *= deriv[s]
            dh_next = np.matmul(dz.reshape(2, 1, 4 * hidden), w_hh.data.T)[:, 0]
            dc_next = dc * gates[s, :, 1]
        # per direction in time order, reverse first
        dpre = dpre.reshape(t_len, 2, 4 * hidden)
        for d, h_prev in ((dpre[::-1, 1], states[-2::-1, 1, 0]), (dpre[:, 0], states[:-1, 0, 0])):
            d = np.ascontiguousarray(d)
            _accum(x, d @ w_ih.data.T)
            _accum(w_ih, x.data.T @ d)
            _accum(w_hh, np.ascontiguousarray(h_prev).T @ d)
            _accum(b, d.sum(axis=0))

    return _record(out, backward)
