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


def lstm(x, w_ih, w_hh, b, lengths=None) -> Tensor:
    """Bidirectional LSTM of one shared cell over a chunk of sequences; returns (N, 2H).

    ``x`` (N, Cin) is the concatenation of the chunk's sequences, whose row
    counts are ``lengths`` (default: one sequence of all N rows). Columns
    ``[:H]`` of each sequence run forward in time and ``[H:]`` in reverse,
    each from zero hidden and cell states.

    One time loop of ``max(lengths)`` steps carries a (2B, 1, H) state, a
    forward and a reverse row per sequence: step s advances the forward rows
    at t = s and the reverse rows at t = L - 1 - s, with the recurrent product
    as one batched (2B, 1, H) @ (H, 4H) matmul. Past the end of a shorter
    sequence its rows see zero inputs; a padded row feeds only itself and is
    never read, so no mask is needed. The input projection runs per sequence,
    since a row-concatenated product is not bitwise equal to per-sequence
    ones. So each sequence's output equals that of a chunk of one bitwise.

    Gates are packed (input, forget, output, candidate) along the last axis of
    the (Cin, 4H) / (H, 4H) weights. The loop works on the negated i, f and o
    columns of the input projection and of ``w_hh``, so exp, add-one and
    reciprocal give their sigmoid 1 / (1 + exp(-z)) with no negation per
    step; negation is exact, so the gates are bitwise unchanged.

    Backward is a manual backprop-through-time pass in one reverse loop over
    the same steps. A padded step has no output gradient, so a shorter
    sequence's rows enter its last step with zero gradients (up to sign).
    Each of x, w_ih, w_hh and b receives two gradient terms, the reverse
    direction's first, so for one sequence the sums equal those of two
    single-direction passes. Over several sequences each term is one product
    over all rows, equal to per-sequence sums only to rounding.
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
    pre_steps = np.zeros((steps, nseq, 2, 1, 4 * hidden), dtype=pre.dtype)
    pre_steps[fwd, seq, 0, 0] = pre
    pre_steps[rev, seq, 1, 0] = pre
    pre_steps = pre_steps.reshape(steps, rows, 1, 4 * hidden)
    np.negative(pre_steps[..., :h3], out=pre_steps[..., :h3])
    w_fold = w_hh.data.copy()
    np.negative(w_fold[:, :h3], out=w_fold[:, :h3])

    # per step s: post-activation gates and tanh(cell); cells[s] and states[s]
    # are the cell and hidden state entering step s, zero at s = 0
    acts = np.empty((steps, rows, 1, 4 * hidden), dtype=dtype)
    gates = acts[:, :, 0]
    tanh_cells = np.empty((steps, rows, hidden), dtype=dtype)
    cells = np.zeros((steps + 1, rows, hidden), dtype=dtype)
    states = np.zeros((steps + 1, rows, 1, hidden), dtype=dtype)
    ig = np.empty((rows, hidden), dtype=dtype)
    ones = np.ones((rows, h3), dtype=dtype)  # an array adds faster than a Python float
    # iterating the arrays builds every step's views in C, before any step runs
    for a, p, sig, g, i, f, o, c_in, c, tc, h_in, h in zip(
            acts, pre_steps, gates[..., :h3], gates[..., h3:], gates[..., :hidden],
            gates[..., hidden:2 * hidden], gates[..., 2 * hidden:h3], cells[:-1], cells[1:],
            tanh_cells, states[:-1], states[1:, :, 0]):
        np.matmul(h_in, w_fold, out=a)
        np.add(a, p, out=a)
        np.exp(sig, out=sig)
        np.add(sig, ones, out=sig)
        np.reciprocal(sig, out=sig)  # sigmoid of i, f, o
        np.tanh(g, out=g)
        np.multiply(f, c_in, out=c)
        np.multiply(i, g, out=ig)
        np.add(c, ig, out=c)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)

    by_seq = states.reshape(steps + 1, nseq, 2, hidden)
    out = Tensor(np.concatenate([by_seq[fwd + 1, seq, 0], by_seq[rev + 1, seq, 1]], axis=1))
    if not _recording(x, w_ih, w_hh, b):
        return out

    def backward(g_out):
        g_steps = np.zeros((steps, nseq, 2, hidden), dtype=g_out.dtype)
        g_steps[fwd, seq, 0] = g_out[:, :hidden]
        g_steps[rev, seq, 1] = g_out[:, hidden:]
        g_steps = g_steps.reshape(steps, rows, hidden)
        # gate blocks (i, f, o, g): the gradient of each is dc * partner, except
        # o's, dh * tanh(cell), times the activation derivative
        blocks = gates.reshape(steps, rows, 4, hidden)
        partner = blocks[:, :, [3, 1, 2, 0]]
        partner[:, :, 1] = cells[:-1]
        deriv = np.empty_like(blocks)
        np.multiply(blocks[:, :, :3], 1.0 - blocks[:, :, :3], out=deriv[:, :, :3])
        np.subtract(1.0, blocks[:, :, 3] * blocks[:, :, 3], out=deriv[:, :, 3])
        tanh_deriv = 1.0 - tanh_cells * tanh_cells
        dpre = np.empty((steps, rows, 1, 4 * hidden), dtype=dtype)
        dz_blocks = dpre.reshape(steps, rows, 4, hidden)
        dh = np.empty((rows, hidden), dtype=dtype)
        dc = np.empty((rows, 1, hidden), dtype=dtype)
        dh_next = np.zeros((rows, 1, hidden), dtype=dtype)
        dc_next = np.zeros((rows, hidden), dtype=dtype)
        dc_flat, dh_next_flat = dc[:, 0], dh_next[:, 0]
        w_hh_t = w_hh.data.T
        for g, o, td, dz_row, dz, dz_o, part, dv, tc, f in zip(
                g_steps[::-1], blocks[::-1, :, 2], tanh_deriv[::-1], dpre[::-1],
                dz_blocks[::-1], dz_blocks[::-1, :, 2], partner[::-1], deriv[::-1],
                tanh_cells[::-1], blocks[::-1, :, 1]):
            np.add(g, dh_next_flat, out=dh)
            np.multiply(dh, o, out=dc_flat)
            np.multiply(dc_flat, td, out=dc_flat)
            np.add(dc_flat, dc_next, out=dc_flat)
            np.multiply(dc, part, out=dz)
            np.multiply(dh, tc, out=dz_o)
            np.multiply(dz, dv, out=dz)
            np.matmul(dz_row, w_hh_t, out=dh_next)
            np.multiply(dc_flat, f, out=dc_next)
        # per direction in time order, reverse first
        dpre_by_seq = dpre.reshape(steps, nseq, 2, 4 * hidden)
        for d, step in ((1, rev), (0, fwd)):
            dz = dpre_by_seq[step, seq, d]
            _accum(x, dz @ w_ih.data.T)
            _accum(w_ih, x.data.T @ dz)
            _accum(w_hh, by_seq[step, seq, d].T @ dz)
            _accum(b, dz.sum(axis=0))

    return _record(out, backward)
