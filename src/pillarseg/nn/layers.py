"""Parameterized layers over the tape ops.

Every layer exposes ``state()``, a flat ``name -> value`` dict of all it
holds: its trainable ``Tensor``s and, for :class:`BatchNorm`, the running
statistic arrays. A composite layer names its children's entries by dotted
path through :func:`collect_state`, so one walk names a whole model for the
optimizer and for checkpoints.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .tensor import Tensor


def collect_state(**children) -> dict[str, Tensor | np.ndarray]:
    """Every child's ``state()`` entries, in keyword order, each name prefixed
    with the child's keyword."""
    out: dict[str, Tensor | np.ndarray] = {}
    for prefix, child in children.items():
        for name, value in child.state().items():
            out[f"{prefix}.{name}"] = value
    return out


class Affine:
    """y = x @ W + b with shared weights over all leading axes."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        self.weight = T.parameter(rng.normal(0.0, np.sqrt(2.0 / cin), (cin, cout)))
        self.bias = T.parameter(np.zeros(cout))

    def __call__(self, x) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)  # matmul checks the shapes

    def state(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class BatchNorm:
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, channel_axis: int = -1):
        self.gamma = T.parameter(np.ones(channels))
        self.beta = T.parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.channel_axis = channel_axis

    def __call__(self, x, training: bool) -> Tensor:
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                            training, self.channel_axis)

    def state(self) -> dict[str, Tensor | np.ndarray]:
        """The scale and shift tensors, then the running statistics."""
        return {"gamma": self.gamma, "beta": self.beta,
                "running_mean": self.running_mean, "running_var": self.running_var}


class BiLSTM:
    """Bidirectional LSTM sharing one cell across both directions.

    Takes a chunk of frames' (T_b, Cin) sequences and returns their (T_b, 2H)
    outputs, the per-step concatenation of the forward and reverse passes. One
    :func:`tensor.lstm` call runs the whole chunk: the sequences are
    concatenated, shorter ones are zero-padded past their end inside one time
    loop, and each output is bitwise that of a chunk of one. At T = 1 both
    halves coincide by construction.
    """

    def __init__(self, cin: int, hidden: int, rng: np.random.Generator):
        k = 1.0 / np.sqrt(hidden)
        self.w_ih = T.parameter(rng.uniform(-k, k, (cin, 4 * hidden)))
        self.w_hh = T.parameter(rng.uniform(-k, k, (hidden, 4 * hidden)))
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.bias = T.parameter(b)
        self.hidden = hidden

    def __call__(self, xs) -> list[Tensor]:
        lengths = [T.as_tensor(x).data.shape[0] for x in xs]
        out = T.lstm(T.concat(xs, axis=0), self.w_ih, self.w_hh, self.bias, lengths)
        starts = np.cumsum(lengths) - lengths
        return [T.narrow(out, 0, s, n) for s, n in zip(starts.tolist(), lengths)]

    def state(self) -> dict[str, Tensor]:
        return {"w_ih": self.w_ih, "w_hh": self.w_hh, "bias": self.bias}


class ConvBNReLU:
    """3x3 convolution, per-channel BatchNorm, ReLU. The convolution has no
    bias: BatchNorm subtracts the batch mean, which would cancel it, and its
    shift ``beta`` takes that role."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        self.weight = T.parameter(rng.normal(0.0, np.sqrt(2.0 / (cin * 9)), (cout, cin, 3, 3)))
        self.bn = BatchNorm(cout, channel_axis=0)

    def __call__(self, x, training: bool) -> Tensor:
        return T.relu(self.bn(T.conv2d(x, self.weight), training))

    def state(self) -> dict[str, Tensor | np.ndarray]:
        return {"weight": self.weight, **collect_state(bn=self.bn)}


class DownBlock:
    """Two 3x3 conv+BN+ReLU, then 2x2 max pool. Returns (skip, pooled)."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        self.conv1 = ConvBNReLU(cin, cout, rng)
        self.conv2 = ConvBNReLU(cout, cout, rng)

    def __call__(self, x, training: bool) -> tuple[Tensor, Tensor]:
        skip = self.conv2(self.conv1(x, training), training)
        return skip, T.maxpool2d(skip)

    def state(self) -> dict[str, Tensor | np.ndarray]:
        return collect_state(conv1=self.conv1, conv2=self.conv2)


class UpBlock:
    """2x nearest upsample, skip concat, then two 3x3 conv+BN+ReLU."""

    def __init__(self, cin: int, skip_channels: int, cout: int, rng: np.random.Generator):
        self.conv1 = ConvBNReLU(cin + skip_channels, cout, rng)
        self.conv2 = ConvBNReLU(cout, cout, rng)

    def __call__(self, x, skip, training: bool) -> Tensor:
        up = T.upsample2x(x)
        if up.data.shape[1:] != skip.data.shape[1:]:
            raise ShapeError(
                f"upsampled extent {up.data.shape} does not match skip {skip.data.shape}"
            )
        y = T.concat([up, skip], axis=0)
        return self.conv2(self.conv1(y, training), training)

    def state(self) -> dict[str, Tensor | np.ndarray]:
        return collect_state(conv1=self.conv1, conv2=self.conv2)
