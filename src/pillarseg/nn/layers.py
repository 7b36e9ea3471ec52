"""Parameterized layers over the tape ops.

Every layer exposes ``params()`` returning a flat ``name -> Tensor`` dict so
checkpoints can address tensors by dotted path.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .tensor import Tensor


def collect_params(**children) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for prefix, child in children.items():
        for name, p in child.params().items():
            out[f"{prefix}.{name}"] = p
    return out


class Affine:
    """y = x @ W + b with shared weights over all leading axes."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator, zero_init: bool = False):
        if zero_init:
            w = np.zeros((cin, cout))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / cin), (cin, cout))
        self.weight = T.parameter(w)
        self.bias = T.parameter(np.zeros(cout))

    def __call__(self, x) -> Tensor:
        x = T.as_tensor(x)
        if x.data.shape[-1] != self.weight.data.shape[0]:
            raise ShapeError(
                f"affine input {x.data.shape} incompatible with weight {self.weight.data.shape}"
            )
        return T.matmul(x, self.weight) + self.bias

    def params(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class BatchNorm:
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5,
                 channel_axis: int = -1):
        self.gamma = T.parameter(np.ones(channels))
        self.beta = T.parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self.channel_axis = channel_axis

    def __call__(self, x, training: bool) -> Tensor:
        return T.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training, self.momentum, self.eps, self.channel_axis,
        )

    def params(self) -> dict[str, Tensor]:
        return {"gamma": self.gamma, "beta": self.beta}

    def state(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


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

    def params(self) -> dict[str, Tensor]:
        return {"w_ih": self.w_ih, "w_hh": self.w_hh, "bias": self.bias}


class ConvBNReLU:
    def __init__(self, cin: int, cout: int, rng: np.random.Generator, kernel_size: int = 3,
                 use_bn: bool = True):
        fan_in = cin * kernel_size * kernel_size
        self.weight = T.parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                             (cout, cin, kernel_size, kernel_size)))
        self.bias = T.parameter(np.zeros(cout))
        self.bn = BatchNorm(cout, channel_axis=0) if use_bn else None

    def __call__(self, x, training: bool) -> Tensor:
        y = T.conv2d(x, self.weight, self.bias)
        if self.bn is not None:
            y = self.bn(y, training)
        return T.relu(y)

    def params(self) -> dict[str, Tensor]:
        out = {"weight": self.weight, "bias": self.bias}
        if self.bn is not None:
            out.update({f"bn.{k}": v for k, v in self.bn.params().items()})
        return out


class DownBlock:
    """Two 3x3 conv+BN+ReLU, then 2x2 max pool. Returns (skip, pooled)."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator, kernel_size: int = 3,
                 use_bn: bool = True):
        self.conv1 = ConvBNReLU(cin, cout, rng, kernel_size, use_bn)
        self.conv2 = ConvBNReLU(cout, cout, rng, kernel_size, use_bn)

    def __call__(self, x, training: bool) -> tuple[Tensor, Tensor]:
        skip = self.conv2(self.conv1(x, training), training)
        return skip, T.maxpool2d(skip)

    def params(self) -> dict[str, Tensor]:
        return collect_params(conv1=self.conv1, conv2=self.conv2)


class UpBlock:
    """2x nearest upsample, skip concat, then two 3x3 conv+BN+ReLU."""

    def __init__(self, cin: int, skip_channels: int, cout: int, rng: np.random.Generator,
                 kernel_size: int = 3, use_bn: bool = True):
        self.conv1 = ConvBNReLU(cin + skip_channels, cout, rng, kernel_size, use_bn)
        self.conv2 = ConvBNReLU(cout, cout, rng, kernel_size, use_bn)

    def __call__(self, x, skip, training: bool) -> Tensor:
        up = T.upsample2x(x)
        if up.data.shape[1:] != skip.data.shape[1:]:
            raise ShapeError(
                f"upsampled extent {up.data.shape} does not match skip {skip.data.shape}"
            )
        y = T.concat([up, skip], axis=0)
        return self.conv2(self.conv1(y, training), training)

    def params(self) -> dict[str, Tensor]:
        return collect_params(conv1=self.conv1, conv2=self.conv2)
