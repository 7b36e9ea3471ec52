"""Minimal reverse-mode NN core: tensors, layers, optimizer, gradient checks."""

from . import tensor
from .gradcheck import grad_check, kink_margin, resample_until_smooth
from .layers import Affine, BatchNorm, BiLSTM, ConvBNReLU, DownBlock, UpBlock, collect_state
from .optim import Adam
from .tensor import Tape, Tensor, set_default_dtype

__all__ = [
    "tensor",
    "Tape",
    "Tensor",
    "Adam",
    "Affine",
    "BatchNorm",
    "BiLSTM",
    "ConvBNReLU",
    "DownBlock",
    "UpBlock",
    "collect_state",
    "grad_check",
    "kink_margin",
    "resample_until_smooth",
    "set_default_dtype",
]
