"""Finite-difference verification of taped gradients."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import VerificationError
from .tensor import Tape, Tensor


def grad_check(
    f: Callable[[Tensor], Tensor],
    x,
    eps: float = 1e-5,
    coords: Sequence[int] | None = None,
) -> float:
    """Max relative error between the taped gradient of ``f`` at ``x`` and
    central differences, ``|a - n| / max(1e-8, |a| + |n|)`` per coordinate.

    ``f`` must be differentiable at ``x``; use :func:`kink_margin` to steer
    test points away from ReLU/max kinks. ``coords`` restricts the check to a
    subset of flat coordinates of ``x`` (all by default).
    """
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    x.requires_grad = True
    x.grad = None
    with Tape() as tape:
        y = f(x)
    if y.data.size != 1:
        raise VerificationError(f"grad_check target must be scalar, got {y.data.shape}")
    if not np.isfinite(y.data).all():
        raise VerificationError("non-finite function value in grad_check")
    tape.backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    if not np.isfinite(analytic).all():
        raise VerificationError("non-finite analytic gradient in grad_check")

    flat = x.data.reshape(-1)
    indices = range(flat.size) if coords is None else coords
    worst = 0.0
    for i in indices:
        keep = flat[i]
        flat[i] = keep + eps
        hi = f(x).item()
        flat[i] = keep - eps
        lo = f(x).item()
        flat[i] = keep
        numeric = (hi - lo) / (2.0 * eps)
        if not math.isfinite(numeric):
            raise VerificationError(f"non-finite finite-difference value at coordinate {i}")
        a = float(analytic.reshape(-1)[i])
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst


def kink_margin(f: Callable[[Tensor], Tensor], x) -> float:
    """Smallest kink distance in the forward pass of ``f`` at ``x``: a ReLU
    input's from zero, a max pool output's lead over its runner-up (a tie gives
    0, zeros after a ReLU included); inf with no kinked op, NaN if one reads NaN."""
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    x.requires_grad = True
    with Tape(track_kinks=True) as tape:
        f(x)
    return tape.min_kink_margin()


def resample_until_smooth(make_x, f):
    """Draw up to 50 points from ``make_x(attempt)`` until the forward pass of
    ``f`` keeps all kinks over ten 1e-5 grad_check steps away; returns it."""
    for attempt in range(50):
        x = make_x(attempt)
        if kink_margin(f, x) > 10.0 * 1e-5:
            return x
    raise VerificationError("could not find a kink-avoided test point")
