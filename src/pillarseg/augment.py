"""World-level training augmentation: flip, z-rotation, uniform scale, translation.

Transforms apply in the fixed order flip -> rotate -> scale -> translate so a
logged parameter set reproduces the exact same cloud. Per-point classes are
never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Literal

import numpy as np

from .errors import ConfigError
from .flat import NonNegative, Positive

Angle = Annotated[float, "in [-pi, pi]"]


@dataclass(frozen=True)
class AugmentConfig:
    """The augmentations a run enables, the key ``augment`` (``none``, alone,
    enables none), and the ranges they draw from."""

    flags: frozenset[Literal["flip_x", "flip_y", "rotate", "scale", "translate", "none"]] = \
        field(default=frozenset(), metadata={"key": "augment"})
    rotation_range: tuple[Angle, Angle] = (-0.785, 0.785)
    scale_range: tuple[Positive, Positive] = (0.95, 1.05)
    translate_std: tuple[NonNegative, NonNegative, NonNegative] = (5.0, 5.0, 0.05)
    translate_clip: NonNegative = 3.0

    def __post_init__(self):
        if "none" in self.flags and len(self.flags) > 1:
            raise ConfigError(f"augment none takes no other flag, got {sorted(self.flags)}")
        for name, (lo, hi) in (("rotation_range", self.rotation_range),
                               ("scale_range", self.scale_range)):
            if hi < lo:
                raise ConfigError(f"{name} max must not be below min, got [{lo}, {hi}]")

    @property
    def enabled(self) -> bool:
        return not self.flags <= {"none"}


@dataclass(frozen=True)
class AugmentParams:
    """One concrete sampled transform."""

    flip_x: bool = False
    flip_y: bool = False
    rotation: float = 0.0
    scale: float = 1.0
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)


def sample_params(cfg: AugmentConfig, seed: int) -> AugmentParams:
    """Deterministic transform draw: Bernoulli(0.5) flips per enabled axis,
    uniform rotation and scale, per-axis normal translation clipped at
    ``translate_clip`` standard deviations."""
    rng = np.random.default_rng(seed)
    flip_x = "flip_x" in cfg.flags and bool(rng.integers(0, 2))
    flip_y = "flip_y" in cfg.flags and bool(rng.integers(0, 2))
    rotation = float(rng.uniform(*cfg.rotation_range)) if "rotate" in cfg.flags else 0.0
    scale = float(rng.uniform(*cfg.scale_range)) if "scale" in cfg.flags else 1.0
    translation = (0.0, 0.0, 0.0)
    if "translate" in cfg.flags:
        std = np.asarray(cfg.translate_std, dtype=np.float64)
        raw = rng.normal(0.0, 1.0, 3) * std
        clip = cfg.translate_clip * std
        translation = tuple(np.clip(raw, -clip, clip))
    return AugmentParams(flip_x, flip_y, rotation, scale, translation)


def apply_params(xyz: np.ndarray, params: AugmentParams) -> np.ndarray:
    """Apply a sampled transform to (N, 3) coordinates; order flip -> rotate ->
    scale -> translate. Flips negate an axis; rotation is about z through the
    origin."""
    out = np.array(xyz, dtype=np.float64)
    if params.flip_x:
        out[:, 0] = -out[:, 0]
    if params.flip_y:
        out[:, 1] = -out[:, 1]
    if params.rotation != 0.0:
        c, s = math.cos(params.rotation), math.sin(params.rotation)
        x, y = out[:, 0].copy(), out[:, 1].copy()
        out[:, 0] = c * x - s * y
        out[:, 1] = s * x + c * y
    if params.scale != 1.0:
        out *= params.scale
    if params.translation != (0.0, 0.0, 0.0):
        out += np.asarray(params.translation)
    return out


def apply_augment(xyz: np.ndarray, cfg: AugmentConfig, seed: int) -> np.ndarray:
    """Sample and apply one transform; point order is kept, so per-point
    classes stay aligned."""
    return apply_params(xyz, sample_params(cfg, seed))
