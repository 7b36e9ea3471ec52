"""World-level training augmentation: flip, z-rotation, uniform scale, translation.

Transforms apply in the fixed order flip -> rotate -> scale -> translate so a
logged parameter set reproduces the exact same cloud. Per-point classes are
never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class AugmentConfig:
    flip_axes: frozenset[str] = frozenset()  # subset of {"x", "y"}
    rotation_range: tuple[float, float] = (-0.785, 0.785)
    scale_range: tuple[float, float] = (0.95, 1.05)
    translate_std: tuple[float, float, float] = (5.0, 5.0, 0.05)
    translate_clip: float = 3.0
    enable_rotation: bool = False
    enable_scale: bool = False
    enable_translation: bool = False

    def __post_init__(self):
        if not self.flip_axes <= {"x", "y"}:
            raise ConfigError(f"flip axes must be within x/y, got {set(self.flip_axes)}")
        if self.scale_range[0] <= 0 or self.scale_range[1] < self.scale_range[0]:
            raise ConfigError(f"bad scale_range {self.scale_range}")
        lo, hi = self.rotation_range
        if not (-math.pi <= lo <= hi <= math.pi):
            raise ConfigError(f"rotation_range must lie within [-pi, pi], got {self.rotation_range}")

    @property
    def enabled(self) -> bool:
        return bool(self.flip_axes) or self.enable_rotation or self.enable_scale \
            or self.enable_translation


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
    flip_x = "x" in cfg.flip_axes and bool(rng.integers(0, 2))
    flip_y = "y" in cfg.flip_axes and bool(rng.integers(0, 2))
    rotation = float(rng.uniform(*cfg.rotation_range)) if cfg.enable_rotation else 0.0
    scale = float(rng.uniform(*cfg.scale_range)) if cfg.enable_scale else 1.0
    translation = (0.0, 0.0, 0.0)
    if cfg.enable_translation:
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
