"""Portable graymap/pixmap output and the class color palette.

All writers emit binary netpbm (P5/P6); 16-bit graymaps use the netpbm
big-endian sample order. The raw dump variant is little-endian row-major and
meant for exact comparisons.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError


def write_pgm8(path: str | Path, values: np.ndarray) -> None:
    """8-bit graymap; float inputs are scaled by their maximum, integer inputs
    are clamped to [0, 255]."""
    if values.ndim != 2:
        raise FormatError(f"graymap needs a 2-d array, got {values.shape}")
    if np.issubdtype(values.dtype, np.floating):
        peak = float(values.max()) if values.size else 0.0
        scaled = np.zeros_like(values) if peak <= 0 else values / peak * 255.0
        data = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    else:
        data = np.clip(values, 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def write_pgm16(path: str | Path, values: np.ndarray) -> None:
    """16-bit graymap of non-negative integers (class indices)."""
    if values.ndim != 2:
        raise FormatError(f"graymap needs a 2-d array, got {values.shape}")
    data = np.asarray(values)
    if data.min() < 0 or data.max() > 65535:
        raise FormatError("16-bit graymap values out of range")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(data.astype(">u2").tobytes())


def write_raw16(path: str | Path, values: np.ndarray) -> None:
    """Lossless (H, W) row-major little-endian 16-bit dump."""
    Path(path).write_bytes(np.asarray(values).astype("<u2").tobytes())


def write_legend(path: str | Path, class_names: list[str]) -> None:
    lines = [f"{i} {name}" for i, name in enumerate(class_names)]
    Path(path).write_text("\n".join(lines) + "\n")


def parse_palette(text: str) -> dict[str, tuple[int, int, int]]:
    """``name r g b`` per line."""
    out: dict[str, tuple[int, int, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise FormatError(f"palette line {lineno}: expected 'name r g b'")
        try:
            out[tokens[0]] = tuple(int(t) for t in tokens[1:])  # type: ignore[assignment]
        except ValueError as exc:
            raise FormatError(f"palette line {lineno}: bad color") from exc
    if not out:
        raise FormatError("palette is empty")
    return out


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FormatError(f"pixmap needs (H, W, 3), got {rgb.shape}")
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.clip(rgb, 0, 255).astype(np.uint8).tobytes())


def render_class_map(
    labels: np.ndarray,
    class_names: list[str],
    palette: dict[str, tuple[int, int, int]],
    observed: np.ndarray | None = None,
) -> np.ndarray:
    """Color image of a class-index grid; unobserved cells are painted white."""
    colors = np.zeros((len(class_names), 3), dtype=np.uint8)
    for i, name in enumerate(class_names):
        if name not in palette:
            raise ConfigError(f"palette has no color for class {name!r}")
        colors[i] = palette[name]
    rgb = colors[np.asarray(labels, dtype=np.int64)]
    if observed is not None:
        rgb = np.where(observed[:, :, None], rgb, np.uint8(255))
    return rgb
