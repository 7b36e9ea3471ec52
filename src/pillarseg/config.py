"""Flat-text run configuration.

Config files are ``key = value`` lines; values are whitespace-separated
tokens. Command-line ``--key value...`` overrides replace whole entries.
``classmap``, ``scene`` and ``palette`` values may be a filesystem path or the
name of a packaged data file.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .dataio import ClassMap, SceneSpec
from .errors import ConfigError, FormatError
from .pillars import GridConfig

# dense-train and dense-eval are rejected until dense labels are wired into
# training and evaluation
TRAIN_MODES = ("sparse-train",)
EVAL_MODES = ("sparse-eval",)


def packaged_text(name: str) -> str:
    ref = importlib.resources.files("pillarseg.data").joinpath(name)
    if not ref.is_file():
        raise ConfigError(f"no packaged data file named {name!r}")
    return ref.read_text()


def resolve_text(value: str) -> str:
    """File contents of a path, falling back to a packaged data file name."""
    p = Path(value)
    if p.is_file():
        return p.read_text()
    return packaged_text(value)


def parse_flat(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value.split()
    return out


@dataclass
class RunConfig:
    """Merged view of all module configs for one run."""

    grid: GridConfig
    class_map: ClassMap
    scene: SceneSpec
    augment: AugmentConfig
    # model
    pfn_channels: int = 32
    unet_widths: tuple[int, ...] = (16, 32)
    use_occupancy: bool = True
    use_ma: bool = False
    ma_order: tuple[str, ...] = ("L", "G", "P")
    lstm_hidden: int = 16
    fps_rate: float = 0.05
    feast_heads: int = 4
    graph_hidden: int = 16
    fusion_hidden: int = 16
    bn_momentum: float = 0.9
    # labels / losses (by merged class index)
    label_weights: np.ndarray | None = None
    loss_weights: np.ndarray | None = None
    pose_threshold: float | None = None
    # modes
    mode: str = "sparse-train"
    eval_mode: str = "sparse-eval"
    # training
    epochs: int = 6
    batch_size: int = 2  # frames per optimiser step, and per inference chunk
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    dtype: str = "f32"
    train_frames: int = 200
    val_frames: int = 50
    noise_snr: float | None = None
    # misc
    seed: int = 0
    threads: int = 1
    palette: str = "palette_toy.txt"
    raw: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigError(f"eval_mode must be one of {EVAL_MODES}, got {self.eval_mode!r}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")
        for name in ("batch_size", "train_frames", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if sorted(self.ma_order) != ["G", "L", "P"]:
            raise ConfigError(f"ma_order must be a permutation of L G P, got {self.ma_order}")
        if self.label_weights is None:
            self.label_weights = np.ones(self.class_map.num_merged)
        if self.loss_weights is None:
            self.loss_weights = np.ones(self.class_map.num_merged)
        self.label_weights = np.asarray(self.label_weights, dtype=np.float64).copy()
        self.loss_weights = np.asarray(self.loss_weights, dtype=np.float64).copy()
        self.label_weights[self.class_map.unlabeled_index] = 0.0
        for arr, name in ((self.label_weights, "label"), (self.loss_weights, "loss")):
            if len(arr) != self.class_map.num_merged:
                raise ConfigError(f"{name} weights length {len(arr)} != class count")


def _get(values: dict[str, list[str]], key: str, cast, default):
    if key not in values:
        return default
    tokens = values[key]
    try:
        if cast is bool:
            token = tokens[0].lower()
            if token not in ("true", "false", "0", "1"):
                raise ValueError(token)
            return token in ("true", "1")
        return cast(tokens[0])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad value for config key {key!r}: {tokens}") from exc


def _get_floats(values, key, default):
    if key not in values:
        return default
    try:
        return tuple(float(t) for t in values[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key!r}: {values[key]}") from exc


def _get_ints(values, key, default):
    if key not in values:
        return default
    try:
        return tuple(int(t) for t in values[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key!r}: {values[key]}") from exc


_KNOWN_PREFIXES = ("label_weight_", "loss_weight_")
_KNOWN_KEYS = {
    "x_range", "y_range", "z_range", "pillar_size", "max_points", "max_pillars",
    "classmap", "scene", "palette",
    "pfn_channels", "unet_widths", "use_occupancy", "use_ma", "ma_order",
    "lstm_hidden", "fps_rate", "feast_heads", "graph_hidden", "fusion_hidden",
    "bn_momentum", "pose_threshold",
    "mode", "eval_mode",
    "epochs", "batch_size", "learning_rate", "beta1", "beta2", "weight_decay",
    "dtype", "train_frames", "val_frames", "noise_snr",
    "augment", "rotation_range", "scale_range", "translate_std", "translate_clip",
    "seed", "threads",
}


def build_run_config(values: dict[str, list[str]]) -> RunConfig:
    for key in values:
        if key not in _KNOWN_KEYS and not any(key.startswith(p) for p in _KNOWN_PREFIXES):
            raise ConfigError(f"unknown config key {key!r}")

    grid = GridConfig(
        x_range=_get_floats(values, "x_range", (-16.0, 16.0)),
        y_range=_get_floats(values, "y_range", (-16.0, 16.0)),
        z_range=_get_floats(values, "z_range", (-1.0, 3.0)),
        pillar_size=_get_floats(values, "pillar_size", (0.5, 0.5, 0.25)),
        max_points=_get(values, "max_points", int, 20),
        max_pillars=_get(values, "max_pillars", int, 4096),
    )
    class_map = ClassMap.parse(resolve_text(_get(values, "classmap", str, "toy.map")))
    scene = SceneSpec.parse(resolve_text(_get(values, "scene", str, "toy_scene.txt")))

    enabled = set(values.get("augment", []))
    known = {"flip_x", "flip_y", "rotate", "scale", "translate", "none"}
    if not enabled <= known:
        raise ConfigError(f"unknown augment flags {enabled - known}")
    augment = AugmentConfig(
        flip_axes=frozenset(a[-1] for a in enabled if a.startswith("flip_")),
        rotation_range=_get_floats(values, "rotation_range", (-0.785, 0.785)),
        scale_range=_get_floats(values, "scale_range", (0.95, 1.05)),
        translate_std=_get_floats(values, "translate_std", (5.0, 5.0, 0.05)),
        translate_clip=_get(values, "translate_clip", float, 3.0),
        enable_rotation="rotate" in enabled,
        enable_scale="scale" in enabled,
        enable_translation="translate" in enabled,
    )

    label_weights = np.ones(class_map.num_merged)
    loss_weights = np.ones(class_map.num_merged)
    for key, tokens in values.items():
        for prefix, target in (("label_weight_", label_weights), ("loss_weight_", loss_weights)):
            if key.startswith(prefix):
                name = key[len(prefix):]
                try:
                    target[class_map.index_of(name)] = float(tokens[0])
                except ValueError as exc:
                    raise ConfigError(f"unknown class name in {key!r}") from exc

    pose_threshold = _get(values, "pose_threshold", float, None)
    noise_snr = _get(values, "noise_snr", float, None)
    if noise_snr is not None and noise_snr <= 0:
        raise ConfigError("noise_snr must be positive")

    return RunConfig(
        grid=grid,
        class_map=class_map,
        scene=scene,
        augment=augment,
        pfn_channels=_get(values, "pfn_channels", int, 32),
        unet_widths=_get_ints(values, "unet_widths", (16, 32)),
        use_occupancy=_get(values, "use_occupancy", bool, True),
        use_ma=_get(values, "use_ma", bool, False),
        ma_order=tuple(values.get("ma_order", ["L", "G", "P"])),
        lstm_hidden=_get(values, "lstm_hidden", int, 16),
        fps_rate=_get(values, "fps_rate", float, 0.05),
        feast_heads=_get(values, "feast_heads", int, 4),
        graph_hidden=_get(values, "graph_hidden", int, 16),
        fusion_hidden=_get(values, "fusion_hidden", int, 16),
        bn_momentum=_get(values, "bn_momentum", float, 0.9),
        label_weights=label_weights,
        loss_weights=loss_weights,
        pose_threshold=pose_threshold,
        mode=_get(values, "mode", str, "sparse-train"),
        eval_mode=_get(values, "eval_mode", str, "sparse-eval"),
        epochs=_get(values, "epochs", int, 6),
        batch_size=_get(values, "batch_size", int, 2),
        learning_rate=_get(values, "learning_rate", float, 1e-3),
        beta1=_get(values, "beta1", float, 0.9),
        beta2=_get(values, "beta2", float, 0.999),
        weight_decay=_get(values, "weight_decay", float, 0.0),
        dtype=_get(values, "dtype", str, "f32"),
        train_frames=_get(values, "train_frames", int, 200),
        val_frames=_get(values, "val_frames", int, 50),
        noise_snr=noise_snr,
        seed=_get(values, "seed", int, 0),
        threads=_get(values, "threads", int, 1),
        palette=_get(values, "palette", str, "palette_toy.txt"),
        raw=dict(values),
    )


def load_run_config(path: str | Path | None, overrides: dict[str, list[str]] | None = None) -> RunConfig:
    values: dict[str, list[str]] = {}
    if path is not None:
        values.update(parse_flat(resolve_text(str(path))))
    if overrides:
        values.update(overrides)
    return build_run_config(values)


def echo_config(values: dict[str, list[str]]) -> str:
    """Canonical text form of the effective config for the run log."""
    lines = [f"{key} = {' '.join(tokens)}" for key, tokens in sorted(values.items())]
    return "\n".join(lines) + "\n"
