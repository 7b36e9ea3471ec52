"""Flat-text run configuration.

Config files are ``key = value`` lines; values are whitespace-separated
tokens. Command-line ``--key value...`` overrides replace whole entries.

Each key is declared once, as a typed field with its default: the grid keys
on :class:`~pillarseg.pillars.GridConfig`, the augmentation ranges on
:class:`~pillarseg.augment.AugmentConfig`, the scene keys on
:class:`~pillarseg.dataio.SceneSpec` and every other key on
:class:`RunConfig`. The field's type hint says how many tokens the key takes
and how each is read (see :mod:`pillarseg.flat`), and a key that no field
declares is rejected. Beyond the fields, ``augment`` lists the enabled
augmentations and ``label_weight_<class>`` / ``loss_weight_<class>`` set one
class's weight. ``classmap``, ``scene`` and ``palette`` values may be a
filesystem path or the name of a packaged data file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .dataio import ClassMap, SceneSpec
from .errors import ConfigError
from .flat import Count, Size, packaged_text, parse_flat, read_fields, read_value, resolve_text
from .pillars import GridConfig

# dense-train and dense-eval are rejected until dense labels are wired into
# training and evaluation
TRAIN_MODES = ("sparse-train",)
EVAL_MODES = ("sparse-eval",)
DEFAULT_CLASSMAP = "toy.map"
WEIGHT_PREFIXES = ("label_weight_", "loss_weight_")
AUGMENT_FLAGS = ("flip_x", "flip_y", "rotate", "scale", "translate", "none")


@dataclass
class RunConfig:
    """Merged view of all module configs for one run.

    Every field but ``grid``, ``augment``, the weights and ``raw`` is the
    config key of its name (``class_map`` is the key ``classmap``). ``raw``
    holds the entries the config was read from, the per-class weight keys
    among them: ``label_weights`` and ``loss_weights`` have one entry per
    merged class, 1 unless a key sets it, and the unlabeled class's label
    weight is 0.
    """

    grid: GridConfig = field(default_factory=GridConfig)
    class_map: ClassMap = field(
        default_factory=lambda: ClassMap.parse(packaged_text(DEFAULT_CLASSMAP)),
        metadata={"key": "classmap"})
    scene: SceneSpec = field(
        default_factory=lambda: SceneSpec.parse(packaged_text("toy_scene.txt")))
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    # model
    pfn_channels: Size = 32
    unet_widths: tuple[Size, ...] = (16, 32)
    use_occupancy: bool = True
    use_ma: bool = False
    ma_order: tuple[str, ...] = ("L", "G", "P")
    lstm_hidden: Size = 16
    fps_rate: float = 0.05
    feast_heads: Size = 4
    graph_hidden: Size = 16
    fusion_hidden: Size = 16
    bn_momentum: float = 0.9
    # labels / losses (by merged class index)
    label_weights: np.ndarray = field(init=False)
    loss_weights: np.ndarray = field(init=False)
    pose_threshold: float | None = None
    # modes
    mode: str = "sparse-train"
    eval_mode: str = "sparse-eval"
    # training
    epochs: Count = 6
    batch_size: Size = 2  # frames per optimiser step, and per inference chunk
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    dtype: str = "f32"
    train_frames: Size = 200
    val_frames: Count = 50
    noise_snr: float | None = None
    # misc
    seed: Count = 0
    threads: Size = 1
    palette: str = "palette_toy.txt"
    raw: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigError(f"eval_mode must be one of {EVAL_MODES}, got {self.eval_mode!r}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")
        if sorted(self.ma_order) != ["G", "L", "P"]:
            raise ConfigError(f"ma_order must be a permutation of L G P, got {self.ma_order}")
        if self.noise_snr is not None and self.noise_snr <= 0:
            raise ConfigError("noise_snr must be positive")
        for key, ok, bounds in (
                ("learning_rate", self.learning_rate > 0, "> 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("weight_decay", self.weight_decay >= 0, ">= 0"),
                ("bn_momentum", 0 <= self.bn_momentum <= 1, "in [0, 1]"),
                ("fps_rate", 0 < self.fps_rate <= 1, "in (0, 1]")):
            if not ok:
                raise ConfigError(f"{key} must be {bounds}, got {getattr(self, key)}")
        names = self.class_map.class_names
        self.label_weights, self.loss_weights = np.ones(len(names)), np.ones(len(names))
        for key, tokens in self.raw.items():
            for prefix, target in zip(WEIGHT_PREFIXES, (self.label_weights, self.loss_weights)):
                if key.startswith(prefix):
                    if key[len(prefix):] not in names:
                        raise ConfigError(f"unknown class name in {key!r}")
                    target[names.index(key[len(prefix):])] = read_value(key, tokens, float)
        self.label_weights[self.class_map.unlabeled_index] = 0.0


def build_run_config(values: dict[str, list[str]]) -> RunConfig:
    pending = dict(values)
    flags = set(pending.pop("augment", []))
    if not flags <= set(AUGMENT_FLAGS):
        raise ConfigError(f"unknown augment flags {flags - set(AUGMENT_FLAGS)}")
    augment = read_fields(
        AugmentConfig, pending,
        flip_axes=frozenset(f[-1] for f in flags if f.startswith("flip_")),
        enable_rotation="rotate" in flags, enable_scale="scale" in flags,
        enable_translation="translate" in flags)
    cfg = read_fields(RunConfig, pending, grid=read_fields(GridConfig, pending),
                      augment=augment, raw=dict(values))
    for key in pending:
        if not key.startswith(WEIGHT_PREFIXES):
            raise ConfigError(f"unknown config key {key!r}")
    return cfg


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
