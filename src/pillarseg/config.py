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

Values are checked once, here: the reader checks token counts, finiteness and
integer minimums, and the dataclasses it builds and ``ClassMap.parse`` check
ranges, so the modules fed a :class:`RunConfig` take its values as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .dataio import UNLABELED_NAME, ClassMap, SceneSpec
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
_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, "in [0, 1)": lambda v: 0 <= v < 1,
           "in (0, 1]": lambda v: 0 < v <= 1}
# fields whose value, unless None, must lie within the named bounds
_BOUNDED_FIELDS = (("learning_rate", "> 0"), ("beta1", "in [0, 1)"), ("beta2", "in [0, 1)"),
                   ("weight_decay", ">= 0"), ("fps_rate", "in (0, 1]"), ("noise_snr", "> 0"),
                   ("pose_threshold", "> 0"))


@dataclass
class RunConfig:
    """Merged view of all module configs for one run.

    Every field but ``grid``, ``augment``, the weights and ``raw`` is the
    config key of its name (``class_map`` is the key ``classmap``). ``raw``
    holds the entries the config was read from, the per-class weight keys
    among them: ``label_weights`` and ``loss_weights`` have one entry per
    merged class, 1 unless a key sets it. Label weights must be >= 0 and loss
    weights > 0; the unlabeled class takes neither key, and its label weight
    is 0.
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
    lstm_hidden: Size = 16
    fps_rate: float = 0.05
    feast_heads: Size = 4
    graph_hidden: Size = 16
    fusion_hidden: Size = 16
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
        names = self.class_map.class_names
        self.label_weights, self.loss_weights = np.ones(len(names)), np.ones(len(names))
        checks = [(key, getattr(self, key), bounds) for key, bounds in _BOUNDED_FIELDS]
        for key, tokens in self.raw.items():
            for prefix, target, bounds in zip(WEIGHT_PREFIXES,
                                              (self.label_weights, self.loss_weights), (">= 0", "> 0")):
                if key.startswith(prefix):
                    name = key[len(prefix):]
                    if name not in names:
                        raise ConfigError(f"unknown class name in {key!r}")
                    if name == UNLABELED_NAME:
                        raise ConfigError(f"{key} sets nothing: unlabeled cells get no label or loss")
                    target[names.index(name)] = weight = read_value(key, tokens, float)
                    checks.append((key, weight, bounds))
        self.label_weights[self.class_map.unlabeled_index] = 0.0
        for key, value, bounds in checks:
            if value is not None and not _BOUNDS[bounds](value):
                raise ConfigError(f"{key} must be {bounds}, got {value}")


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
