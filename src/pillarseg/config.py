"""Flat-text run configuration.

Config files are ``key = value`` lines; values are whitespace-separated
tokens. Command-line ``--key value...`` overrides replace whole entries.

Each key is declared once, as a typed field with its default: the grid keys
on :class:`~pillarseg.pillars.GridConfig`, the augmentation ranges on
:class:`~pillarseg.augment.AugmentConfig`, the scene keys on
:class:`~pillarseg.dataio.SceneSpec` and every other key on
:class:`RunConfig`. The field's type hint says how many tokens the key takes
and how each is read (see :mod:`pillarseg.flat`), and a key that no field
declares is rejected. Beyond the fields, ``label_weight_<class>`` /
``loss_weight_<class>`` set one class's weight. ``classmap``, ``scene`` and
``palette`` values may be a filesystem path or the name of a packaged data
file.

Values are checked once, here. The reader checks each value against its
field's type hint: token count, finiteness, range, allowed words and flags.
The ``__post_init__`` of each dataclass it builds checks only what relates
fields (a range's order, the grid's extent, a scene's fit in its ground), and
``ClassMap.parse`` checks the class map. So the modules fed a
:class:`RunConfig` take its values as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .augment import AugmentConfig
from .dataio import UNLABELED_NAME, ClassMap, SceneSpec
from .errors import ConfigError
from .flat import (Count, NonNegative, Positive, Size, packaged_text, parse_flat, read_fields,
                   read_value, resolve_text)
from .pillars import GridConfig

DEFAULT_CLASSMAP = "toy.map"
WEIGHT_PREFIXES = ("label_weight_", "loss_weight_")


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
    fps_rate: Annotated[float, "in (0, 1]"] = 0.05
    feast_heads: Size = 4
    graph_hidden: Size = 16
    fusion_hidden: Size = 16
    # labels / losses (by merged class index)
    label_weights: np.ndarray = field(init=False)
    loss_weights: np.ndarray = field(init=False)
    pose_threshold: Positive | None = None
    # training
    epochs: Count = 6
    batch_size: Size = 2  # frames per optimiser step, and per inference chunk
    learning_rate: Positive = 1e-3
    beta1: Annotated[float, "in [0, 1)"] = 0.9
    beta2: Annotated[float, "in [0, 1)"] = 0.999
    weight_decay: NonNegative = 0.0
    dtype: Literal["f32", "f64"] = "f32"
    train_frames: Size = 200
    val_frames: Size = 50
    noise_snr: Positive | None = None
    # misc
    seed: Count = 0
    # frames are prepared serially; the key stays only because
    # perfbench/run.py writes it
    threads: Annotated[int, "exactly 1"] = 1
    palette: str = "palette_toy.txt"
    raw: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        names = self.class_map.class_names
        self.label_weights, self.loss_weights = np.ones(len(names)), np.ones(len(names))
        for key, tokens in self.raw.items():
            for prefix, target, hint in zip(WEIGHT_PREFIXES, (self.label_weights, self.loss_weights),
                                            (NonNegative, Positive)):
                if key.startswith(prefix):
                    name = key[len(prefix):]
                    if name not in names:
                        raise ConfigError(f"unknown class name in {key!r}")
                    if name == UNLABELED_NAME:
                        raise ConfigError(f"{key} sets nothing: unlabeled cells get no label or loss")
                    target[names.index(name)] = read_value(key, tokens, hint)
        self.label_weights[self.class_map.unlabeled_index] = 0.0


def build_run_config(values: dict[str, list[str]]) -> RunConfig:
    pending = dict(values)
    cfg = read_fields(RunConfig, pending, grid=read_fields(GridConfig, pending),
                      augment=read_fields(AugmentConfig, pending), raw=dict(values))
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
