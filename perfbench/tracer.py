"""Span tracing of ``pillarseg`` from outside the package.

:class:`Tracer` replaces public functions and methods of the pipeline's
modules with wrappers that record one span per call: name, start, end and
parent span. A wrapper is put where the caller looks the name up, so a name
imported into another module (``train.generate_synthetic_frame``,
``train.seg_loss``) is wrapped there as well. The autograd ops listed in
:data:`BACKWARD_OPS` are wrapped so that the backward closure each records is
timed as ``nn.backward.<op>``; their forward passes are not spanned.

Spans and counters live in memory until :meth:`Tracer.write`. A span's self
time is its duration minus the durations of its child spans; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BACKWARD_OPS = ("conv2d", "batch_norm", "maxpool2d", "matmul", "lstm", "segment_max",
                "masked_max_pool", "gather_rows")

# span names; the per-layer metric of each is its median self time, `<name>_ms`
SPANS = (
    "dataio.synth", "dataio.parse", "labels.sparse", "augment.apply",
    "occupancy.observability", "occupancy.visibility", "render.write",
    "pillars.pillarize", "pillars.augment_points", "pillars.compact",
    "attention.lstm", "attention.graph", "attention.fps", "attention.pillar",
    "attention.fuse",
    "model.pfn", "model.scatter", "model.unet", "model.down0", "model.down1",
    "model.up0", "model.up1",
    "losses.seg_loss", "nn.adam", "nn.backward",
) + tuple(f"nn.backward.{op}" for op in BACKWARD_OPS) + (
    "train.evaluate", "container.write", "container.read",
)

# counters, one value per frame or scan; the metric is the median value
COUNTS = {
    "occupancy.rays": "count", "occupancy.cells_per_ray": "count",
    "pillars.valid_pillars": "count", "pillars.row_fill": "fraction",
    "pillars.slot_fill": "fraction", "pillars.tensor_mb": "MiB", "nn.tape_ops": "count",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._block_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def timed(self, name, fn):
        """`fn` wrapped to record a span; `name` may be a callable of the
        positional arguments, for methods whose span name depends on `self`."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            label = name(*args) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            span = [label, time.perf_counter_ns(), 0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter_ns()

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(float(value))

    @contextmanager
    def paused(self):
        """Run program code (the benchmark's own checks) without recording."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name) -> None:
        self._patch(owner, attr, self.timed(name, getattr(owner, attr)))

    def _after(self, owner, attr: str, name, hook) -> None:
        """Span `owner.attr` and call `hook(result, *args)` once the span has ended."""
        timed = self.timed(name, getattr(owner, attr))

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if self.enabled:
                hook(out, *args)
            return out

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        from pillarseg import (attention, augment, container, dataio, labels, losses, model,
                               occupancy, pillars, render, train)
        from pillarseg.nn import layers, optim
        from pillarseg.nn import tensor as T

        self._span(dataio, "generate_synthetic_frame", "dataio.synth")
        self._span(train, "generate_synthetic_frame", "dataio.synth")
        self._span(dataio, "parse_point_cloud", "dataio.parse")
        self._span(labels, "sparse_labels", "labels.sparse")
        self._span(augment, "apply_augment", "augment.apply")
        self._span(occupancy, "visibility", "occupancy.visibility")
        for writer in ("write_pgm8", "write_pgm16", "write_raw16", "write_ppm"):
            self._span(render, writer, "render.write")

        def rays(omap, cloud, grid, *_):
            n = int(np.count_nonzero(pillars.crop_mask(cloud.xyz, grid)))
            self.count("occupancy.rays", n)
            if n:
                self.count("occupancy.cells_per_ray", omap.counts.sum() / n)

        self._after(occupancy, "observability", "occupancy.observability", rays)

        def fill(pset, *_):
            v, rows, slots = pset.valid_pillars, *pset.features.shape[:2]
            self.count("pillars.valid_pillars", v)
            self.count("pillars.row_fill", v / rows)
            if v:
                self.count("pillars.slot_fill", pset.valid_points[:v].sum() / (v * slots))

        self._after(pillars, "pillarize", "pillars.pillarize", fill)
        self._after(pillars, "augment_points", "pillars.augment_points",
                    lambda pset, *_: self.count("pillars.tensor_mb",
                                                pset.features.nbytes / 2**20))
        self._span(pillars, "compact", "pillars.compact")

        self._span(attention.DRLSTMAttention, "__call__", "attention.lstm")
        self._span(attention.GraphAttention, "__call__", "attention.graph")
        self._span(attention, "fps", "attention.fps")
        self._span(attention.PillarAttention, "__call__", "attention.pillar")
        self._span(attention.MultiAttentionFuse, "__call__", "attention.fuse")

        self._span(model.PillarSegNet, "pfn_forward", "model.pfn")
        self._span(T, "scatter_to_image", "model.scatter")
        self._span(model.MUNet, "__call__", "model.unet")
        init = model.MUNet.__init__

        def munet_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            for i, block in enumerate(net.downs):
                self._block_names[block] = f"model.down{i}"
            for i, block in enumerate(net.ups):
                self._block_names[block] = f"model.up{i}"

        self._patch(model.MUNet, "__init__", munet_init)

        def block_name(block, *_):
            return self._block_names.get(block, "model.block")

        self._span(layers.DownBlock, "__call__", block_name)
        self._span(layers.UpBlock, "__call__", block_name)

        self._span(losses, "seg_loss", "losses.seg_loss")
        self._span(train, "seg_loss", "losses.seg_loss")
        self._span(optim.Adam, "step", "nn.adam")
        self._after(T.Tape, "backward", "nn.backward",
                    lambda _, tape, *__: self.count("nn.tape_ops", len(tape.nodes)))
        for op in BACKWARD_OPS:
            self._patch(T, op, self._backward_timed(op, getattr(T, op)))

        self._span(train, "evaluate", "train.evaluate")
        self._span(container, "write_container", "container.write")
        self._span(container, "read_container", "container.read")

    def _backward_timed(self, op: str, fn):
        name = f"nn.backward.{op}"

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.enabled and out._backward is not None:
                out._backward = self.timed(name, out._backward)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, dict]:
        """Median self time per call of every span name, and median counters.

        A layer that never ran reads 0.
        """
        per_name: dict[str, list[int]] = defaultdict(list)
        for (name, *_), own in zip(self.spans, self.self_times_ns()):
            per_name[name].append(own)
        out = {}
        for name in SPANS:
            values = per_name.get(name)
            out[f"{name}_ms"] = {"value": statistics.median(values) / 1e6 if values else 0.0,
                                 "unit": "ms"}
        for name, unit in COUNTS.items():
            values = self.counts.get(name)
            out[name] = {"value": float(statistics.median(values)) if values else 0.0,
                         "unit": unit}
        return out

    def self_time_split(self) -> dict[str, float]:
        """Total self time in seconds per span name, largest first."""
        totals: dict[str, int] = defaultdict(int)
        for (name, *_), own in zip(self.spans, self.self_times_ns()):
            totals[name] += own
        return {k: v / 1e9 for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps({
            "spans": self.spans,
            "counts": self.counts,
            "self_time_s": self.self_time_split(),
        }))


def nesting_errors(spans, self_times, run_start_ns: int, run_end_ns: int) -> list[str]:
    """Spans must nest: no negative self time, top-level spans inside the run
    and, being sequential, no longer together than the run."""
    errors = []
    negative = sum(1 for own in self_times if own < 0)
    if negative:
        errors.append(f"{negative} spans have negative self time")
    top = [(start, end) for _, start, end, parent in spans if parent < 0]
    outside = sum(1 for start, end in top if start < run_start_ns or end > run_end_ns)
    if outside:
        errors.append(f"{outside} top-level spans lie outside the run")
    if sum(end - start for start, end in top) > run_end_ns - run_start_ns:
        errors.append("top-level spans add up to more than the run's wall clock")
    return errors
