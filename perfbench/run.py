#!/usr/bin/env python3
"""Benchmark of the pillarseg pipeline: toy training with and without
multi-attention, and scan occupancy rendering.

    python3 perfbench/run.py --workload toy-ma --seed 1 --seconds 15 --trace 0

Run it from the repository root. Each workload runs in its own process as a
closed loop, one operation at a time, with every BLAS and OpenMP pool held to
one thread. A run

1. sets up: imports, the workload config and the input scans, done in
   ``SETUP_RUNS`` fresh processes whose median time is ``setup_s``;
2. runs one fixed-seed ``pillarseg train`` and ``EVAL_RUNS`` ``pillarseg eval``
   on its checkpoint through ``cli.main``;
3. repeats whole rounds of its operation pattern until ``--seconds`` have
   passed: model operations (prepare a batch of frames, one optimiser step
   over it, inference on each frame) interleaved with scans (``pillarseg
   occupancy`` on a set-up scan);
4. checks every output with ``checks.py``.

Times other than set-up are reported at a reference pace of the machine (see
``Pace``): each operation's wall clock is scaled by how fast a fixed kernel
ran around it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracer.py`` with ``--trace 1``.
Run outputs, the trace and a copy of the result go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# before numpy loads: every BLAS/OpenMP pool gets one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    overrides: dict[str, str]  # config keys on top of the packaged toy.cfg
    pattern: tuple[str, ...]  # one round of the window, "model" and "scan" operations
    scans: int  # distinct scans that set-up writes and the window cycles through
    scan_seed: int | None = None  # seed of the scan scenes; None takes --seed


# A "model" operation prepares a batch of frames, takes one optimiser step over
# it and runs inference on each frame; a "scan" runs `pillarseg occupancy`.
# Interleaving them lets every metric sample the whole window, so a slow spell
# of a shared machine hits all of them alike. Scene content alone moves a
# scan's time by a quarter (3D rays stop at the first voxel holding a point),
# so scan-occupancy writes more scenes than a window scans, each scan a new
# one, and the toy workloads, whose scans are a side measurement, scan one
# fixed scene.
WORKLOADS = {
    "toy-baseline-aug": Workload({"use_ma": "false", "augment": "flip_x flip_y rotate"},
                                 ("model",) * 4 + ("scan",), scans=1, scan_seed=0),
    "toy-ma": Workload({"use_ma": "true", "augment": "none"}, ("model", "model", "scan"),
                       scans=1, scan_seed=0),
    "scan-occupancy": Workload({"use_ma": "false", "augment": "none"},
                               ("scan",) * 3 + ("model",), scans=24),
}

# the fixed-seed training run; --seed drives the window's frames and scans
TRAIN_RUN = {"train_frames": "16", "val_frames": "8", "epochs": "2", "batch_size": "2",
             "seed": "0", "threads": "1"}
SETUP_RUNS = 5
EVAL_RUNS = 2
SCAN_FRAME_BASE = 900_000  # frame indices of the scans, apart from training frames


# A shared machine's speed drifts: on a 2-core VM the same training step ran
# up to 1.5x slower for stretches of seconds to minutes, which put the
# run-to-run spread of plain wall-clock medians at 0.2-0.4. So the benchmark
# times a fixed reference kernel (interpreter loop, small BLAS products,
# scatter-adds) around every operation and reports each operation's time
# scaled to the pace at which the kernel takes REFERENCE_S (its median on that
# VM), using the kernel samples within PACE_MARGIN_S of the operation.
REFERENCE_S = 0.0114
PACE_MARGIN_S = 2.0


def reference_kernel() -> int:
    import numpy as np

    acc = 0
    for i in range(24_000):
        acc += i * i
    base = np.random.default_rng(0).normal(size=(96, 96))
    x = base
    for _ in range(90):
        x = np.tanh((x @ base) * 0.01)
    idx = np.arange(4096) % 97
    counts = np.zeros(97)
    for _ in range(60):
        np.add.at(counts, idx, 1.0)
    return acc + int(counts[0])


class Pace:
    """Timestamps and durations of the reference kernel over a run.

    With `inside` false, :meth:`within` adds no probes, so that a traced run's
    spans hold only the program's own work.
    """

    def __init__(self, inside: bool = True):
        self.marks: list[tuple[float, float]] = []
        self.inside = inside

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self.marks.append((end, end - start))

    @contextlib.contextmanager
    def within(self):
        """Probe before every frame preparation and forward pass while a whole
        subcommand runs; yields the list of probe times to take off its time."""
        from pillarseg import model, train

        spent: list[float] = []
        if not self.inside:
            yield spent
            return

        def probed(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                self.probe()
                spent.append(time.perf_counter() - start)
                return fn(*args, **kwargs)
            return wrapper

        hooks = [(train, "prepare_frame"), (model.PillarSegNet, "forward_pillars")]
        originals = [owner.__dict__[attr] for owner, attr in hooks]
        for (owner, attr), fn in zip(hooks, originals):
            setattr(owner, attr, probed(fn))
        try:
            yield spent
        finally:
            for (owner, attr), fn in zip(hooks, originals):
                setattr(owner, attr, fn)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time around [start, end]."""
        near = [d for t, d in self.marks if start - PACE_MARGIN_S <= t <= end + PACE_MARGIN_S]
        return REFERENCE_S / statistics.median(near)


@dataclass
class Run:
    """State of one benchmark run: outputs, samples, counters and failures."""

    workload: Workload
    seed: int
    rundir: Path
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    pace: Pace = field(default_factory=Pace)

    def sample(self, name: str, start: float, end: float, seconds: float | None = None,
               per: int = 1) -> None:
        """An operation that ran from `start` to `end` (perf_counter) and took
        `seconds` of its own (default: all of it) for `per` items."""
        own = end - start if seconds is None else seconds
        self.samples.setdefault(name, []).append((start, end, own / per))

    def times(self, name: str, scaled: bool = True) -> list[float]:
        """Seconds per item of each sample of `name`, at the reference pace
        unless `scaled` is false."""
        return [own * (self.pace.scale(start, end) if scaled else 1.0)
                for start, end, own in self.samples.get(name, [])]

    def check(self, errors: list[str], what: str) -> None:
        self.errors.extend(f"{what}: {e}" for e in errors)

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def config_path(rundir: Path) -> Path:
    return rundir / "run.cfg"


def scan_paths(rundir: Path) -> list[Path]:
    return sorted((rundir / "scans").glob("*.bin"))


def setup(workload: Workload, seed: int, rundir: Path) -> None:
    """Import the program, write the workload config and the input scans."""
    from pillarseg import dataio, train
    from pillarseg.config import build_run_config, packaged_text, parse_flat

    lines = [packaged_text("toy.cfg"), "# benchmark workload"]
    lines += [f"{k} = {v}" for k, v in {**TRAIN_RUN, **workload.overrides}.items()]
    text = "\n".join(lines) + "\n"
    cfg = build_run_config(parse_flat(text))
    config_path(rundir).write_text(text)
    scans = rundir / "scans"
    scans.mkdir(exist_ok=True)
    scan_seed = seed if workload.scan_seed is None else workload.scan_seed
    for j in range(workload.scans):
        cloud, _ = dataio.generate_synthetic_frame(
            train.frame_seed(scan_seed, SCAN_FRAME_BASE + j), cfg.scene, cfg.class_map)
        (scans / f"{j:06d}.bin").write_bytes(dataio.serialize_point_cloud(cloud))


def timed_setups(run: Run, args) -> None:
    """Time SETUP_RUNS fresh processes that each set up and exit.

    Set-up is mostly interpreter start, imports and file writes, which the
    reference kernel does not track, so its times are not scaled.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        run.sample("setup", start, time.perf_counter())
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def cli(run: Run, argv: list[str], name: str | None = None, probes: int = 0) -> None:
    """One ``pillarseg`` subcommand, its output going to cli.log; timed as
    sample `name` with `probes` reference kernels before and after."""
    from pillarseg import cli as pcli

    run.pace.probe(probes)
    with open(run.rundir / "cli.log", "a") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log), run.pace.within() as spent:
        start = time.perf_counter()
        code = pcli.main(argv)
        end = time.perf_counter()
    run.pace.probe(probes)
    if code != 0:
        raise RuntimeError(f"pillarseg {argv[0]} exited with {code}; see {run.rundir}/cli.log")
    if name:
        run.sample(name, start, end, end - start - sum(spent))


def train_and_eval(run: Run) -> float:
    """The training run and the eval runs; returns the final validation mIoU."""
    cfg_file = str(config_path(run.rundir))
    train_dir, eval_dir = run.rundir / "train", run.rundir / "eval"
    run.attempted += 1
    cli(run, ["train", "--config", cfg_file, "--out", str(train_dir)], "train", probes=5)
    reported = set()
    for _ in range(EVAL_RUNS):
        run.attempted += int(TRAIN_RUN["val_frames"])
        cli(run, ["eval", "--config", cfg_file, "--checkpoint", str(train_dir / "model.ckpt"),
                  "--out", str(eval_dir)], "eval", probes=3)
        reported.add(read_metrics(eval_dir / "metrics.txt")["miou"])
    if len(reported) != 1:
        run.errors.append(f"eval runs disagree on mIoU: {sorted(reported)}")
    return read_metrics(train_dir / "metrics.txt")["final.miou"]


def read_metrics(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = float(value)
    return out


@contextlib.contextmanager
def default_dtype(cfg):
    """Tensors in the configured dtype, as ``train_toy`` sets them."""
    import numpy as np
    from pillarseg.nn import tensor as T

    T.set_default_dtype(np.float32 if cfg.dtype == "f32" else np.float64)
    try:
        yield
    finally:
        T.set_default_dtype(np.float64)


class ModelRounds:
    """Optimiser steps on freshly prepared frames, in the order training takes them."""

    def __init__(self, run: Run, cfg):
        from pillarseg import losses, train
        from pillarseg.model import PillarSegNet
        from pillarseg.nn import Adam

        self.run, self.cfg = run, cfg
        with default_dtype(cfg):
            self.net = PillarSegNet(train.model_config(cfg), seed=cfg.seed)
        self.opt = Adam(self.net.parameters(), lr=cfg.learning_rate, beta1=cfg.beta1,
                        beta2=cfg.beta2, weight_decay=cfg.weight_decay)
        self.loss_cfg = losses.SegLossConfig(cfg.loss_weights.copy(),
                                             cfg.class_map.unlabeled_index)
        self.frames = 0  # frames prepared so far: the position in the training order

    def __call__(self) -> None:
        """Prepare a batch, one optimiser step over it, inference on each frame."""
        run, batch_size = self.run, self.cfg.batch_size
        per_round = 2 * batch_size + 1
        run.attempted += per_round
        done = 0
        try:
            with default_dtype(self.cfg):
                batch = []
                for _ in range(batch_size):
                    batch.append(self._prepare())
                    done += 1
                with run.paused():
                    for pack, pset in batch:
                        check_frame(run, self.cfg, pack, pset, exact=self.frames <= batch_size)
                self._step(batch)
                done += 1
                for pack, pset in batch:
                    self._infer(pack, pset)
                    done += 1
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            traceback.print_exc()
            run.failed += per_round - done

    def _prepare(self):
        from pillarseg import train

        cfg, n = self.cfg, self.cfg.train_frames
        index, epoch = self.frames % n, 1 + self.frames // n
        seeds = None
        if cfg.augment.enabled:  # the augmentation seed training uses for this frame
            seeds = [train.frame_seed(cfg.seed, 500_000 + epoch * n + index)]
        start = time.perf_counter()
        pack = train.prepare_frames(cfg, [index], seeds)[0]
        self.run.sample("prep", start, time.perf_counter())
        self.frames += 1
        return pack, train.frame_pset(cfg, pack, index)

    def _step(self, batch) -> None:
        from pillarseg import losses
        from pillarseg.labels import SemanticGrid
        from pillarseg.nn import Tape
        from pillarseg.nn import tensor as T

        cfg = self.cfg
        start = time.perf_counter()
        self.opt.zero_grad()
        values = []
        for pack, pset in batch:
            occ = pack.obs_norm if cfg.use_occupancy else None
            with Tape() as tape:
                logits = self.net.forward_pillars(pset, cfg.grid, occ, training=True)
                gt = SemanticGrid(pack.label_grid, cfg.class_map.unlabeled_index)
                loss = T.mul(losses.seg_loss(logits, gt, self.loss_cfg), 1.0 / len(batch))
            values.append(loss.item())
            tape.backward(loss)
        self.opt.step()
        self.run.sample("step", start, time.perf_counter(), per=len(batch))
        if not all(math.isfinite(v) for v in values):
            self.run.errors.append(f"non-finite training loss {values}")

    def _infer(self, pack, pset) -> None:
        import numpy as np

        cfg = self.cfg
        supervised = cfg.class_map.supervised_indices
        occ = pack.obs_norm if cfg.use_occupancy else None
        start = time.perf_counter()
        logits = self.net.forward_pillars(pset, cfg.grid, occ, training=False)
        pred = self.net.predict(logits, supervised)
        self.run.sample("infer", start, time.perf_counter())
        if not np.isin(pred, supervised).all():
            self.run.errors.append("inference predicted an unsupervised class")


class Scans:
    """``pillarseg occupancy`` over the set-up scans in turn."""

    def __init__(self, run: Run, cfg):
        self.run, self.cfg = run, cfg
        self.paths = scan_paths(run.rundir)
        self.done = 0

    def __call__(self) -> None:
        run = self.run
        path = self.paths[self.done % len(self.paths)]
        out = run.rundir / "occupancy" / path.stem
        run.attempted += 1
        try:
            cli(run, ["occupancy", "--config", str(config_path(run.rundir)),
                      "--scan", str(path), "--out", str(out)], "scan")
            with run.paused():
                check_scan(run, self.cfg, path, out, exact=self.done < len(self.paths))
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            traceback.print_exc()
            run.failed += 1
        self.done += 1


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_frame(run: Run, cfg, pack, pset, exact: bool) -> None:
    """A prepared frame's observed mask, labels and pillars; `exact` also
    recounts its observability from the cloud."""
    import numpy as np

    import checks

    xyz, grid = pack.cloud.xyz, cfg.grid
    run.check(checks.check_visible(pack.visible, xyz, grid), "observed mask")
    run.check(checks.check_pillars(pset, xyz, grid), "pillars")
    expected = checks.label_grid(xyz, pack.classes, grid, cfg.label_weights,
                                 cfg.class_map.unlabeled_index)
    run.check(checks.check_labels(pack.label_grid, expected), "labels")
    if exact:
        from pillarseg import occupancy

        counts = occupancy.observability(pack.cloud, grid).counts
        run.check(checks.check_observability(counts, xyz, grid), "observability")
        if not np.array_equal(counts > 0, pack.visible):
            run.errors.append("observed mask != observability count > 0")


def check_scan(run: Run, cfg, path: Path, out: Path, exact: bool) -> None:
    """Graymap sizes, voxel states and the logged maximum count of one
    ``pillarseg occupancy`` output; `exact` also recounts its observability."""
    import numpy as np

    import checks

    grid = cfg.grid
    xyz = checks.read_scan(path)
    shape = (grid.height, grid.width)
    obs = checks.read_pgm(out / "observability.pgm")
    layers = [checks.read_pgm(out / f"visibility_z{d}.pgm") for d in range(grid.depth)]
    if any(img.shape != shape for img in [obs] + layers):
        run.errors.append(f"{path.name}: a graymap is not {shape}")
    else:
        run.check(checks.check_visibility(np.stack(layers, axis=2), xyz, grid),
                  f"{path.name} visibility")
    # every ray passes the origin cell, so the largest count is the ray count
    logged = int((out / "run.log").read_text().split("max_count ")[1].split()[0])
    rays = int(np.count_nonzero(checks.in_crop(xyz, grid)))
    if logged != rays:
        run.errors.append(f"{path.name}: max count {logged} != {rays} in-crop points")
    if exact:
        from pillarseg import dataio, occupancy

        cloud = dataio.parse_point_cloud(path.read_bytes())
        counts = occupancy.observability(cloud, grid).counts
        run.check(checks.check_observability(counts, xyz, grid), f"{path.name} observability")


def check_train(run: Run) -> None:
    """Every training and validation loss the run logged is finite."""
    for line in (run.rundir / "train" / "run.log").read_text().splitlines():
        if line.startswith("epoch "):
            fields = line.split()
            for name in ("train_loss", "val_loss"):
                if name in fields and not math.isfinite(float(fields[fields.index(name) + 1])):
                    run.errors.append(f"non-finite {name}: {line}")


def check_eval(run: Run, cfg) -> float:
    """Recompute eval's mIoU from its predictions, the benchmark's own label
    grids and the observed cells; returns the best constant-class mIoU."""
    import numpy as np
    from pillarseg import dataio, occupancy, train

    import checks

    grid, cmap = cfg.grid, cfg.class_map
    supervised, unlabeled = cmap.supervised_indices, cmap.unlabeled_index
    preds, gts, visibles = [], [], []
    for index in range(cfg.train_frames, cfg.train_frames + cfg.val_frames):
        cloud, classes = dataio.generate_synthetic_frame(train.frame_seed(cfg.seed, index),
                                                         cfg.scene, cmap)
        counts = occupancy.observability(cloud, grid).counts
        run.check(checks.check_observability(counts, cloud.xyz, grid), f"val frame {index}")
        visibles.append(counts > 0)
        gts.append(checks.label_grid(cloud.xyz, classes, grid, cfg.label_weights, unlabeled))
        raw = np.fromfile(run.rundir / "eval" / f"pred_{index:06d}.raw", dtype="<u2")
        preds.append(raw.reshape(grid.height, grid.width).astype(np.int64))
    if not all(np.isin(p, supervised).all() for p in preds):
        run.errors.append("eval predicted an unsupervised class")
    reported = read_metrics(run.rundir / "eval" / "metrics.txt")["miou"]
    recomputed, _ = checks.miou(preds, gts, visibles, supervised, unlabeled)
    run.check(checks.check_miou(reported, recomputed), "eval")
    return checks.best_constant_miou(gts, visibles, supervised, unlabeled)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "pillarseg" / "__init__.py").is_file():
        print(f"no pillarseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    rundir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"

    if args.setup_only:
        setup(workload, args.seed, rundir)
        return 0

    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    run = Run(workload, args.seed, rundir, pace=Pace(inside=not args.trace))
    timed_setups(run, args)

    from pillarseg.config import load_run_config

    import tracer as tracing

    cfg_train = load_run_config(config_path(rundir))
    cfg = load_run_config(config_path(rundir), {"seed": [str(args.seed)]})
    if args.trace:
        run.tracer = tracing.Tracer()
        run.tracer.install()
    run_start = time.perf_counter_ns()

    val_miou = train_and_eval(run)
    operations = {"model": ModelRounds(run, cfg), "scan": Scans(run, cfg)}
    window_end = time.perf_counter() + args.seconds
    while True:  # whole rounds of the pattern
        for op in workload.pattern:
            run.pace.probe()
            operations[op]()
        if time.perf_counter() >= window_end:
            break
    run.pace.probe()
    run_end = time.perf_counter_ns()
    with run.paused():
        check_train(run)
        constant = check_eval(run, cfg_train)
    if not val_miou > constant:
        run.errors.append(f"val mIoU {val_miou} does not beat the best constant class "
                          f"({constant})")

    def median(name):
        return statistics.median(run.times(name))

    metrics = {
        "setup_s": statistics.median(run.times("setup", scaled=False)),
        "train_run_s": median("train"),
        "val_miou": val_miou,
        "eval_frames_per_s": int(TRAIN_RUN["val_frames"]) / median("eval"),
        "prep_frames_per_s": 1.0 / median("prep"),
        "train_step_ms": 1e3 * median("step"),
        "infer_ms_per_frame": 1e3 * median("infer"),
        "scans_per_s": 1.0 / median("scan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"setup_s": "s", "train_run_s": "s", "val_miou": "fraction",
             "eval_frames_per_s": "frames/s", "prep_frames_per_s": "frames/s",
             "train_step_ms": "ms", "infer_ms_per_frame": "ms", "scans_per_s": "scans/s",
             "peak_rss_mb": "MiB"}
    end_to_end = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine(), "end_to_end": end_to_end,
              "reference_s": REFERENCE_S, "samples": run.samples, "pace": run.pace.marks}

    if run.tracer:
        run.tracer.uninstall()
        run.check(tracing.nesting_errors(run.tracer.spans, run.tracer.self_times_ns(),
                                         run_start, run_end), "trace")
        run.tracer.write(rundir / "trace.json")
        reported = run.tracer.layer_metrics()
        record.update(per_layer=reported, self_time_s=run.tracer.self_time_split())
    else:
        reported = end_to_end

    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
              "metrics": reported}
    record["result"] = result
    (rundir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
