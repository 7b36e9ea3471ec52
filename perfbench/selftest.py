#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and tracing.

    python3 perfbench/selftest.py

Every check must pass on the program's real output and fail on a copy with
one deliberate fault: an observability count off by one, a label flipped, a
pillar's point count off by one, a FREE voxel made OCCUPIED, a logged maximum
count off by one, or the reported mIoU changed in its last digit. A traced
toy run must give spans that nest, every per-layer metric that
``BENCHMARK.json`` names, and no wrapper left behind. Takes a few seconds;
exits 1 and names each failure if any.
"""

from __future__ import annotations

import json
import sys

import run as bench  # sets the thread limits before numpy loads

sys.path.insert(0, str(bench.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

OUT = bench.OUT / "selftest"


class SelfTest:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, what: str, good: list[str], bad: list[str]) -> None:
        """`good` are the errors on real output, `bad` those on the corrupted copy."""
        if good:
            self.failures.append(f"{what}: rejects correct output: {good}")
        if not bad:
            self.failures.append(f"{what}: accepts corrupted output")


def fresh_run(name: str, overrides: dict[str, str]) -> bench.Run:
    import shutil

    rundir = OUT / name
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    workload = bench.Workload(overrides, ("scan",), scans=1)
    bench.setup(workload, 7, rundir)
    return bench.Run(workload, 7, rundir)


def errors_of(run: bench.Run, check, *args) -> list[str]:
    before = len(run.errors)
    check(run, *args)
    found = run.errors[before:]
    del run.errors[before:]
    return found


def test_frame(t: SelfTest) -> None:
    from dataclasses import replace

    from pillarseg import occupancy, train
    from pillarseg.config import load_run_config

    cfg = load_run_config("toy.cfg")
    run = bench.Run(bench.WORKLOADS["toy-ma"], 0, OUT)
    pack = train.prepare_frame(cfg, 0)
    pset = train.frame_pset(cfg, pack, 0)
    xyz = pack.cloud.xyz

    counts = occupancy.observability(pack.cloud, cfg.grid).counts
    off = counts.copy()
    off[checks.origin_cell(cfg.grid)] += 1
    t.expect("observability count", checks.check_observability(counts, xyz, cfg.grid),
             checks.check_observability(off, xyz, cfg.grid))

    good = errors_of(run, bench.check_frame, cfg, pack, pset, True)
    labels = pack.label_grid.copy()
    row, col = np.argwhere(labels != cfg.class_map.unlabeled_index)[0]
    labels[row, col] = 1 + labels[row, col] % cfg.class_map.num_supervised
    flipped = errors_of(run, bench.check_frame, cfg, replace(pack, label_grid=labels), pset,
                        False)
    t.expect("label grid", good, flipped)

    points = pset.valid_points.copy()
    points[0] += 1
    t.expect("pillar point counts", good,
             errors_of(run, bench.check_frame, cfg, pack, replace(pset, valid_points=points),
                       False))
    visible = pack.visible.copy()
    visible[checks.origin_cell(cfg.grid)] = False
    t.expect("observed mask", good,
             errors_of(run, bench.check_frame, cfg, replace(pack, visible=visible), pset, False))


def test_scan(t: SelfTest) -> None:
    from pillarseg.config import load_run_config

    run = fresh_run("scan", {"use_ma": "false"})
    cfg = load_run_config(bench.config_path(run.rundir))
    path = bench.scan_paths(run.rundir)[0]
    out = run.rundir / "occupancy"
    bench.cli(run, ["occupancy", "--config", str(bench.config_path(run.rundir)),
                    "--scan", str(path), "--out", str(out)])
    good = errors_of(run, bench.check_scan, cfg, path, out, True)

    free, occupied = checks.STATE_LEVELS[1:]
    for d in range(cfg.grid.depth):  # the first FREE voxel becomes OCCUPIED
        layer = out / f"visibility_z{d}.pgm"
        data = bytearray(layer.read_bytes())
        samples = len(data) - cfg.grid.height * cfg.grid.width
        if free in data[samples:]:
            data[samples + data[samples:].index(free)] = occupied
            layer.write_bytes(bytes(data))
            break
    t.expect("visibility states", good, errors_of(run, bench.check_scan, cfg, path, out, False))

    bench.cli(run, ["occupancy", "--config", str(bench.config_path(run.rundir)),
                    "--scan", str(path), "--out", str(out)])
    log = out / "run.log"
    text = log.read_text()
    count = int(text.split("max_count ")[1].split()[0])
    log.write_text(text.replace(f"max_count {count}", f"max_count {count + 1}"))
    t.expect("logged maximum count", good,
             errors_of(run, bench.check_scan, cfg, path, out, False))


def test_eval(t: SelfTest) -> None:
    from pillarseg.config import load_run_config

    run = fresh_run("eval", {"use_ma": "false", "train_frames": "1", "val_frames": "2",
                             "epochs": "0"})
    cfg = load_run_config(bench.config_path(run.rundir))
    cfg_file = str(bench.config_path(run.rundir))
    bench.cli(run, ["train", "--config", cfg_file, "--out", str(run.rundir / "train")])
    bench.cli(run, ["eval", "--config", cfg_file, "--checkpoint",
                    str(run.rundir / "train" / "model.ckpt"), "--out", str(run.rundir / "eval")])
    if errors_of(run, bench.check_train):
        t.failures.append(f"training log check rejects a finite run: {run.errors}")
    good = errors_of(run, bench.check_eval, cfg)

    metrics = run.rundir / "eval" / "metrics.txt"
    text = metrics.read_text()
    value = text.split("miou = ")[1].split()[0]
    changed = next(v for v in (value[:-1] + str((int(value[-1]) + d) % 10) for d in range(1, 10))
                   if float(v) != float(value))  # a last digit that changes the double
    metrics.write_text(text.replace(f"miou = {value}", f"miou = {changed}"))
    t.expect("eval mIoU", good, errors_of(run, bench.check_eval, cfg))


def test_trace(t: SelfTest) -> None:
    import time

    from pillarseg import losses, train
    from pillarseg.nn import tensor as T

    run = fresh_run("trace", {"use_ma": "true", "train_frames": "2", "val_frames": "1",
                              "epochs": "1"})
    tr = tracing.Tracer()
    tr.install()
    start = time.perf_counter_ns()
    try:
        bench.cli(run, ["train", "--config", str(bench.config_path(run.rundir)),
                        "--out", str(run.rundir / "train")])
    finally:
        end = time.perf_counter_ns()
        tr.uninstall()
    own = tr.self_times_ns()
    t.expect("span nesting", tracing.nesting_errors(tr.spans, own, start, end),
             tracing.nesting_errors(tr.spans, own, start, start + (end - start) // 2))
    child = next(i for i, span in enumerate(tr.spans) if span[3] >= 0)
    spans = [list(span) for span in tr.spans]
    spans[child][1] = spans[spans[child][3]][1] - 10**9  # child starts before its parent
    stretched = tracing.Tracer()
    stretched.spans = spans
    t.expect("span self times", [],
             tracing.nesting_errors(spans, stretched.self_times_ns(), start - 10**10, end))

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    reported = tr.layer_metrics()
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in reported]
    extra = sorted(set(reported) - {m["name"] for m in spec["per_layer"]})
    if missing or extra:
        t.failures.append(f"per-layer metrics missing {missing}, unlisted {extra}")
    # an MA toy step runs every layer but augmentation, parsing and visibility
    idle = {"augment.apply_ms", "dataio.parse_ms", "occupancy.visibility_ms",
            "render.write_ms", "container.read_ms"}
    silent = [k for k, v in reported.items() if v["value"] == 0 and k not in idle]
    if silent:
        t.failures.append(f"traced MA training recorded nothing for {silent}")
    if train.seg_loss is not losses.seg_loss or hasattr(T.matmul, "__wrapped__"):
        t.failures.append("uninstall left a wrapper in place")


def main() -> int:
    t = SelfTest()
    for test in (test_frame, test_scan, test_eval, test_trace):
        test(t)
    for failure in t.failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if t.failures else "ok")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
