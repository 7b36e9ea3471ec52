#!/usr/bin/env python3
"""Record a benchmark sweep as the next ``BENCH_<n>.json`` at the repository root.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 --trace 0
    python3 perfbench/sweep.py --seeds 1 2 3 --trace 1
    python3 tools/bench_record.py --per-layer perfbench/out/sweep-1.json

It copies the sweep summary (``perfbench/out/sweep-0.json`` unless ``--sweep``
names another) and adds the ``machine`` record of one run's ``result.json``
(the newest under ``perfbench/out/`` unless ``--result`` names one) and the
commit the sweep measured. ``--per-layer`` adds a ``--trace 1`` sweep summary,
whose runs also report the per-layer metrics, under ``per_layer``. ``<n>`` is
one more than the highest number already recorded. Nothing under
``perfbench/`` is written.

Commit the measured code before the sweep: the record refuses a tree whose
``src/`` or ``perfbench/`` differs from ``HEAD``.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
MEASURED = ("src", "perfbench")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def next_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def record(sweep: Path, result: Path, commit: str, src_tree: str,
           per_layer: Path | None = None) -> dict:
    """The BENCH record: commit, the measured ``src/`` tree, machine and the
    sweep's per-workload medians, quartiles and values; with ``per_layer``,
    a traced sweep's summary too."""
    bench = {"commit": commit, "src_tree": src_tree,
             "machine": json.loads(result.read_text())["machine"],
             "workloads": json.loads(sweep.read_text())}
    if per_layer is not None:
        bench["per_layer"] = json.loads(per_layer.read_text())
    return bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sweep", type=Path, default=OUT / "sweep-0.json")
    parser.add_argument("--per-layer", type=Path,
                        help="a --trace 1 sweep summary to store under per_layer")
    parser.add_argument("--result", type=Path,
                        help="a run's result.json (default: the newest under perfbench/out)")
    args = parser.parse_args(argv)

    result = args.result or max(OUT.glob("*/result.json"), key=lambda p: p.stat().st_mtime,
                                default=None)
    if result is None:
        parser.error(f"no result.json under {OUT}")
    if git("status", "--porcelain", "--untracked-files=no", "--", *MEASURED):
        parser.error(f"{' and '.join(MEASURED)} differ from HEAD: commit the measured code")
    path = next_path(ROOT)
    bench = record(args.sweep, result, git("rev-parse", "HEAD"), git("rev-parse", "HEAD:src"),
                   args.per_layer)
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path.name} for {bench['commit'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
