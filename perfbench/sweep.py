#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads toy-ma scan-occupancy --seeds 1 2 3 4 5

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance as
a share of the median, next to the metric's bound from ``BENCHMARK.json``.
Runs go one at a time, in the order given; the results are also written to
``perfbench/out/sweep-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    summary = {}
    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": values}
            bound = bounds.get(name)
            print(f"  {name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}")
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share: {sorted(failed)}")
    out = HERE / "out" / f"sweep-{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
