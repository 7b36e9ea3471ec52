#!/usr/bin/env python3
"""Run the benchmark in alternating pairs of two checkouts and compare them.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload toy-ma \\
        --seeds 101 102 103 104 105 106 107 108 109 110 --out pairs.json

There is one pair per seed. Pair k runs the benchmark's ``command`` from
``BENCHMARK.json`` with ``--seed <seeds[k]>`` and its ``run_seconds`` once in
each checkout, one run at a time: the parent first in even pairs, the change
first in odd ones, so a slow spell of a shared machine does not always fall on
the same side.
For every metric it prints each side's median and quartiles
(``statistics.quantiles(values, n=4)``, as ``perfbench/sweep.py`` takes them),
the relative change of the median, the pairs the change wins by the metric's
``better`` direction in ``BENCHMARK.json`` (a tie counts for neither side),
whether the medians differ by more than the parent's quartile distance, and a
verdict (see ``verdict``) against the metric's relative ``bound``.
The raw results and the summary go to ``--out``; nothing is written under
``perfbench/`` except what each run writes there itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(row: dict, sign: float, bound: float | None) -> str:
    """A metric's verdict over the pairs, by the rules for claiming a gain
    and for showing no regression:

    - ``gain``: the change wins at least nine tenths of the pairs and the
      medians differ, in the better direction, by more than the parent's
      quartile distance;
    - ``no bound``: otherwise, for a metric without a bound;
    - ``unresolved``: the parent's quartile distance is wider than the bound,
      relative to its median, so a shift within the bound cannot be told
      from noise, unless every change run beats every parent run;
    - ``within bound`` or ``worse than bound``: whether the change's median
      is worse than the parent's by more than the relative bound.

    ``sign`` is -1 where lower is better, +1 where higher is."""
    parent, change = row["parent"], row["change"]
    if row["wins"] >= 0.9 * len(parent["values"]) and row["beats_parent_iqr"]:
        return "gain"
    if bound is None:
        return "no bound"
    base = abs(parent["median"])
    spread = (parent["q3"] - parent["q1"]) / base if base else 0.0
    every_run_better = (min(sign * c for c in change["values"])
                        > max(sign * p for p in parent["values"]))
    if spread > bound and not every_run_better:
        return "unresolved"
    return "worse than bound" if -sign * row["relative"] > bound else "within bound"


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float | None]) -> dict[str, dict]:
    """Per metric of the runs: each side's median and quartiles, the relative
    change of the median, the change's wins over the pairs, whether the
    medians differ, in the better direction, by more than the parent's
    quartile distance, and the ``verdict``. ``better`` maps a metric to
    "lower" or "higher", ``bounds`` to its relative bound or None."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        row = {}
        for side in SIDES:
            med, q1, q3 = quartiles(values[side])
            row[side] = {"median": med, "q1": q1, "q3": q3, "values": values[side]}
        base, new = row["parent"]["median"], row["change"]["median"]
        gain = sign * (new - base)
        row["relative"] = (new - base) / base if base else 0.0
        row["wins"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        row["beats_parent_iqr"] = gain > row["parent"]["q3"] - row["parent"]["q1"]
        row["verdict"] = verdict(row, sign, bounds.get(name))
        summary[name] = row
    return summary


def table(summary: dict[str, dict], pairs: int, bounds: dict[str, float | None]) -> str:
    """The summary as a markdown table."""
    lines = ["| metric | parent median [q1, q3] | change median [q1, q3] | change | wins "
             "| beyond parent IQR | bound | verdict |", "|---|---|---|---|---|---|---|---|"]

    def cell(s):
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    for name, row in summary.items():
        bound = bounds.get(name)
        lines.append(f"| `{name}` | {cell(row['parent'])} | {cell(row['change'])} "
                     f"| {row['relative']:+.1%} | {row['wins']}/{pairs} "
                     f"| {'yes' if row['beats_parent_iqr'] else 'no'} "
                     f"| {'' if bound is None else bound} | {row['verdict']} |")
    return "\n".join(lines)


def run_once(spec: dict, checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True,
                        help="one seed per pair, in order")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file for the results")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m.get("bound") for m in metrics}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    count = len(args.seeds)
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(spec, checkouts[side], args.workload, seed, args.trace)
        pairs.append(pair)
        print(f"pair {k + 1}/{count} seed {seed}: " + ", ".join(
            f"{side} correct={pair[side]['correct']} failed={pair[side]['failed']}"
            f"/{pair[side]['attempted']}" for side in SIDES), flush=True)

    summary = summarize(pairs, better, bounds)
    print(f"\n{args.workload}, {count} pairs (seeds {', '.join(map(str, args.seeds))}):\n")
    print(table(summary, count, bounds))
    args.out.write_text(json.dumps(
        {"workload": args.workload, "seconds": spec["run_seconds"], "trace": args.trace,
         "checkouts": {side: str(path) for side, path in checkouts.items()},
         "pairs": pairs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
