"""`tools/bench_pairs.py` summarises alternating parent/change benchmark runs;
these tests feed its summary fixed results and run no benchmark."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.delitem(sys.modules, "bench_pairs", raising=False)
    import bench_pairs
    return bench_pairs


def fake_pairs(metric_values):
    """Pairs of run results from {metric: (parent values, change values)}."""
    count = len(next(iter(metric_values.values()))[0])
    return [{"seed": k, "first": "parent" if k % 2 == 0 else "change",
             **{side: {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {name: {"value": values[i][k], "unit": "ms"}
                                   for name, values in metric_values.items()}}
                for i, side in enumerate(("parent", "change"))}}
            for k in range(count)]


def test_lower_is_better_counts_wins_and_quartiles(monkeypatch):
    bp = load(monkeypatch)
    parent = [60.0, 58.0, 62.0, 59.0, 61.0]
    change = [48.0, 47.0, 49.0, 59.0, 63.0]  # a tie in pair 4, a loss in pair 5
    row = bp.summarize(fake_pairs({"infer_ms_per_frame": (parent, change)}),
                       {"infer_ms_per_frame": "lower"}, {})["infer_ms_per_frame"]
    assert row["parent"] == {"median": 60.0, "q1": 58.5, "q3": 61.5, "values": parent}
    assert row["change"]["median"] == 49.0
    assert row["relative"] == pytest.approx(-11.0 / 60.0)
    assert row["wins"] == 3
    assert row["beats_parent_iqr"]  # 11 ms against a 3 ms quartile distance


def test_higher_is_better_and_a_gain_inside_the_parent_spread(monkeypatch):
    bp = load(monkeypatch)
    parent = [20.0, 24.0, 22.0, 18.0]
    change = [21.0, 23.0, 23.0, 19.0]
    row = bp.summarize(fake_pairs({"eval_frames_per_s": (parent, change)}),
                       {"eval_frames_per_s": "higher"}, {})["eval_frames_per_s"]
    assert row["wins"] == 3
    assert row["relative"] == pytest.approx(1.0 / 21.0)
    assert not row["beats_parent_iqr"]  # 1 frame/s against a 5 frames/s spread


def test_one_pair_and_every_metric(monkeypatch):
    bp = load(monkeypatch)
    pairs = fake_pairs({"val_miou": ([0.44226], [0.44226]), "train_step_ms": ([130.0], [110.0])})
    summary = bp.summarize(pairs, {"val_miou": "higher", "train_step_ms": "lower"},
                           {"val_miou": 0.02})
    assert list(summary) == ["val_miou", "train_step_ms"]
    assert summary["val_miou"]["wins"] == 0 and summary["val_miou"]["relative"] == 0.0
    assert summary["train_step_ms"]["parent"]["q1"] == summary["train_step_ms"]["parent"]["q3"]
    assert summary["train_step_ms"]["wins"] == 1 and summary["train_step_ms"]["beats_parent_iqr"]
    table = bp.table(summary, 1, {"val_miou": 0.02})
    assert "| `val_miou` | 0.44226 [0.44226, 0.44226] |" in table
    assert ("| `train_step_ms` | 130 [130, 130] | 110 [110, 110] | -15.4% | 1/1 | yes |  "
            "| gain |") in table
    assert table.splitlines()[2].endswith("| 0.02 | within bound |")



# ten parent runs of a metric, median 100 and quartiles 97.75 and 102.25 (a
# distance of 4.5% of the median), and ten spread ones, median 100 and
# quartiles 68.75 and 131.25
STEADY = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]
SPREAD = [60.0, 65.0, 70.0, 80.0, 95.0, 105.0, 120.0, 130.0, 135.0, 140.0]


@pytest.mark.parametrize("parent, change, expected", [
    # 9 wins of 10 and a median 10 below, beyond the parent's quartile distance
    (STEADY, [c - 10.0 for c in STEADY[:9]] + [110.0], "gain"),
    # 10 wins of 10, but the medians differ by 2, inside the parent's spread
    (STEADY, [c - 2.0 for c in STEADY], "within bound"),
    # 8 wins of 10 and a median 10 below: a gain needs nine tenths of the pairs
    (STEADY, [c - 10.0 for c in STEADY[:8]] + [110.0, 111.0], "within bound"),
    # 10% slower, 25% allowed
    (STEADY, [c + 10.0 for c in STEADY], "within bound"),
    # 30% slower, 25% allowed
    (STEADY, [c + 30.0 for c in STEADY], "worse than bound"),
    # the parent's quartile distance, 62.5% of its median, exceeds the bound,
    # so neither a 5% loss nor a 5% win can be told from noise
    (SPREAD, [c + 5.0 for c in SPREAD], "unresolved"),
    (SPREAD, [c - 5.0 for c in SPREAD], "unresolved"),
    # unless every change run beats every parent run: then the bound decides
    (SPREAD, [50.0 + k for k in range(10)], "within bound"),
], ids=["gain", "wins-inside-spread", "eight-of-ten", "within", "worse", "unresolved-loss",
        "unresolved-win", "every-run-better"])
def test_verdict_lower_is_better(monkeypatch, parent, change, expected):
    bp = load(monkeypatch)
    row = bp.summarize(fake_pairs({"train_step_ms": (parent, change)}),
                       {"train_step_ms": "lower"}, {"train_step_ms": 0.25})["train_step_ms"]
    assert row["verdict"] == expected


@pytest.mark.parametrize("scale, expected", [(1.1, "gain"), (0.9, "within bound"),
                                             (0.7, "worse than bound")])
def test_verdict_higher_is_better(monkeypatch, scale, expected):
    bp = load(monkeypatch)
    change = [scale * p for p in STEADY]
    row = bp.summarize(fake_pairs({"scans_per_s": (STEADY, change)}), {"scans_per_s": "higher"},
                       {"scans_per_s": 0.25})["scans_per_s"]
    assert row["verdict"] == expected


def test_verdict_without_a_bound(monkeypatch):
    # a per-layer metric has no bound: it can show a gain and nothing else
    bp = load(monkeypatch)
    pairs = fake_pairs({"model.unet_ms": (STEADY, [c - 10.0 for c in STEADY]),
                        "model.pfn_ms": (STEADY, [c + 30.0 for c in STEADY])})
    summary = bp.summarize(pairs, {"model.unet_ms": "lower", "model.pfn_ms": "lower"}, {})
    assert summary["model.unet_ms"]["verdict"] == "gain"
    assert summary["model.pfn_ms"]["verdict"] == "no bound"
