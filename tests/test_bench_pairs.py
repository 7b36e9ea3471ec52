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
                       {"infer_ms_per_frame": "lower"})["infer_ms_per_frame"]
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
                       {"eval_frames_per_s": "higher"})["eval_frames_per_s"]
    assert row["wins"] == 3
    assert row["relative"] == pytest.approx(1.0 / 21.0)
    assert not row["beats_parent_iqr"]  # 1 frame/s against a 5 frames/s spread


def test_one_pair_and_every_metric(monkeypatch):
    bp = load(monkeypatch)
    pairs = fake_pairs({"val_miou": ([0.44226], [0.44226]), "train_step_ms": ([130.0], [110.0])})
    summary = bp.summarize(pairs, {"val_miou": "higher", "train_step_ms": "lower"})
    assert list(summary) == ["val_miou", "train_step_ms"]
    assert summary["val_miou"]["wins"] == 0 and summary["val_miou"]["relative"] == 0.0
    assert summary["train_step_ms"]["parent"]["q1"] == summary["train_step_ms"]["parent"]["q3"]
    assert summary["train_step_ms"]["wins"] == 1 and summary["train_step_ms"]["beats_parent_iqr"]
    table = bp.table(summary, 1, {"val_miou": 0.02})
    assert "| `val_miou` | 0.44226 [0.44226, 0.44226] |" in table
    assert "| `train_step_ms` | 130 [130, 130] | 110 [110, 110] | -15.4% | 1/1 | yes |  |" in table

