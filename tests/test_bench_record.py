"""`tools/bench_record.py` numbers the next `BENCH_<n>.json` and joins a sweep
summary with a run's machine record and the measured commit."""

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.delitem(sys.modules, "bench_record", raising=False)
    import bench_record
    return bench_record


def test_next_number_follows_the_highest(monkeypatch, tmp_path):
    br = load(monkeypatch)
    assert br.next_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "BENCH_2.json.bak"):
        (tmp_path / name).write_text("{}")
    assert br.next_path(tmp_path).name == "BENCH_4.json"


def test_record_joins_sweep_machine_and_commit(monkeypatch, tmp_path):
    br = load(monkeypatch)
    sweep = {"toy-ma": {"train_step_ms": {"median": 150.0, "q1": 149.0, "q3": 152.0,
                                          "spread": 0.02, "values": [149.0, 150.0, 152.0]}}}
    machine = {"nproc": 2, "numpy": "2.4.6"}
    (tmp_path / "sweep-0.json").write_text(json.dumps(sweep))
    (tmp_path / "result.json").write_text(json.dumps({"machine": machine, "seed": 1}))
    got = br.record(tmp_path / "sweep-0.json", tmp_path / "result.json", "abc", "def")
    assert got == {"commit": "abc", "src_tree": "def", "machine": machine, "workloads": sweep}


def test_record_stores_a_traced_sweep_under_per_layer(monkeypatch, tmp_path):
    br = load(monkeypatch)
    sweep = {"toy-ma": {"train_step_ms": {"median": 150.0}}}
    traced = {"toy-ma": {"train_step_ms": {"median": 171.0},
                         "attention.fuse_ms": {"median": 4.2, "q1": 4.1, "q3": 4.4,
                                               "spread": 0.07, "values": [4.1, 4.2, 4.4]}}}
    (tmp_path / "sweep-0.json").write_text(json.dumps(sweep))
    (tmp_path / "sweep-1.json").write_text(json.dumps(traced))
    (tmp_path / "result.json").write_text(json.dumps({"machine": {"nproc": 2}}))
    got = br.record(tmp_path / "sweep-0.json", tmp_path / "result.json", "abc", "def",
                    tmp_path / "sweep-1.json")
    assert got["workloads"] == sweep
    assert got["per_layer"] == traced
    assert "per_layer" not in br.record(tmp_path / "sweep-0.json", tmp_path / "result.json",
                                        "abc", "def")
