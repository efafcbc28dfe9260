"""tools/bench_record.py: the per-workload gate figures it derives from a run list."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "hits", "unit": "count", "better": "higher", "bound": 0.1},
    {"name": "loose_s", "unit": "s", "better": "lower"},
]


def _runs(parent: dict[str, list[float]], change: dict[str, list[float]]) -> list[dict]:
    """One result line per seed and side, as bench_record stores them."""
    runs = []
    for side, figures in (("parent", parent), ("change", change)):
        for seed, values in enumerate(zip(*figures.values()), start=1):
            metrics = {name: {"value": v, "unit": "s"} for name, v in zip(figures, values)}
            runs.append({"side": side, "workload": "w", "seed": seed, "result": {"metrics": metrics}})
    return runs


def test_pairs_reports_the_relative_change_of_the_medians_against_each_bound():
    parent = {"wall_s": [1.0, 2.0, 3.0, 4.0], "hits": [10, 10, 10, 10], "loose_s": [1.0, 1.0, 1.0, 1.0]}
    change = {"wall_s": [1.2, 2.2, 3.2, 4.2], "hits": [8, 9, 9, 9], "loose_s": [3.0, 3.0, 3.0, 3.0]}
    got = bench_record.pairs(_runs(parent, change), END_TO_END)["w"]
    # medians 2.5 -> 2.7: 8 % worse, inside 24 %; every seed worse
    assert got["wall_s"]["worse_by"] == pytest.approx(0.08)
    assert got["wall_s"]["within_bound"] is True
    assert got["wall_s"]["change_better"] == "0/4"
    assert got["wall_s"]["parent_iqr"] == pytest.approx(2.5)  # exclusive quartiles 1.25, 3.75
    # higher is better: medians 10 -> 9 is 10 % worse, at the bound
    assert got["hits"]["worse_by"] == pytest.approx(0.1)
    assert got["hits"]["within_bound"] is True
    # a metric with no bound has no gate
    assert got["loose_s"]["worse_by"] == pytest.approx(2.0)
    assert got["loose_s"]["within_bound"] is None


def test_pairs_flags_a_regression_beyond_the_bound_and_signs_a_gain_negative():
    parent = {"wall_s": [1.0, 1.0, 1.0, 1.0], "hits": [10, 10, 10, 10], "loose_s": [0.0] * 4}
    change = {"wall_s": [1.3, 1.3, 1.3, 1.3], "hits": [12, 12, 12, 12], "loose_s": [0.0] * 4}
    got = bench_record.pairs(_runs(parent, change), END_TO_END)["w"]
    assert got["wall_s"]["worse_by"] == pytest.approx(0.3)
    assert got["wall_s"]["within_bound"] is False
    assert got["hits"]["worse_by"] == pytest.approx(-0.2)
    assert got["hits"]["within_bound"] is True
    assert got["hits"]["change_better"] == "4/4"
    # a parent median of zero has no relative change
    assert got["loose_s"]["worse_by"] is None


def test_main_records_the_revisions_read_before_the_first_run(tmp_path, monkeypatch):
    """A tree edited or committed while the runs go on is not recorded as the
    one measured."""
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    parent = tmp_path / "parent"
    parent.mkdir()
    runs = []

    def run_once(root, workload, seed, seconds, trace=0):
        runs.append((root, workload, seed, trace))
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in END_TO_END}
        return {"metrics": metrics, "correct": True, "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "run_tier1", lambda root: {"runs_before": len(runs)})
    monkeypatch.setattr(bench_record, "revision", lambda root: {"tree": root.name, "runs_before": len(runs)})
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--tag", "t", "--seeds", "1", "2", "--parent", str(parent)]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert len(runs) == 6  # two seeds and one traced run on each side
    assert record["tier1"]["change"] == {"runs_before": 6}
    assert record["revisions"] == {
        "change": {"tree": tmp_path.name, "runs_before": 0},
        "parent": {"tree": "parent", "runs_before": 0},
    }
