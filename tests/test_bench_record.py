"""tools/bench_record.py: the per-workload gate figures it derives from a run list."""

from __future__ import annotations

import importlib.util
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
