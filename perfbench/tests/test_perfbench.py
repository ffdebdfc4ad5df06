"""Smoke tests for the benchmark itself: tiny variants of every workload
through the oracle, metric names and units, the traced rollup, and the
refusal to run without the library sources.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracle, run  # noqa: E402
from perfbench.trace import Span, clipped, layer_self, self_times  # noqa: E402

SCALE = 0.02
SECONDS = 0.4


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_is_correct_and_complete(workload):
    result = run.run(workload, seed=3, seconds=SECONDS, trace=False,
                     scale=SCALE)
    assert result["correct"], result["report"]["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = run.run(workload, seed=4, seconds=SECONDS, trace=True,
                     scale=SCALE)
    assert result["correct"], result["report"]["errors"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    attribution = result["report"]["attribution"]
    assert 0.0 <= attribution["unattributed_share"] < 1.0
    shares = dict(attribution["shares"])
    assert shares.pop("clipped") >= 0.0
    assert sum(shares.values()) == pytest.approx(1.0)


def test_benchmark_json_matches_the_program():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_rollup_clips_overlaps_and_measures_the_cut():
    root = Span(1, "request", 0.0, None)
    root.end = 10.0
    a = Span(2, "serving.submit", 1.0, root)
    a.end = 4.0
    b = Span(3, "sql.query", 3.0, root)     # overlaps its earlier sibling
    b.end = 12.0                            # and outlives the root
    c = Span(4, "table.filter", 5.0, b)
    c.end = 6.0
    root.children, a.children, b.children, c.children = [a, b], [], [c], []
    selfs = layer_self(root)
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert selfs == pytest.approx({"serving": 3.0, "sql": 5.0, "table": 1.0,
                                   "shard": 0.0, "ivm": 0.0, "dlt": 0.0,
                                   "unattributed": 1.0})
    assert len(self_times(root)) == 4
    assert clipped(root) == pytest.approx(3.0)   # b cut to [4, 10]


def test_oracle_rejects_a_wrong_answer():
    from repro.table import Table

    db = oracle.Oracle()
    db.load("t", [("k", "int"), ("v", "float")], [(1, 0.5), (2, 1.5),
                                                   (3, 1.5)])
    sql = "SELECT k, v FROM t ORDER BY v DESC LIMIT 1"
    right = Table.from_rows([(3, 1.5)], names=["k", "v"])
    tie = Table.from_rows([(2, 1.5)], names=["k", "v"])
    wrong = Table.from_rows([(1, 0.5)], names=["k", "v"])
    assert db.check(sql, right) is None
    assert db.check(sql, tie) is None
    assert db.check(sql, wrong) is not None
    db.close()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
