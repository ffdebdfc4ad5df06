"""EXPLAIN / EXPLAIN ANALYZE: column statistics, kernel spans, the SQL
plan renderer, and the perf-regression summarizer's compare gate."""

import json

import pytest

from repro import obs
from repro.sql import Database
from repro.table import Table


@pytest.fixture
def facts():
    return Table.from_dict({
        "sku": ["a", "b", "a", None, "c", "a"],
        "amount": [10.0, 20.0, None, 40.0, 50.0, 10.0],
        "express": [True, False, True, True, False, None],
    })


@pytest.fixture
def db(facts):
    dim = Table.from_dict({
        "sku": ["a", "b", "c"],
        "category": ["tools", "tools", "toys"],
    })
    return Database({"facts": facts, "dim": dim})


class TestColumnStats:
    def test_exact_stats_per_column(self, facts):
        stats = facts.stats()
        sku = stats["sku"]
        assert sku["count"] == 6 and sku["nulls"] == 1
        assert sku["null_fraction"] == pytest.approx(1 / 6)
        assert sku["distinct"] == 3
        assert sku["min"] == "a" and sku["max"] == "c"
        amount = stats["amount"]
        assert amount["distinct"] == 4  # 10.0 appears twice
        assert amount["min"] == 10.0 and amount["max"] == 50.0
        assert isinstance(amount["min"], float)  # no numpy scalars leak out

    def test_all_null_column(self):
        t = Table.from_dict({"v": [None, None]})
        stats = t.stats()["v"]
        assert stats["count"] == 2 and stats["nulls"] == 2
        assert stats["null_fraction"] == 1.0
        assert stats["distinct"] == 0
        assert stats["min"] is None and stats["max"] is None

    def test_explain_renders_every_column(self, facts):
        text = facts.explain()
        assert "6 rows x 3 columns" in text
        for name in ("sku", "amount", "express"):
            assert name in text
        assert "null%" in text and "distinct" in text


class TestKernelSpans:
    def test_filter_span_carries_selectivity(self, facts):
        kept = facts.filter([a is not None and a > 15.0
                             for a in facts.column("amount")])
        assert kept.num_rows == 3
        span = obs.get_tracer().find("table.filter")
        assert span.attributes["rows_in"] == 6
        assert span.attributes["rows_out"] == 3
        assert span.attributes["selectivity"] == pytest.approx(0.5)

    def test_join_span_carries_match_rate(self, facts, db):
        dim = db.table("dim")
        out = facts.join(dim, on="sku", how="inner")
        span = obs.get_tracer().find("table.join")
        assert span.attributes["how"] == "inner"
        assert span.attributes["left_rows"] == 6
        assert span.attributes["rows_out"] == out.num_rows
        assert 0.0 < span.attributes["match_rate"] <= 1.0

    def test_group_by_span_counts_groups(self, facts):
        out = facts.group_by(["sku"], [("count", "amount", "n")])
        span = obs.get_tracer().find("table.group_by")
        assert span.attributes["rows_in"] == 6
        assert span.attributes["groups"] == out.num_rows


class TestSqlExplain:
    def test_static_plan_lists_stages(self, db):
        text = db.explain(
            "select sku, category from facts join dim on sku = sku "
            "where amount > 5 order by amount limit 2"
        )
        assert "plan:" in text
        for stage in ("scan", "join", "filter", "sort", "limit"):
            assert stage in text, text
        # Static mode never executes: no timings, no result section.
        assert "time=" not in text and "result:" not in text

    def test_analyze_reports_rows_and_selectivity(self, db):
        text = db.explain("select sku, amount from facts where amount > 15",
                          analyze=True)
        assert "where" in text
        assert "rows=6->3" in text
        assert "selectivity=0.5000" in text
        assert "time=" in text
        # The analyzed output ends with the result's column statistics.
        assert "result: 3 rows x 2 columns" in text
        assert "null%" in text

    def test_analyze_emits_sql_spans(self, db):
        db.explain("select sku from facts where amount > 15", analyze=True)
        tracer = obs.get_tracer()
        assert tracer.find("sql.where") is not None
        assert tracer.find("sql.project") is not None

    def test_query_span_wraps_execution(self, db):
        out = db.query("select * from facts")
        span = obs.get_tracer().find("sql.query")
        assert span.attributes["rows_out"] == out.num_rows

    def test_renders_logical_optimized_physical(self, db):
        text = db.explain(
            "select sku, category from facts join dim on sku = sku "
            "where amount > 5 and category = 'tools'"
        )
        assert "logical plan:" in text
        assert "optimized plan:" in text
        assert "physical plan:" in text
        assert "rewrites:" in text
        # The WHERE conjuncts split across the join inputs...
        assert "predicate_pushdown" in text
        # ...and scans narrow to the referenced columns.
        assert "projection_pruning" in text
        # Physical nodes carry their backend.
        assert "[columnar" in text

    def test_rewrite_annotations_name_the_rules(self, db):
        text = db.explain("select sku from facts where 1 = 1")
        assert "constant_folding" in text

    def test_optimizer_off_renders_fixed_pipeline(self, db):
        text = db.explain("select sku from facts where amount > 5",
                          optimizer=False)
        assert "plan:" in text
        assert "logical plan:" not in text
        assert "filter (WHERE)" in text

    def test_analyze_matches_between_paths(self, db):
        sql = "select sku, amount from facts where amount > 15"
        optimized = db.explain(sql, analyze=True)
        naive = db.explain(sql, analyze=True, optimizer=False)
        for text in (optimized, naive):
            assert "rows=6->3" in text
            assert "result: 3 rows x 2 columns" in text


class TestSummarizeCompare:
    """The perf-regression gate (benchmarks/summarize.py)."""

    def _artifact(self, root, name, payload):
        data = {"schema_version": 1, "bench": name, "git_rev": "deadbeef",
                "generated_at": "2026-01-01T00:00:00Z",
                "environment": {"python": "3.11"}, **payload}
        (root / f"BENCH_{name}.json").write_text(json.dumps(data))

    def _collect(self, root):
        from benchmarks.summarize import collect

        return collect(root)

    def test_collect_flattens_comparable_metrics(self, tmp_path):
        self._artifact(tmp_path, "perf", {
            "speedup_floor": 3.0,
            "kernels": {"join": {"speedup": 4.2, "rows": 100}},
        })
        self._artifact(tmp_path, "obs", {"overhead_fraction": 0.01,
                                         "overhead_limit": 0.05})
        summary = self._collect(tmp_path)
        assert summary["git_rev"] == "deadbeef"
        assert summary["metrics"] == {
            "perf.kernels.join.speedup": 4.2,
            "obs.overhead_fraction": 0.01,
        }  # floors/limits and non-comparable leaves are excluded

    def test_compare_passes_within_tolerance(self, tmp_path):
        from benchmarks.summarize import compare

        self._artifact(tmp_path, "obs", {"overhead_fraction": 0.01})
        summary = self._collect(tmp_path)
        failures = compare(summary, {"metrics": {
            "obs.overhead_fraction": {"max": 0.05},
        }})
        assert failures == []

    def test_compare_flags_synthetic_regression(self, tmp_path):
        from benchmarks.summarize import compare

        self._artifact(tmp_path, "perf", {
            "kernels": {"join": {"speedup": 2.0}},
        })
        self._artifact(tmp_path, "obs", {"overhead_fraction": 0.2})
        summary = self._collect(tmp_path)
        failures = compare(summary, {"tolerance": 0.25, "metrics": {
            # Higher-is-better metric fell below baseline - tolerance...
            "perf.kernels.join.speedup": {"value": 4.0},
            # ...lower-is-better metric rose above its absolute cap...
            "obs.overhead_fraction": {"max": 0.05},
            # ...and a baselined metric vanished entirely.
            "chaos.recovery_rate": {"min": 0.9},
        }})
        assert len(failures) == 3
        assert any("missing" in f for f in failures)

    def test_compare_direction_awareness(self, tmp_path):
        from benchmarks.summarize import compare

        self._artifact(tmp_path, "obs", {"overhead_fraction": 0.012})
        summary = self._collect(tmp_path)
        # lower-is-better: +10% over reference within 25% tolerance -> pass;
        # the same delta against a 5% tolerance -> fail.
        ok = compare(summary, {"metrics": {
            "obs.overhead_fraction": {"value": 0.011, "tolerance": 0.25}}})
        bad = compare(summary, {"metrics": {
            "obs.overhead_fraction": {"value": 0.011, "tolerance": 0.05}}})
        assert ok == [] and len(bad) == 1

    def test_main_exit_codes(self, tmp_path):
        from benchmarks.summarize import main

        self._artifact(tmp_path, "obs", {"overhead_fraction": 0.01})
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"metrics": {"obs.overhead_fraction": {"max": 0.05}}}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"metrics": {"obs.overhead_fraction": {"max": -1.0}}}))
        assert main(["--root", str(tmp_path), "--compare", str(good)]) == 0
        assert main(["--root", str(tmp_path), "--compare", str(bad)]) == 1
        summary = json.loads((tmp_path / "BENCH_summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["benches"]["obs"]["git_rev"] == "deadbeef"

    def test_smoke_artifacts_are_checked_for_presence_only(self, tmp_path):
        from benchmarks.summarize import compare

        self._artifact(tmp_path, "ivm", {"smoke": True, "speedup": 0.9})
        self._artifact(tmp_path, "shard", {"smoke": False,
                                           "join": {"speedup": 0.4}})
        summary = self._collect(tmp_path)
        failures = compare(summary, {"metrics": {
            # A smoke-size number below its full-size floor passes...
            "ivm.speedup": {"min": 10.0},
            # ...a missing one from a smoke artifact still fails...
            "ivm.recompute_seconds": {"max": 1.0},
            # ...and a full run is still value-gated.
            "shard.join.speedup": {"min": 3.0},
        }})
        assert len(failures) == 2
        assert any(f.startswith("ivm.recompute_seconds: missing")
                   for f in failures)
        assert any(f.startswith("shard.join.speedup: 0.4 < min")
                   for f in failures)

    def test_summary_stamps_every_artifacts_rev(self, tmp_path):
        self._artifact(tmp_path, "obs", {"overhead_fraction": 0.01})
        self._artifact(tmp_path, "ivm", {"speedup": 11.0})
        assert self._collect(tmp_path)["git_rev"] == "deadbeef"
        self._artifact(tmp_path, "table", {"git_rev": "cafef00d"})
        summary = self._collect(tmp_path)
        assert summary["revs"] == {"ivm": "deadbeef", "obs": "deadbeef",
                                   "table": "cafef00d"}
        assert summary["git_rev"] == "mixed"
