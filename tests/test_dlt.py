"""repro.dlt: declaration, expectations, DAG execution, checkpoint recovery."""

import dataclasses
import json

import numpy as np
import pytest

from repro import dlt, obs
from repro.cleaning.detection import NullDetector, OutlierDetector
from repro.datasets.dirty import make_dirty, products_table
from repro.datasets.world import make_world
from repro.errors import (
    CheckpointError,
    DltError,
    ExpectationFailedError,
    PipelineGraphError,
)
from repro.resilience import FakeClock, RetryPolicy
from repro.resilience.faults import (
    FaultInjectionError,
    FaultInjector,
    set_injector,
)
from repro.table import Table
from repro.table.storage import content_hash, decode_table, encode_table


def flip_byte(path, index: int) -> None:
    """Corrupt one byte of a file in place."""
    data = bytearray(path.read_bytes())
    data[index] ^= 0x01
    path.write_bytes(bytes(data))


def orders_table() -> Table:
    return Table.from_dict({
        "order_id": [1, 2, 3, 4, 5, 6],
        "qty": [2, -1, 3, None, 10, 0],
        "price": [9.5, 3.0, 1.25, 4.0, None, 2.0],
        "region": ["eu", "us", None, "eu", "apac", "us"],
    })


class KillNth:
    """Deterministic injector: raise on the n-th hit of one fault point."""

    def __init__(self, point: str, nth: int):
        self.point_name = point
        self.nth = nth
        self.calls = 0

    def point(self, name, **kwargs):
        if name != self.point_name:
            return
        self.calls += 1
        if self.calls == self.nth:
            raise FaultInjectionError(f"injected kill #{self.nth} at {name}")


class TestPredicates:
    def test_column_comparisons_vectorized(self):
        t = orders_table()
        mask = (dlt.col("qty") > 0).mask(t)
        # nulls violate comparisons (SQL-pessimistic)
        assert mask.tolist() == [True, False, True, False, True, False]
        assert mask.dtype == np.bool_

    def test_null_predicates(self):
        t = orders_table()
        assert dlt.col("region").not_null().mask(t).tolist() == [
            True, True, False, True, True, True]
        assert dlt.not_null("qty", "price").mask(t).tolist() == [
            True, True, True, False, False, True]

    def test_between_is_in_matches(self):
        t = orders_table()
        assert dlt.col("qty").between(0, 3).mask(t).tolist() == [
            True, False, True, False, False, True]
        assert dlt.col("region").is_in(["eu", "us"]).mask(t).tolist() == [
            True, True, False, True, False, True]
        assert dlt.col("region").matches(r"^(eu|us)$").mask(t).tolist() == [
            True, True, False, True, False, True]

    def test_column_vs_column_and_combinators(self):
        t = orders_table()
        qty_beats_price = (dlt.col("qty") >= dlt.col("price")).mask(t)
        assert qty_beats_price.tolist() == [
            False, False, True, False, False, False]
        combined = ((dlt.col("qty") > 0) & dlt.col("region").not_null())
        assert combined.mask(t).tolist() == [
            True, False, False, False, True, False]
        # Three-valued NOT: the null qty (row 3) is unknown and still
        # violates, as in SQL.
        negated = (~(dlt.col("qty") > 0)).mask(t)
        assert negated.tolist() == [False, True, False, False, False, True]

    @pytest.mark.parametrize("build, sql", [
        (lambda: ~(dlt.col("qty") > 0), "not (qty > 0)"),
        (lambda: ~((dlt.col("qty") > 0) | (dlt.col("price") < 3)),
         "not (qty > 0 or price < 3)"),
        (lambda: ~((dlt.col("qty") > 0) & dlt.col("region").not_null()),
         "not (qty > 0 and region is not null)"),
        (lambda: ~dlt.col("qty").between(0, 3), "not (qty between 0 and 3)"),
        (lambda: ~dlt.col("region").is_in(["eu", "apac"]),
         "not (region in ('eu', 'apac'))"),
        (lambda: dlt.col("qty") >= dlt.col("price"), "qty >= price"),
        (lambda: dlt.col("region") != "eu", "region <> 'eu'"),
    ])
    def test_predicates_match_sqlite(self, build, sql):
        # Predicates are SQL WHERE clauses: TRUE passes, FALSE and NULL
        # violate, exactly the rows stdlib sqlite3 keeps.
        import sqlite3

        t = orders_table()
        conn = sqlite3.connect(":memory:")
        conn.execute("create table t (order_id integer, qty integer, "
                     "price real, region text)")
        conn.executemany("insert into t values (?, ?, ?, ?)", t.rows())
        kept = {r for (r,) in conn.execute(
            f"select order_id from t where {sql}")}
        mask = build().mask(t)
        assert {int(i) for i in t.column_array("order_id")[mask]} == kept

    def test_descriptions_are_sql_text(self):
        t = orders_table()
        assert (dlt.col("qty") > 0).description == "(qty > 0)"
        listed = dlt.col("region").is_in(["us", "eu", "us"])
        assert listed.description == "((region = 'eu') or (region = 'us'))"
        assert dlt.col("region").is_in({"eu", "us"}).description == \
            listed.description
        assert dlt.col("region").is_in([]).mask(t).tolist() == [False] * 6
        many = dlt.col("order_id").is_in(range(5000))
        assert many.mask(t).all()
        # An opaque operand keeps mask-level composition.
        mixed = (dlt.col("qty") > 0) & dlt.col("region").matches("eu")
        assert mixed.mask(t).tolist() == [
            True, False, False, False, False, False]

    def test_callable_predicate_wrap_validates_shape(self):
        t = orders_table()
        pred = dlt.Predicate.wrap(
            lambda table: table.column_array("qty") != 0, "qty nonzero")
        assert pred.mask(t).shape == (6,)
        bad = dlt.Predicate.wrap(lambda table: np.array([True]), "bad")
        with pytest.raises(DltError, match="shape"):
            bad.mask(t)

    def test_detector_predicate_agrees_with_detector(self):
        # Property: on randomized dirty tables, rows the detector flags are
        # exactly the rows the wrapped predicate fails.
        world = make_world(seed=5)
        for seed in range(5):
            dirty = make_dirty(products_table(world), error_rate=0.3,
                               seed=seed).dirty
            detector = NullDetector(["name", "brand"])
            pred = dlt.from_detector(detector)
            flagged = {f.row for f in detector.detect(dirty)}
            mask = pred.mask(dirty)
            assert {i for i in range(dirty.num_rows) if not mask[i]} == flagged

    def test_detector_predicate_reasons(self):
        t = orders_table()
        pred = dlt.from_detector(NullDetector(["qty", "region"]))
        mask = pred.mask(t)
        failing = np.flatnonzero(~mask)
        reasons = pred.reasons(t, failing)
        assert len(reasons) == len(failing)
        assert all("missing" in r for r in reasons)


class TestDeclaration:
    def test_table_decorator_captures_inputs_and_expectations(self):
        @dlt.table(layer="silver", description="cleaned")
        @dlt.expect("a", dlt.col("x") > 0)
        @dlt.expect_or_drop("b", dlt.col("y") > 0)
        def cleaned(raw, lookup):
            return raw

        tdef = dlt.table_def(cleaned)
        assert tdef.name == "cleaned"
        assert tdef.layer == "silver"
        assert tdef.inputs == ("raw", "lookup")
        # declaration order preserved top-to-bottom
        assert [(e.name, e.action) for e in tdef.expectations] == [
            ("a", "warn"), ("b", "drop")]

    def test_decorator_order_independent(self):
        @dlt.expect_or_fail("nn", dlt.col("x").not_null())
        @dlt.table(name="t2", layer="gold")
        def fn(up):
            return up

        tdef = dlt.table_def(fn)
        assert [(e.name, e.action) for e in tdef.expectations] == [
            ("nn", "fail")]
        assert tdef.layer == "gold"

    def test_invalid_layer_rejected(self):
        with pytest.raises(DltError, match="layer"):
            @dlt.table(layer="platinum")
            def t(x):
                return x

    def test_undecorated_function_rejected(self):
        def plain(x):
            return x

        with pytest.raises(DltError):
            dlt.table_def(plain)


class TestGraph:
    def _defs(self, *fns):
        return {dlt.table_def(f).name: dlt.table_def(f) for f in fns}

    def test_topo_order_and_queries(self):
        @dlt.table(name="a", layer="bronze")
        def a(src):
            return src

        @dlt.table(name="b", layer="silver")
        def b(a):
            return a

        @dlt.table(name="c", layer="silver")
        def c(a):
            return a

        @dlt.table(name="d", layer="gold")
        def d(b, c):
            return b

        g = dlt.PipelineGraph(self._defs(a, b, c, d), sources=["src"])
        assert g.topo_order() == ("a", "b", "c", "d")
        assert g.parents("d") == ("b", "c")
        assert g.children("a") == ("b", "c")
        assert g.downstream_of("b") == {"d"}
        assert g.downstream_of("a") == {"b", "c", "d"}
        assert ("src", "a") in g.edges()

    def test_unknown_input_rejected(self):
        @dlt.table(name="lonely", layer="bronze")
        def lonely(missing_dep):
            return missing_dep

        with pytest.raises(PipelineGraphError, match="unknown input"):
            dlt.PipelineGraph(self._defs(lonely))

    def test_cycle_rejected(self):
        @dlt.table(name="x", layer="bronze")
        def x(y):
            return y

        @dlt.table(name="y", layer="bronze")
        def y(x):
            return x

        with pytest.raises(PipelineGraphError, match="cycle"):
            dlt.PipelineGraph(self._defs(x, y))

    def test_source_table_name_clash_rejected(self):
        @dlt.table(name="dup", layer="bronze")
        def dup(src):
            return src

        with pytest.raises(PipelineGraphError, match="source and table"):
            dlt.PipelineGraph(self._defs(dup), sources=["dup", "src"])


class TestStorage:
    def test_round_trip_exact(self):
        t = orders_table()
        clone = decode_table(encode_table(t))
        assert clone.schema == t.schema
        for name in t.schema.names:
            assert clone.column(name) == t.column(name)
        assert dlt.table_hash(clone) == dlt.table_hash(t)

    def test_hash_changes_with_content(self):
        t = orders_table()
        other = t.filter(np.array([True] * 5 + [False]))
        assert dlt.table_hash(t) != dlt.table_hash(other)

    def test_corrupt_payload_raises(self):
        with pytest.raises(CheckpointError):
            dlt.table_from_json("not json at all {")
        with pytest.raises(CheckpointError):
            dlt.table_from_json(json.dumps({"format": 999}))


class TestCheckpointStore:
    def test_commit_and_read_back(self, tmp_path):
        store = dlt.CheckpointStore(tmp_path)
        t = orders_table()
        entry = store.commit("orders", "fp1", t)
        assert store.committed("orders").fingerprint == "fp1"
        assert store.read_table("orders").column("qty") == t.column("qty")
        assert entry.rows == 6
        assert len(store) == 1

    def test_corruption_detected_on_read(self, tmp_path):
        store = dlt.CheckpointStore(tmp_path)
        entry = store.commit("orders", "fp1", orders_table())
        data_path = store.tables_dir / entry.data_file
        flip_byte(data_path, -1)
        assert store.committed("orders") is None
        assert store.read_table("orders") is None

    def test_truncation_detected_on_read(self, tmp_path):
        store = dlt.CheckpointStore(tmp_path)
        entry = store.commit("orders", "fp1", orders_table(),
                             quarantine=orders_table())
        for name in (entry.quarantine_file, entry.data_file):
            path = store.tables_dir / name
            path.write_bytes(path.read_bytes()[:-10])
            assert store.committed("orders") is None
        assert store.read_table("orders") is None
        assert store.read_quarantine("orders") is None

    def test_undecodable_payload_with_matching_hash_raises(self, tmp_path):
        """Bytes that pass the hash check but do not decode (a foreign
        writer) raise instead of serving garbage."""
        store = dlt.CheckpointStore(tmp_path)
        entry = store.commit("orders", "fp1", orders_table())
        data_path = store.tables_dir / entry.data_file
        data = data_path.read_bytes()
        for bad in (data[:-10], bytes([data[0] ^ 0xFF]) + data[1:]):
            data_path.write_bytes(bad)
            forged = dataclasses.replace(entry, data_hash=content_hash(bad))
            with pytest.raises(CheckpointError):
                store.read_table("orders", forged)

    def test_sweep_removes_debris(self, tmp_path):
        store = dlt.CheckpointStore(tmp_path)
        store.commit("orders", "fp1", orders_table())
        for junk in ("junk-deadbeef.tbl", "junk-deadbeef.json"):
            (store.tables_dir / junk).write_bytes(b"{}")
        (tmp_path / "MANIFEST.json.tmp").write_text("partial")
        reopened = dlt.CheckpointStore(tmp_path)
        assert not (reopened.tables_dir / "junk-deadbeef.tbl").exists()
        assert not (reopened.tables_dir / "junk-deadbeef.json").exists()
        assert not (tmp_path / "MANIFEST.json.tmp").exists()
        assert reopened.read_table("orders") is not None

    def test_old_version_gc_after_recommit(self, tmp_path):
        store = dlt.CheckpointStore(tmp_path)
        first = store.commit("orders", "fp1", orders_table())
        smaller = orders_table().filter(np.array([True] * 3 + [False] * 3))
        store.commit("orders", "fp2", smaller)
        assert not (store.tables_dir / first.data_file).exists()
        assert store.read_table("orders").num_rows == 3

    def test_format1_json_checkpoint_read_then_replaced(self, tmp_path):
        """A checkpoint from before the binary format: a format-1 JSON
        data file survives reopen, reads back exactly, and the next
        refresh recomputes the table into a binary file."""
        text = json.dumps({
            "format": 1,
            "schema": [["order_id", "int"], ["qty", "int"],
                       ["price", "float"], ["region", "str"]],
            "num_rows": 6,
            "columns": [[1, 2, 3, 4, 5, 6], [2, -1, 3, None, 10, 0],
                        [9.5, 3.0, 1.25, 4.0, None, 2.0],
                        ["eu", "us", None, "eu", "apac", "us"]],
        }, separators=(",", ":"))
        legacy = "bronze_orders-0123456789ab.json"
        (tmp_path / "tables").mkdir()
        (tmp_path / "tables" / legacy).write_text(text)
        (tmp_path / "MANIFEST.json").write_text(json.dumps({
            "format": 1,
            "tables": {"bronze_orders": {
                "table": "bronze_orders", "fingerprint": "format1-fp",
                "data_file": legacy,
                "data_hash": content_hash(text.encode("utf-8")),
                "rows": 6,
            }},
        }))
        store = dlt.CheckpointStore(tmp_path)
        assert (store.tables_dir / legacy).exists()
        old = store.read_table("bronze_orders")
        assert old.schema == orders_table().schema
        for name in old.schema.names:
            assert old.column(name) == orders_table().column(name)

        counters = {}
        result = build_pipeline(tmp_path, counters).refresh()
        assert result.results["bronze_orders"].status == "materialized"
        assert counters["bronze_orders"] == 1
        entry = store.committed("bronze_orders")
        assert entry.data_file.endswith(".tbl")
        assert not (store.tables_dir / legacy).exists()
        assert store.read_table("bronze_orders") == orders_table()

    def test_invalidate_and_clear(self, tmp_path):
        store = dlt.CheckpointStore(tmp_path)
        store.commit("a", "fp", orders_table())
        store.commit("b", "fp", orders_table())
        store.invalidate("a")
        assert store.committed("a") is None
        assert store.committed("b") is not None
        store.clear()
        assert len(store) == 0


def build_pipeline(tmp_path, counters, *, raw=None, retry=None,
                   lake=None, fail_silver=False):
    """A 5-table medallion DAG with per-table run counters."""
    raw = raw if raw is not None else orders_table()

    def count(name):
        counters[name] = counters.get(name, 0) + 1

    @dlt.table(name="bronze_orders", layer="bronze")
    def bronze_orders(raw_orders):
        count("bronze_orders")
        return raw_orders

    @dlt.table(name="silver_orders", layer="silver")
    @dlt.expect("region_known", dlt.col("region").not_null())
    @dlt.expect_or_drop("qty_positive", dlt.col("qty") > 0)
    def silver_orders(bronze_orders):
        count("silver_orders")
        if fail_silver:
            raise ValueError("silver exploded")
        return bronze_orders

    @dlt.table(name="silver_priced", layer="silver")
    @dlt.expect_or_drop("price_known", dlt.col("price").not_null())
    def silver_priced(bronze_orders):
        count("silver_priced")
        return bronze_orders

    @dlt.table(name="gold_totals", layer="gold")
    def gold_totals(silver_orders):
        count("gold_totals")
        qty = silver_orders.column_array("qty")
        keep = ~silver_orders.null_mask("qty")
        return Table.from_dict({"total_qty": [int(qty[keep].sum())]})

    @dlt.table(name="gold_joined", layer="gold")
    def gold_joined(silver_orders, silver_priced):
        count("gold_joined")
        return Table.from_dict(
            {"n": [silver_orders.num_rows + silver_priced.num_rows]})

    return (dlt.Pipeline("test", checkpoint_dir=tmp_path, lake=lake,
                         retry=retry, clock=FakeClock())
            .source("raw_orders", raw)
            .add(bronze_orders, silver_orders, silver_priced,
                 gold_totals, gold_joined))


class TestRunner:
    def test_full_run_materializes_everything(self, tmp_path):
        counters = {}
        result = build_pipeline(tmp_path, counters).run()
        assert result.ok
        assert set(result.computed) == {
            "bronze_orders", "silver_orders", "silver_priced",
            "gold_totals", "gold_joined"}
        assert result.results["silver_orders"].quarantined == 3
        assert result.results["silver_orders"].warned == 1
        assert result.table("gold_totals").column("total_qty") == [15]

    def test_quarantine_rows_carry_reasons(self, tmp_path):
        result = build_pipeline(tmp_path, {}).run()
        q = result.quarantine("silver_orders")
        assert q.num_rows == 3
        assert q.column("order_id") == [2, 4, 6]
        assert q.column("_expectation") == ["qty_positive"] * 3
        assert all(r for r in q.column("_reason"))

    def test_incremental_refresh_recomputes_nothing(self, tmp_path):
        counters = {}
        pipe = build_pipeline(tmp_path, counters)
        first = pipe.run()
        second = pipe.refresh()
        assert second.computed == []
        assert all(r.status == "cached" for r in second.results.values())
        assert all(counters[name] == 1 for name in counters)
        # cached quarantine still visible
        assert second.quarantine("silver_orders").num_rows == 3
        assert (second.table("gold_totals").column("total_qty")
                == first.table("gold_totals").column("total_qty"))

    def test_dirty_source_recomputes_only_downstream(self, tmp_path):
        counters = {}
        build_pipeline(tmp_path, counters).run()
        dirty = Table.from_dict({
            "order_id": [1, 2, 3, 4, 5, 6],
            "qty": [5, 5, 5, 5, 5, 5],
            "price": [9.5, 3.0, 1.25, 4.0, None, 2.0],
            "region": ["eu", "us", None, "eu", "apac", "us"],
        })
        counters2 = {}
        result = build_pipeline(tmp_path, counters2, raw=dirty).run()
        # all tables are downstream of the single source here, so all rerun;
        # the negative case (unchanged source) is covered above
        assert result.ok
        assert result.table("gold_totals").column("total_qty") == [30]

    def test_code_change_recomputes_table_and_downstream(self, tmp_path):
        counters = {}
        pipe = build_pipeline(tmp_path, counters)
        pipe.run()

        # redeclare gold_totals with different logic: only it reruns
        @dlt.table(name="gold_totals", layer="gold")
        def gold_totals(silver_orders):
            return Table.from_dict({"total_qty": [-1]})

        pipe2 = build_pipeline(tmp_path, {})
        pipe2.defs["gold_totals"] = dlt.table_def(gold_totals)
        result = pipe2.run()
        assert result.computed == ["gold_totals"]
        assert result.table("gold_totals").column("total_qty") == [-1]

    def test_expect_or_fail_isolates_failing_table(self, tmp_path):
        raw = orders_table()

        @dlt.table(name="b", layer="bronze")
        def b(src):
            return src

        @dlt.table(name="strict", layer="silver")
        @dlt.expect_or_fail("no_null_price", dlt.col("price").not_null())
        def strict(b):
            return b

        @dlt.table(name="lenient", layer="silver")
        def lenient(b):
            return b

        @dlt.table(name="g", layer="gold")
        def g(strict):
            return strict

        pipe = (dlt.Pipeline("iso", checkpoint_dir=tmp_path)
                .source("src", raw).add(b, strict, lenient, g))
        result = pipe.run(on_error="skip_downstream")
        assert result.results["b"].ok
        assert result.results["lenient"].ok  # sibling unaffected
        assert result.results["strict"].status == "failed"
        assert "no_null_price" in result.results["strict"].error
        assert result.results["g"].status == "skipped"

    def test_on_error_halt_stops_run(self, tmp_path):
        counters = {}
        pipe = build_pipeline(tmp_path, counters, fail_silver=True)
        result = pipe.run(on_error="halt")
        assert result.results["silver_orders"].status == "failed"
        # everything ordered after the failure is skipped, even non-dependents
        after = ("silver_priced", "gold_totals", "gold_joined")
        assert all(result.results[n].status == "skipped" for n in after)
        assert not result.ok

    def test_on_error_skip_downstream_keeps_siblings(self, tmp_path):
        counters = {}
        pipe = build_pipeline(tmp_path, counters, fail_silver=True)
        result = pipe.run(on_error="skip_downstream")
        assert result.results["silver_priced"].ok
        assert result.results["gold_totals"].status == "skipped"
        assert result.results["gold_joined"].status == "skipped"

    def test_invalid_on_error_rejected(self, tmp_path):
        with pytest.raises(DltError, match="on_error"):
            build_pipeline(tmp_path, {}).run(on_error="ignore")

    def test_transient_table_fn_retried_under_policy(self, tmp_path):
        attempts = {"n": 0}
        raw = orders_table()

        @dlt.table(name="flaky", layer="bronze")
        def flaky(src):
            attempts["n"] += 1
            if attempts["n"] < 3:
                from repro.errors import TransientError
                raise TransientError("flap")
            return src

        policy = RetryPolicy(max_attempts=4, base_delay=0.01, seed=1)
        pipe = (dlt.Pipeline("retry", checkpoint_dir=tmp_path,
                             retry=policy, clock=FakeClock())
                .source("src", raw).add(flaky))
        result = pipe.run()
        assert result.ok
        assert attempts["n"] == 3

    def test_table_fn_fault_point_fires(self, tmp_path):
        injector = FaultInjector(seed=3)
        injector.configure(dlt.TABLE_FN_POINT, rate=1.0)
        previous = set_injector(injector)
        try:
            result = build_pipeline(tmp_path, {}).run(
                on_error="skip_downstream")
        finally:
            set_injector(previous)
        assert not result.ok
        assert result.results["bronze_orders"].status == "failed"

    def test_gold_tables_register_into_lake(self, tmp_path):
        from repro.lake import DataLake

        lake = DataLake()
        result = build_pipeline(tmp_path, {}, lake=lake).run()
        assert result.ok
        assert set(lake.table_names()) >= {"gold_totals", "gold_joined"}
        # refresh re-registers without raising (overwrite=True path)
        build_pipeline(tmp_path, {}, lake=lake).refresh()

    def test_run_emits_spans_and_report_section(self, tmp_path):
        obs.reset()
        build_pipeline(tmp_path, {}).run()
        report = obs.RunReport.collect("dlt-unit")
        assert report.dlt["tables"]
        statuses = {e["table"]: e["status"] for e in report.dlt["tables"]}
        assert statuses["gold_totals"] == "materialized"
        assert report.dlt["quarantined"] >= 3
        assert ["raw_orders", "bronze_orders"] in report.dlt["edges"]
        roots = [s.name for s in report.spans]
        assert "dlt.run" in roots
        run_span = next(s for s in report.spans if s.name == "dlt.run")
        child_names = [c.name for c in run_span.children]
        assert child_names.count("dlt.table") == 5
        # round trip keeps the section
        clone = obs.RunReport.from_json(report.to_json())
        assert clone.dlt == report.dlt
        assert "dlt: tables=" in report.render()

    def test_obs_reset_clears_dlt_log(self, tmp_path):
        build_pipeline(tmp_path, {}).run()
        assert dlt.get_log().events()
        obs.reset()
        assert dlt.get_log().events() == []


class TestCrashRecovery:
    def test_kill_at_every_checkpoint_stage_then_resume(self, tmp_path):
        """The acceptance proof: kill at each fire of dlt.checkpoint.write,
        resume, and require byte-identical committed state + no recompute
        of committed-and-clean tables."""
        ref_dir = tmp_path / "ref"
        ref_counters = {}
        ref = build_pipeline(ref_dir, ref_counters).run()
        ref_manifest = (ref_dir / "MANIFEST.json").read_text()
        # 5 tables x 3 stages per commit
        total_fires = 15

        for kill_at in range(1, total_fires + 1):
            work = tmp_path / f"kill{kill_at}"
            counters = {}
            pipe = build_pipeline(work, counters)
            previous = set_injector(
                KillNth(dlt.CHECKPOINT_WRITE_POINT, kill_at))
            try:
                with pytest.raises(FaultInjectionError):
                    pipe.run()
            finally:
                set_injector(previous)

            resumed = build_pipeline(work, counters).run()
            assert resumed.ok
            manifest = (work / "MANIFEST.json").read_text()
            assert manifest == ref_manifest
            # committed-and-clean tables were not recomputed: each table ran
            # at most twice (once before the kill, once after if uncommitted)
            committed_before_kill = (kill_at - 1) // 3
            order = ("bronze_orders", "silver_orders", "silver_priced",
                     "gold_totals", "gold_joined")
            for name in order[:committed_before_kill]:
                assert counters[name] == 1, (kill_at, name, counters)
            assert (resumed.table("gold_totals").column("total_qty")
                    == ref.table("gold_totals").column("total_qty"))
            assert (resumed.quarantine("silver_orders").num_rows
                    == ref.quarantine("silver_orders").num_rows)

    def test_torn_manifest_never_served(self, tmp_path):
        """A kill mid-manifest-write leaves the previous manifest
        authoritative and the next open sweeps the temp file."""
        counters = {}
        pipe = build_pipeline(tmp_path, counters)
        # stage 3 of the first commit = 3rd fire
        previous = set_injector(KillNth(dlt.CHECKPOINT_WRITE_POINT, 3))
        try:
            with pytest.raises(FaultInjectionError):
                pipe.run()
        finally:
            set_injector(previous)
        assert (tmp_path / "MANIFEST.json.tmp").exists()
        assert not (tmp_path / "MANIFEST.json").exists()
        store = dlt.CheckpointStore(tmp_path)  # reopen sweeps
        assert not (tmp_path / "MANIFEST.json.tmp").exists()
        assert len(store) == 0

    def test_corrupt_checkpoint_file_recomputed_not_served(self, tmp_path):
        """Fingerprints match, but a data or quarantine file no longer
        hashes to its entry: the refresh recomputes that table instead of
        serving it, and its clean downstream stays cached."""
        counters = {}
        first = build_pipeline(tmp_path, counters).run()
        store = dlt.CheckpointStore(tmp_path)
        flip_byte(store.tables_dir
                  / store.entry("silver_orders").quarantine_file, -1)
        flip_byte(store.tables_dir / store.entry("silver_priced").data_file,
                  -1)
        result = build_pipeline(tmp_path, counters).refresh()
        status = {n: r.status for n, r in result.results.items()}
        assert status == {
            "bronze_orders": "cached", "silver_orders": "materialized",
            "silver_priced": "materialized", "gold_totals": "cached",
            "gold_joined": "cached",
        }
        assert (result.quarantine("silver_orders")
                == first.quarantine("silver_orders"))
        assert result.table("silver_priced") == first.table("silver_priced")

    def test_detector_backed_expectation_in_pipeline(self, tmp_path):
        dirty = make_dirty(products_table(make_world(seed=11)),
                           error_rate=0.3, seed=11).dirty
        detector = NullDetector(["name", "brand"])
        expected_bad = {f.row for f in detector.detect(dirty)}

        @dlt.table(name="clean_products", layer="silver")
        @dlt.expect_or_drop("detector_clean", dlt.from_detector(detector))
        def clean_products(products):
            return products

        pipe = (dlt.Pipeline("det", checkpoint_dir=tmp_path)
                .source("products", dirty).add(clean_products))
        result = pipe.run()
        assert result.results["clean_products"].quarantined == len(expected_bad)
        assert (result.table("clean_products").num_rows
                == dirty.num_rows - len(expected_bad))

    def test_outlier_detector_predicate(self, tmp_path):
        t = Table.from_dict(
            {"v": [1.0, 1.1, 0.9, 1.05, 100.0, 0.95, 1.2, 0.8, 1.0]})
        detector = OutlierDetector(["v"], k=1.5)
        flagged = {f.row for f in detector.detect(t)}
        mask = dlt.from_detector(detector).mask(t)
        assert {i for i in range(t.num_rows) if not mask[i]} == flagged
        assert flagged  # the 100.0 outlier is caught


class TestIncrementalSources:
    """Append-only sources: high-water-mark fingerprints + tail application."""

    @staticmethod
    def events(n: int, start: int = 0) -> Table:
        return Table.from_rows(
            [(i, float(i % 7)) for i in range(start, start + n)],
            schema=[("id", "int"), ("v", "float")],
        )

    @staticmethod
    def doubled_def():
        @dlt.table(name="doubled", layer="silver", incremental=True)
        @dlt.expect_or_drop("small", dlt.col("v") < 6)
        def doubled(events):
            return events.with_column(
                "d", "float", [x * 2 for x in events.column("v")]
            )
        return doubled

    def pipeline(self, tmp_path, source: Table):
        return (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
                .source("events", source, incremental=True)
                .add(self.doubled_def()))

    def test_append_applies_only_the_tail(self, tmp_path):
        self.pipeline(tmp_path, self.events(20)).run()
        grown = self.events(20).append_rows(
            list(self.events(5, start=20).rows()))
        result = self.pipeline(tmp_path, grown).refresh()
        res = result.results["doubled"]
        assert res.status == "appended"
        assert res.rows_in == 5                       # the tail, not history
        full = self.pipeline(tmp_path, grown).run(full_refresh=True)
        assert (result.table("doubled").num_rows
                == full.table("doubled").num_rows)

    def test_appended_equals_full_refresh(self, tmp_path):
        self.pipeline(tmp_path, self.events(20)).run()
        grown = self.events(25)
        appended = self.pipeline(tmp_path, grown).refresh()
        full = self.pipeline(tmp_path, grown).run(full_refresh=True)
        assert (list(appended.table("doubled").rows())
                == list(full.table("doubled").rows()))

    def test_unchanged_source_still_cached(self, tmp_path):
        self.pipeline(tmp_path, self.events(20)).run()
        result = self.pipeline(tmp_path, self.events(20)).refresh()
        assert result.results["doubled"].status == "cached"

    def test_quarantine_accumulates_across_tails(self, tmp_path):
        first = self.pipeline(tmp_path, self.events(20)).run()
        q_first = first.results["doubled"].quarantined
        assert q_first > 0                             # v == 6 rows dropped
        grown = self.events(27)
        result = self.pipeline(tmp_path, grown).refresh()
        full = self.pipeline(tmp_path, grown).run(full_refresh=True)
        # the appended result's quarantine is cumulative: committed rows
        # plus the tail's violations, matching a from-scratch run
        assert (result.results["doubled"].quarantined
                == full.results["doubled"].quarantined)
        assert (list(result.quarantine("doubled").column("id"))
                == list(full.quarantine("doubled").column("id")))

    def test_prefix_rewrite_falls_back_to_recompute(self, tmp_path):
        self.pipeline(tmp_path, self.events(20)).run()
        mutated = Table.from_rows(
            [(99, 0.0)] + list(self.events(24).rows())[1:],
            schema=[("id", "int"), ("v", "float")],
        )
        result = self.pipeline(tmp_path, mutated).refresh()
        assert result.results["doubled"].status == "materialized"
        full = self.pipeline(tmp_path, mutated).run(full_refresh=True)
        assert (list(result.table("doubled").rows())
                == list(full.table("doubled").rows()))

    def test_shrunk_source_falls_back_to_recompute(self, tmp_path):
        self.pipeline(tmp_path, self.events(20)).run()
        result = self.pipeline(tmp_path, self.events(10)).refresh()
        assert result.results["doubled"].status == "materialized"
        assert result.table("doubled").num_rows <= 10

    def test_non_incremental_table_never_takes_tail_path(self, tmp_path):
        @dlt.table(name="plain", layer="silver")
        def plain(events):
            return events

        pipe = (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
                .source("events", self.events(20), incremental=True)
                .add(plain))
        pipe.run()
        pipe2 = (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
                 .source("events", self.events(25), incremental=True)
                 .add(plain))
        result = pipe2.refresh()
        assert result.results["plain"].status == "materialized"
        assert result.results["plain"].rows_in == 25  # full recompute

    def test_multi_input_incremental_table_refused(self, tmp_path):
        @dlt.table(name="joined", layer="silver", incremental=True)
        def joined(events, extra):
            return events.union(extra)

        pipe = (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
                .source("events", self.events(20), incremental=True)
                .source("extra", self.events(3), incremental=True)
                .add(joined))
        pipe.run()
        pipe2 = (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
                 .source("events", self.events(25), incremental=True)
                 .source("extra", self.events(3), incremental=True)
                 .add(joined))
        result = pipe2.refresh()
        # linearity does not compose across arguments: full recompute
        assert result.results["joined"].status == "materialized"

    def test_downstream_of_appended_table_recomputes(self, tmp_path):
        @dlt.table(name="rollup", layer="gold")
        def rollup(doubled):
            return doubled.group_by([], [("sum", "d", "total")])

        def build(source):
            return (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
                    .source("events", source, incremental=True)
                    .add(self.doubled_def(), rollup))

        build(self.events(20)).run()
        result = build(self.events(25)).refresh()
        assert result.results["doubled"].status == "appended"
        # content-driven staleness: the aggregate sees the new rows
        assert result.results["rollup"].status == "materialized"
        full = build(self.events(25)).run(full_refresh=True)
        assert (list(result.table("rollup").rows())
                == list(full.table("rollup").rows()))

    def test_tail_expect_or_fail_marks_table_failed(self, tmp_path):
        @dlt.table(name="strict", layer="silver", incremental=True)
        @dlt.expect_or_fail("nonneg", dlt.col("v") >= 0)
        def strict(events):
            return events

        (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
         .source("events", self.events(20), incremental=True)
         .add(strict)).run()
        grown = self.events(20).append_rows([(99, -1.0)])
        result = (dlt.Pipeline("inc", checkpoint_dir=tmp_path)
                  .source("events", grown, incremental=True)
                  .add(strict)).refresh()
        assert result.results["strict"].status == "failed"

    def test_manifest_without_source_state_loads(self, tmp_path):
        """Manifests from before this feature (no source_state keys) parse."""
        store = dlt.CheckpointStore(tmp_path)
        store.commit("t", "fp", self.events(3))
        manifest_path = tmp_path / "MANIFEST.json"
        payload = json.loads(manifest_path.read_text())
        for entry in payload["tables"].values():
            entry.pop("source_state", None)
            entry.pop("base_fingerprint", None)
        manifest_path.write_text(json.dumps(payload))
        entry = dlt.CheckpointStore(tmp_path).committed("t")
        assert entry is not None
        assert entry.source_state is None and entry.base_fingerprint is None
