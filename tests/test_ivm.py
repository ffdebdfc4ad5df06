"""Unit tests for repro.ivm: Z-sets, operator nodes, stream tables,
materialized views, SQL view registration, and the table-layer delta
fast paths (append_rows / join_indices / row_codes / slice).

The randomized incremental == batch property suite lives in
tests/test_ivm_properties.py; these tests pin the individual contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import IvmError, SchemaError
from repro.ivm import Delta, MaterializedView, StreamTable, ZSet
from repro.sql import Database
from repro.table import Schema, Table


def rows_of(table: Table) -> list[tuple]:
    return list(table.rows())


def bag(table: Table) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for row in table.rows():
        out[row] = out.get(row, 0) + 1
    return out


def make_orders(extra=()) -> Table:
    rows = [
        (1, "u1", 10.0),
        (2, "u2", 5.0),
        (3, "u1", 7.5),
        (4, "u3", -2.0),
    ] + list(extra)
    return Table.from_rows(rows, names=["oid", "uid", "amount"])


def make_users() -> Table:
    return Table.from_rows(
        [("u1", "US"), ("u2", "DE"), ("u3", "US")],
        names=["uid", "country"],
    )


class TestZSet:
    def test_weights_must_match_payload(self):
        t = make_orders()
        with pytest.raises(IvmError):
            ZSet(t, np.ones(2, dtype=np.int64))

    def test_from_table_and_weight_total(self):
        z = ZSet.from_table(make_orders())
        assert z.weight_total == 4
        assert not z.is_empty
        assert ZSet.from_table(make_orders(), weight=-1).weight_total == -4

    def test_algebra_add_negate_subtract_scale(self):
        t = make_orders()
        z = ZSet.from_table(t)
        assert (z - z).is_empty is False  # physical entries remain...
        assert (z - z).weight_by_row() == {}  # ...but net to nothing
        assert (z + z).weight_by_row() == {r: 2 for r in t.rows()}
        assert z.scale(3).weight_by_row() == {r: 3 for r in t.rows()}
        assert z.negate().weight_total == -4

    def test_add_requires_identical_schema(self):
        with pytest.raises(IvmError):
            ZSet.from_table(make_orders()) + ZSet.from_table(make_users())

    def test_consolidate_sums_and_drops_zeros(self):
        t = Table.from_rows(
            [(1, "a"), (1, "a"), (2, "b"), (2, "b")], names=["k", "v"]
        )
        z = ZSet(t, np.array([1, 1, 1, -1], dtype=np.int64))
        flat = z.consolidate()
        assert flat.weight_by_row() == {(1, "a"): 2}
        # first-appearance order is kept
        assert rows_of(flat.payload) == [(1, "a")]

    def test_consolidate_already_flat_returns_self(self):
        z = ZSet.from_table(make_orders())
        assert z.consolidate() is z

    def test_consolidate_nulls_match_nulls(self):
        t = Table.from_rows(
            [(None, "x"), (None, "x")], schema=[("k", "int"), ("v", "str")]
        )
        flat = ZSet(t, np.array([1, -1], dtype=np.int64)).consolidate()
        assert len(flat) == 0

    def test_to_table_repeats_weights(self):
        t = Table.from_rows([(1,), (2,)], names=["k"])
        z = ZSet(t, np.array([2, 1], dtype=np.int64))
        assert sorted(rows_of(z.to_table())) == [(1,), (1,), (2,)]

    def test_to_table_rejects_negative_weights(self):
        z = ZSet.from_table(make_orders(), weight=-1)
        with pytest.raises(IvmError):
            z.to_table()

    def test_same_zset_is_order_and_consolidation_agnostic(self):
        t = Table.from_rows([(1,), (2,)], names=["k"])
        a = ZSet(t, np.array([1, 1], dtype=np.int64))
        rev = Table.from_rows([(2,), (1,)], names=["k"])
        b = ZSet(rev, np.array([1, 1], dtype=np.int64))
        assert a.same_zset(b)
        assert not a.same_zset(b.scale(2))

    def test_delta_constructors(self):
        t = make_orders()
        assert Delta.inserts(t).weight_total == 4
        assert Delta.deletes(t).weight_total == -4
        assert Delta.of(t, [1, -1, 1, -1]).weight_total == 0


class TestStreamTable:
    def test_initial_state_consolidates_duplicates(self):
        t = Table.from_rows([(1, "a"), (1, "a")], names=["k", "v"])
        s = StreamTable(t)
        assert s.num_rows == 2
        assert bag(s.snapshot()) == {(1, "a"): 2}

    def test_insert_and_delete_rows(self):
        s = StreamTable(make_orders(), name="orders")
        s.insert_rows([(5, "u2", 1.0)])
        assert s.num_rows == 5
        s.delete_rows([(1, "u1", 10.0)])
        assert s.num_rows == 4
        assert (1, "u1", 10.0) not in bag(s.snapshot())

    def test_delete_absent_row_raises_and_leaves_state(self):
        s = StreamTable(make_orders())
        before = bag(s.snapshot())
        with pytest.raises(IvmError):
            s.delete_rows([(99, "zz", 0.0)])
        assert bag(s.snapshot()) == before

    def test_schema_mismatch_rejected(self):
        s = StreamTable(make_orders())
        with pytest.raises(IvmError):
            s.insert(make_users())

    def test_empty_stream_from_schema(self):
        s = StreamTable([("k", "int"), ("v", "str")])
        assert s.num_rows == 0
        s.insert_rows([(1, "a")])
        assert rows_of(s.snapshot()) == [(1, "a")]

    def test_snapshot_cached_until_push(self):
        s = StreamTable(make_orders())
        assert s.snapshot() is s.snapshot()
        first = s.snapshot()
        s.insert_rows([(9, "u1", 2.0)])
        assert s.snapshot() is not first


class TestOperatorsThroughViews:
    def test_filter_view_tracks_pushes(self):
        s = StreamTable(make_orders())
        v = s.view().filter(
            lambda t: t.column_array("amount") > 0
        ).materialize("positive")
        assert bag(v.table()) == bag(
            s.snapshot().filter(s.snapshot().column_array("amount") > 0)
        )
        s.insert_rows([(5, "u9", -3.0), (6, "u9", 3.0)])
        s.delete_rows([(1, "u1", 10.0)])
        snap = s.snapshot()
        assert bag(v.table()) == bag(snap.filter(snap.column_array("amount") > 0))

    def test_filter_bad_mask_shape_raises(self):
        s = StreamTable(make_orders())
        v = s.view().filter(lambda t: np.ones(1, dtype=bool)).materialize
        with pytest.raises(IvmError):
            v("bad")

    def test_project_renames_and_collapses_as_bag(self):
        s = StreamTable(make_orders())
        v = s.view().project(["uid"], rename={"uid": "user"}).materialize("p")
        assert v.schema.names == ["user"]
        assert bag(v.table()) == bag(s.snapshot().project(["uid"]))
        s.insert_rows([(7, "u1", 4.0)])
        assert bag(v.table())[("u1",)] == 3

    def test_union_view(self):
        a = StreamTable(make_orders(), name="a")
        b = StreamTable(make_orders(), name="b")
        v = a.view().union(b).materialize("u")
        assert bag(v.table()) == bag(a.snapshot().union(b.snapshot()))
        b.insert_rows([(8, "u8", 1.0)])
        assert bag(v.table()) == bag(a.snapshot().union(b.snapshot()))

    def test_join_matches_batch_columns_and_rows(self):
        orders = StreamTable(make_orders(), name="orders")
        users = StreamTable(make_users(), name="users")
        v = orders.view().join(users, on="uid").materialize("j")
        batch = orders.snapshot().join(users.snapshot(), on="uid")
        assert v.schema.names == batch.schema.names
        assert bag(v.table()) == bag(batch)
        # deltas on both sides, including a delete
        orders.insert_rows([(5, "u2", 2.0)])
        users.delete_rows([("u3", "US")])
        users.insert_rows([("u4", "FR")])
        orders.insert_rows([(6, "u4", 9.0)])
        batch = orders.snapshot().join(users.snapshot(), on="uid")
        assert bag(v.table()) == bag(batch)

    def test_join_null_keys_never_match(self):
        left = StreamTable(
            Table.from_rows([(None, 1), (2, 2)],
                            schema=[("k", "int"), ("l", "int")]),
            name="left",
        )
        right = StreamTable(
            Table.from_rows([(None, 10), (2, 20)],
                            schema=[("k", "int"), ("r", "int")]),
            name="right",
        )
        v = left.view().join(right, on="k").materialize("jn")
        assert bag(v.table()) == {(2, 2, 20): 1}
        left.insert_rows([(None, 3)])
        assert bag(v.table()) == {(2, 2, 20): 1}

    def test_join_duplicate_rows_multiply(self):
        left = StreamTable(
            Table.from_rows([(1, "x"), (1, "x")], names=["k", "l"]), name="l"
        )
        right = StreamTable(
            Table.from_rows([(1, "y"), (1, "y")], names=["k", "r"]), name="r"
        )
        v = left.view().join(right, on="k").materialize("jd")
        assert bag(v.table()) == {(1, "x", "y"): 4}

    def test_group_by_aggregates_and_group_removal(self):
        s = StreamTable(make_orders())
        v = s.view().group_by(
            ["uid"],
            [("count", "amount", "n"), ("sum", "amount", "total"),
             ("min", "amount", "lo"), ("max", "amount", "hi"),
             ("avg", "amount", "mean")],
        ).materialize("g")
        batch = s.snapshot().group_by(
            ["uid"],
            [("count", "amount", "n"), ("sum", "amount", "total"),
             ("min", "amount", "lo"), ("max", "amount", "hi"),
             ("avg", "amount", "mean")],
        )
        assert bag(v.table()) == bag(batch)
        # deleting the only u3 row removes the group entirely
        s.delete_rows([(4, "u3", -2.0)])
        assert all(row[0] != "u3" for row in v.table().rows())

    def test_group_by_null_keys_bucket_together(self):
        t = Table.from_rows(
            [(None, 1), (None, 2), ("a", 3)],
            schema=[("k", "str"), ("v", "int")],
        )
        s = StreamTable(t)
        v = s.view().group_by(["k"], [("sum", "v", "total")]).materialize("gn")
        assert bag(v.table()) == bag(
            s.snapshot().group_by(["k"], [("sum", "v", "total")])
        )

    def test_group_by_unknown_aggregate_rejected(self):
        s = StreamTable(make_orders())
        with pytest.raises(IvmError):
            s.view().group_by(["uid"], [("median", "amount", "m")]).materialize()

    def test_distinct_emits_only_presence_flips(self):
        s = StreamTable(Table.from_rows([(1,), (1,), (2,)], names=["k"]))
        v = s.view().distinct().materialize("d")
        assert bag(v.table()) == {(1,): 1, (2,): 1}
        s.delete_rows([(1,)])          # multiplicity 2 -> 1: still present
        assert bag(v.table()) == {(1,): 1, (2,): 1}
        s.delete_rows([(1,)])          # 1 -> 0: presence flips
        assert bag(v.table()) == {(2,): 1}
        s.insert_rows([(1,)])          # re-insert: flips back
        assert bag(v.table()) == {(1,): 1, (2,): 1}

    def test_trace_compaction_keeps_results_correct(self):
        obs.reset()
        left = StreamTable([("k", "int"), ("v", "int")], name="l")
        right = StreamTable([("k", "int"), ("label", "str")], name="r")
        right.insert_rows([(i, f"g{i}") for i in range(5)])
        v = left.view().join(right, on="k").materialize("c")
        # churn the left join trace far past the compaction floor:
        # insert each row singly, then delete every other one
        for i in range(200):
            left.insert_rows([(i % 5, i)])
        for i in range(0, 200, 2):
            left.delete_rows([(i % 5, i)])
        batch = left.snapshot().join(right.snapshot(), on="k")
        assert bag(v.table()) == bag(batch)
        compactions = obs.metrics.counter("ivm.trace.compactions").value
        assert compactions > 0


    def test_join_static_side_never_concatenates_pushed_trace(self):
        obs.reset()
        schema = [("k", "int"), ("v", "int")]
        left = StreamTable(Table.from_rows([(i % 5, i) for i in range(200)],
                                           schema=schema), name="l")
        right = StreamTable(Table.from_rows([(i, f"g{i}") for i in range(5)],
                                            schema=[("k", "int"),
                                                    ("label", "str")]),
                            name="r")
        v = left.view().join(right, on="k").materialize("c")
        concats = obs.metrics.counter("ivm.trace.concats")
        # 200 seeded rows + 60 pushed stay under the 2x compaction point
        for i in range(20):
            left.insert_rows([(i % 5, 1000 + i), (i % 7, 2000 + i)])
            left.delete_rows([(i % 5, i)])
        assert concats.value == 0
        assert obs.metrics.counter("ivm.trace.compactions").value == 1
        batch = left.snapshot().join(right.snapshot(), on="k")
        assert bag(v.table()) == bag(batch)
        # a right-side push probes the left trace: one concatenation
        right.insert_rows([(3, "again")])
        assert concats.value == 1
        batch = left.snapshot().join(right.snapshot(), on="k")
        assert bag(v.table()) == bag(batch)


class TestMaterializedView:
    def test_seeds_from_current_stream_state(self):
        s = StreamTable(make_orders())
        s.insert_rows([(10, "u2", 3.0)])
        v = s.view().project(["uid"]).materialize("seeded")
        assert bag(v.table()) == bag(s.snapshot().project(["uid"]))

    def test_table_cached_between_pushes(self):
        s = StreamTable(make_orders())
        v = s.view().project(["uid"]).materialize("cache")
        first = v.table()
        assert v.table() is first
        s.insert_rows([(11, "u7", 1.0)])
        assert v.table() is not first

    def test_order_by_and_limit_are_read_decorations(self):
        s = StreamTable(make_orders())
        v = s.view().project(["oid", "amount"]).materialize(
            "top", order_by=("amount", True), limit=2
        )
        out = rows_of(v.table())
        assert out == sorted(
            rows_of(s.snapshot().project(["oid", "amount"])),
            key=lambda r: -r[1],
        )[:2]

    def test_detach_stops_maintenance(self):
        s = StreamTable(make_orders())
        v = s.view().project(["uid"]).materialize("det")
        before = bag(v.table())
        v.detach()
        s.insert_rows([(12, "u5", 6.0)])
        assert bag(v.table()) == before

    def test_explain_shows_tree_state_and_last_push(self):
        orders = StreamTable(make_orders(), name="orders")
        users = StreamTable(make_users(), name="users")
        v = (orders.view()
             .filter(lambda t: t.column_array("amount") > 0)
             .join(users, on="uid")
             .group_by(["country"], [("max", "amount", "top"),
                                     ("count_star", None, "n")])
             .materialize("spend"))
        assert v.explain().splitlines()[0] == "view spend (no push yet)"
        orders.insert_rows([(20, "u1", 2.0), (21, "u2", -1.0)])
        # below the compaction floor every trace row is still pending
        assert v.explain().splitlines() == [
            "view spend (last push: 2 delta rows in, 2 out)",
            "  group_by country: max(amount) AS top, count_star(*) AS n "
            "(2 live groups)",
            "    join uid = uid (left trace: 0 consolidated + 4 pending "
            "rows; right trace: 0 consolidated + 3 pending rows)",
            "      filter",
            "        scan orders",
            "      scan users",
        ]

    def test_multiple_views_one_stream(self):
        s = StreamTable(make_orders())
        v1 = s.view().filter(
            lambda t: t.column_array("amount") > 0
        ).materialize("v1")
        v2 = s.view().group_by(["uid"], [("count", "oid", "n")]).materialize("v2")
        s.insert_rows([(13, "u1", 1.0)])
        snap = s.snapshot()
        assert bag(v1.table()) == bag(snap.filter(snap.column_array("amount") > 0))
        assert bag(v2.table()) == bag(snap.group_by(["uid"], [("count", "oid", "n")]))


class TestDatabaseViews:
    def make_db(self):
        db = Database()
        orders = db.register_stream("orders", make_orders())
        users = db.register_stream("users", make_users())
        return db, orders, users

    def test_register_stream_wraps_table(self):
        db, orders, _users = self.make_db()
        assert db.stream("orders") is orders
        assert db.table("orders").num_rows == 4
        assert "orders" in db.table_names()

    def test_name_clash_across_namespaces_rejected(self):
        db, _o, _u = self.make_db()
        with pytest.raises(SchemaError):
            db.register("orders", make_orders())
        with pytest.raises(SchemaError):
            db.register_stream("orders", make_orders())
        db.create_view("v", "SELECT uid FROM orders")
        with pytest.raises(SchemaError):
            db.register_stream("v", make_orders())

    def test_plain_table_reregistration_still_replaces(self):
        db = Database()
        db.register("t", make_orders())
        db.register("t", make_users())
        assert db.table("t").schema.names == ["uid", "country"]

    def test_projection_view_with_alias(self):
        db, orders, _users = self.make_db()
        v = db.create_view("ids", "SELECT oid AS id FROM orders")
        assert v.schema.names == ["id"]
        orders.insert_rows([(42, "u1", 1.0)])
        assert (42,) in bag(db.query("SELECT * FROM ids"))

    def test_where_join_group_by_view_matches_batch(self):
        db, orders, users = self.make_db()
        sql = ("SELECT country, COUNT(*) AS n, SUM(amount) AS total "
               "FROM orders JOIN users ON orders.uid = users.uid "
               "WHERE amount > 0 GROUP BY country")
        view = db.create_view("spend", sql)
        orders.insert_rows([(5, "u2", 100.0), (6, "u3", -1.0)])
        orders.delete_rows([(1, "u1", 10.0)])
        users.insert_rows([("u9", "JP")])
        # The optimizer substitutes the maintained view into the matching
        # ad-hoc query, so the batch oracle must run with optimizer=False.
        assert bag(view.table()) == bag(db.query(sql, optimizer=False))
        assert bag(db.query("SELECT * FROM spend")) == bag(
            db.query(sql, optimizer=False))
        assert "view_substitution" in db.explain(sql)
        assert bag(db.query(sql)) == bag(view.table())

    def test_order_by_limit_read_options(self):
        db, orders, _users = self.make_db()
        view = db.create_view(
            "top", "SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 2"
        )
        batch = db.query(
            "SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 2"
        )
        assert rows_of(view.table()) == rows_of(batch)

    def test_drop_view_detaches(self):
        db, orders, _users = self.make_db()
        view = db.create_view("v", "SELECT uid FROM orders")
        db.drop_view("v")
        with pytest.raises(SchemaError):
            db.view("v")
        before = bag(view.table())
        orders.insert_rows([(50, "u2", 2.0)])
        assert bag(view.table()) == before

    def test_view_over_unregistered_table_rejected(self):
        db, _o, _u = self.make_db()
        db.register("plain", make_orders())
        with pytest.raises(IvmError):
            db.create_view("v", "SELECT uid FROM plain")

    def test_global_aggregate_rejected(self):
        db, _o, _u = self.make_db()
        with pytest.raises(IvmError):
            db.create_view("v", "SELECT COUNT(*) FROM orders")

    def test_bare_column_outside_group_by_rejected(self):
        db, _o, _u = self.make_db()
        with pytest.raises(IvmError):
            db.create_view(
                "v", "SELECT oid, SUM(amount) FROM orders GROUP BY uid"
            )

    def test_order_by_column_not_in_output_rejected(self):
        db, _o, _u = self.make_db()
        with pytest.raises(IvmError):
            db.create_view("v", "SELECT uid FROM orders ORDER BY amount")

    def test_errors_never_leave_partial_registration(self):
        db, orders, _u = self.make_db()
        with pytest.raises(IvmError):
            db.create_view("v", "SELECT uid FROM orders ORDER BY amount")
        assert "v" not in db.table_names()
        # the failed view must not stay attached to the stream
        orders.insert_rows([(60, "u2", 2.0)])


class TestTableDeltaFastPaths:
    def test_append_rows_equals_from_rows(self):
        t = make_orders()
        out = t.append_rows([(5, "u9", 1.5), (6, None, None)])
        expected = Table.from_rows(
            rows_of(t) + [(5, "u9", 1.5), (6, None, None)], schema=t.schema
        )
        assert rows_of(out) == rows_of(expected)
        assert out.schema == t.schema

    def test_append_rows_empty_is_cheap_copy(self):
        t = make_orders()
        out = t.append_rows([])
        assert rows_of(out) == rows_of(t)

    def test_append_rows_validates_new_rows(self):
        t = make_orders()
        with pytest.raises(SchemaError):
            t.append_rows([(1, "u1")])            # arity
        with pytest.raises(SchemaError):
            t.append_rows([("x", "u1", 1.0)])     # dtype

    def test_join_indices_reproduces_join(self):
        left, right = make_orders(), make_users()
        lt, rt, out_schema, kept = left.join_indices(right, on="uid")
        batch = left.join(right, on="uid")
        assert out_schema == batch.schema
        rebuilt = [
            tuple(list(left.rows())[i]) + tuple(
                list(right.rows())[j][k] for k in kept
            )
            for i, j in zip(lt.tolist(), rt.tolist())
        ]
        assert sorted(rebuilt) == sorted(rows_of(batch))

    def test_row_codes_equal_rows_share_codes(self):
        t = Table.from_rows(
            [(1, None), (1, None), (2, "x")],
            schema=[("a", "int"), ("b", "str")],
        )
        codes = t.row_codes()
        assert codes[0] == codes[1] != codes[2]

    def test_row_codes_requires_columns(self):
        with pytest.raises(SchemaError):
            Table.empty(Schema([])).row_codes()

    def test_slice_clamps_like_python(self):
        t = make_orders()
        assert rows_of(t.slice(1, 3)) == rows_of(t)[1:3]
        assert rows_of(t.slice(2)) == rows_of(t)[2:]
        assert rows_of(t.slice(10)) == []

    def test_columns_round_trip_through_from_columns(self):
        t = make_orders()
        rebuilt = Table.from_columns(t.schema, t.columns())
        assert rows_of(rebuilt) == rows_of(t)


class TestNanKeys:
    """A NaN key is one key on every engine: the numpy kernels, their
    row twins, SQL, incremental views and stream deletes all match NaN
    to NaN, whatever the delta size."""

    @pytest.mark.parametrize("delta", [2, 300])
    def test_nan_is_one_key_on_every_engine(self, delta):
        nan = float("nan")
        schema = Schema([("k", "float"), ("x", "int")])
        rows = [(nan if i % 3 < 2 else 1.0, i) for i in range(300)]
        table = Table.from_rows(rows, schema=schema)
        right = Table.from_rows([(nan, 10), (1.0, 20)],
                                schema=Schema([("k", "float"),
                                               ("y", "int")]))
        specs = [("sum", "x", "s"), ("count_star", None, "n")]
        on = [("k", "k")]

        db = Database()
        live = db.register_stream("t", schema)
        db.register_stream("r", right)
        grouped = db.create_view(
            "g", "select k, sum(x) as s, count(*) as n from t group by k")
        joined = db.create_view("j", "select k, x, y from t join r on k = k")
        for start in range(0, len(rows), delta):
            live.insert_rows(rows[start:start + delta])
        live.delete_rows([(float("nan"), 0), (float("nan"), 1)])

        table = live.snapshot()
        assert table.num_rows == 298
        groups = table.group_by(["k"], specs)
        assert groups.num_rows == 2
        assert bag(table.group_by_reference(["k"], specs)) == bag(groups)
        assert bag(grouped.table()) == bag(groups)

        pairs = table.join(right, on=on)
        assert pairs.num_rows == 298
        assert bag(table.join_reference(right, on=on)) == bag(pairs)
        assert bag(joined.table()) == bag(pairs)
        sql = Database({"t": table, "r": right})
        for optimizer in (True, False):
            assert bag(sql.query("select k, x, y from t join r on k = k",
                                 optimizer=optimizer)) == bag(pairs)
