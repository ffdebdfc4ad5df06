"""Template plan cache: a query that differs from an earlier one only in
its literals reuses that one's optimized plan.

Every answer a cache hit gives is checked against the naive executor
(``optimizer=False``, never cached) byte for byte.  Random queries and
their literal-redrawn siblings run in tests/test_sql_differential.py.
"""

import random
from collections import Counter

import pytest

from repro.obs import metrics, tracing
from repro.serving import Server, SqlBackend
from repro.sql import Database, engine, plancache
from repro.sql import plan as plan_ir
from repro.table import Table
from repro.table.storage import encode_table
from tests.test_sql_differential import _sqlite_db
from tests.test_sql_optimizer import make_db, rows_of


def statuses() -> list[str]:
    """``plan_cache`` of every finished ``sql.query`` span, oldest first."""
    return [span.attributes["plan_cache"]
            for root in tracing.get_tracer().roots()
            for span in root.walk() if span.name == "sql.query"]


def last_status() -> str:
    return statuses()[-1]


def assert_matches_naive(db, sql):
    """The cached path's answer is the naive executor's, byte for byte."""
    got = db.query(sql)
    naive = db.query(sql, optimizer=False)
    assert got.schema == naive.schema, sql
    assert encode_table(got) == encode_table(naive), sql
    return got


def count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# -- targeted cases ------------------------------------------------------------


class TestTemplates:
    def test_computed_column_follows_its_literal(self):
        db = make_db()
        one = assert_matches_naive(db, "select amount + 1 from orders")
        two = assert_matches_naive(db, "select amount + 2 from orders")
        assert statuses()[::2] == ["miss", "hit"]
        assert one.schema == two.schema
        assert [r[0] + 1 for r in rows_of(one) if r[0] is not None] == [
            r[0] for r in rows_of(two) if r[0] is not None]

    def test_a_hit_skips_parse_compile_and_optimize(self, monkeypatch):
        db = make_db()
        parses = count_calls(monkeypatch, engine, "parse_sql")
        compiles = count_calls(monkeypatch, plan_ir, "compile_query")
        optimizes = count_calls(monkeypatch, engine, "optimize")
        binds = count_calls(monkeypatch, engine, "bind")
        for key in range(100):
            rows = rows_of(db.query(
                f"select o_id, amount from orders where o_id = {key}"))
            assert rows == ([(key, rows[0][1])] if key < 12 else [])
        assert (len(parses), len(compiles), len(optimizes)) == (1, 1, 1)
        assert len(binds) == 100
        assert statuses() == ["miss"] + ["hit"] * 99
        assert metrics.counter("sql.plan_cache.hit").value == 99
        assert metrics.counter("sql.plan_cache.miss").value == 1

    def test_number_type_and_range_split_templates(self):
        db = make_db()
        expected = [
            ("o_id = 3", [(3,)], "miss", True),
            ("o_id = 4", [(4,)], "hit", True),
            ("o_id = 3.0", [(3,)], "miss", True),
            ("o_id = 3.5", [], "hit", True),
            (f"o_id = {2 ** 70}", [], "miss", False),
            (f"o_id = {2 ** 70 + 1}", [], "miss", False),
            ("o_id = -5", [], "miss", True),
            ("o_id = -7", [], "hit", True),
        ]
        for where, rows, status, probed in expected:
            sql = f"select o_id from orders where {where}"
            got = assert_matches_naive(db, sql)
            assert rows_of(got) == rows, sql
            assert statuses()[-2] == status, sql
            assert ("[columnar[index]]" in db.explain(sql)) == probed, sql

    def test_limit_number_stays_in_the_key(self):
        db = make_db()
        three = assert_matches_naive(db, "select o_id from orders limit 3")
        five = assert_matches_naive(db, "select o_id from orders limit 5")
        assert (three.num_rows, five.num_rows) == (3, 5)
        assert statuses()[-2] == "miss"

    def test_folded_slots_are_never_reused(self):
        db = make_db()
        first = assert_matches_naive(
            db, "select o_id from orders where o_id = 1 + 2")
        second = assert_matches_naive(
            db, "select o_id from orders where o_id = 1 + 3")
        assert (rows_of(first), rows_of(second)) == ([(3,)], [(4,)])
        assert statuses()[::2] == ["miss", "bypass"]

    @pytest.mark.parametrize("sqls", [
        ["select o_id from orders where cust in (1, 2)",
         "select o_id from orders where cust in (3, 4)",
         "select o_id from orders where status not in ('gold', 'new')",
         "select o_id from orders where status not in ('vip', 'zz')"],
        ["select o_id from orders where amount between 2 and 6",
         "select o_id from orders where amount between 5 and 9",
         "select o_id from orders where o_id + 1 between 3 and 4",
         "select o_id from orders where o_id + 2 between 3 and 4"],
    ])
    def test_in_and_between_siblings(self, sqls):
        tables = {name: make_db().table(name) for name in ("orders",)}
        db = Database(tables)
        conn = _sqlite_db(tables)
        for sql in sqls:
            got = assert_matches_naive(db, sql)
            assert Counter(rows_of(got)) == Counter(
                conn.execute(sql).fetchall()), sql
        assert statuses()[::2] == ["miss", "hit", "miss", "hit"]


class TestInvalidation:
    SQL = "select o_id, amount from orders where o_id = {}"

    def test_register_replaces_rows_and_dtypes(self):
        db = make_db()
        assert_matches_naive(db, self.SQL.format(1))
        db.register("orders", Table.from_dict({
            "o_id": [1, 2], "amount": [10.0, 20.0]}))
        got = assert_matches_naive(db, self.SQL.format(2))
        assert rows_of(got) == [(2, 20.0)]
        assert statuses()[-2] == "miss"
        # An int key column turned float: the probe and dtypes follow.
        db.register("orders", Table.from_dict({
            "o_id": [1.0, 2.5], "amount": [10.0, 20.0]}))
        got = assert_matches_naive(db, self.SQL.format(1))
        assert rows_of(got) == [(1.0, 10.0)]
        assert got.schema.dtype_of("o_id") == "float"
        assert statuses()[-2] == "miss"

    @pytest.mark.parametrize("change", ["register_stream", "create_view",
                                        "drop_view"])
    def test_catalog_changes_empty_the_cache(self, change):
        db = make_db()
        db.register_stream("live", make_db().table("customers"))
        db.create_view("v0", "select cust, country from live")
        assert_matches_naive(db, self.SQL.format(1))
        assert_matches_naive(db, self.SQL.format(2))
        assert statuses()[-2] == "hit"
        if change == "register_stream":
            db.register_stream("more", make_db().table("products"))
        elif change == "create_view":
            db.create_view("v1", "select cust from live")
        else:
            db.drop_view("v0")
        assert_matches_naive(db, self.SQL.format(3))
        assert statuses()[-2] == "miss"

    def test_stream_and_view_reads_hit_and_see_every_push(self):
        db = Database()
        live = db.register_stream("live", make_db().table("orders"))
        db.create_view("big", "select o_id, amount from live "
                       "where amount > 5")
        for i in range(4):
            live.insert_rows([(100 + i, 1, 10, 50.0 + i, "gold")])
            for sql in (f"select o_id from live where o_id = {100 + i}",
                        f"select o_id from big where o_id = {100 + i}"):
                got = assert_matches_naive(db, sql)
                assert rows_of(got) == [(100 + i,)], sql
                assert statuses()[-2] == ("miss" if i == 0 else "hit"), sql
        live.delete_rows([(102, 1, 10, 52.0, "gold")])
        for name in ("live", "big"):
            sql = f"select o_id from {name} where o_id = 102"
            assert rows_of(assert_matches_naive(db, sql)) == [], sql
            assert statuses()[-2] == "hit", sql

    def test_stream_stats_read_by_reorder_block_reuse(self):
        """Join reordering is exact only while every joined key is unique,
        which it reads from stats: a plan reordered on a stream's stats is
        planned again on every call, and stays exact once a push makes
        the keys non-unique."""
        base = make_db()
        db = Database()
        streams = {name: db.register_stream(name, base.table(name))
                   for name in ("orders", "customers", "products")}
        sql = ("select o_id, country, category from orders "
               "join customers on cust = cust join products on prod = p_id "
               "where category = 'tools'")
        assert "join_reorder" in db.explain(sql)
        assert "plan cache: not reused (stats read from stream customers, " \
            "stream products)" in db.explain(sql)
        assert_matches_naive(db, sql)
        streams["customers"].insert_rows([(1, "de", "c")])
        streams["products"].insert_rows([(10, "tools")])
        got = assert_matches_naive(db, sql)
        assert rows_of(got)[:4] == [(0, "jp", "tools"), (0, "jp", "tools"),
                                    (0, "de", "tools"), (0, "de", "tools")]
        assert statuses()[::2] == ["miss", "bypass"]
        # Bailing out on a non-unique key read stats too.
        text = db.explain(sql)
        assert "join_reorder" not in text
        assert text.endswith("plan cache: not reused "
                             "(stats read from stream customers)")

    def test_explain_gives_the_verdict(self):
        db = make_db()
        db.register_stream("live", db.table("customers"))
        verdicts = {
            "select o_id from orders where o_id = 3": "reusable",
            "select cust from live where country = 'jp'": "reusable",
            "select o_id from orders where o_id = 1 + 2":
                "not reused (a slot was folded or substituted away)",
        }
        for sql, verdict in verdicts.items():
            assert f"\nplan cache: {verdict}" in db.explain(sql), sql

    def test_more_templates_than_capacity(self):
        db = make_db()
        sqls = [f"select o_id from orders where o_id < 5 limit {n}"
                for n in range(plancache.CAPACITY + 10)]
        for n, sql in enumerate(sqls):
            assert rows_of(db.query(sql)) == [(i,) for i in range(min(n, 5))]
        assert len(db._plans) == plancache.CAPACITY
        db.query(sqls[-1].replace("< 5", "< 4"))
        assert last_status() == "hit"
        db.query(sqls[0].replace("< 5", "< 4"))
        assert last_status() == "miss"


# -- served and concurrent queries ---------------------------------------------


class TestConcurrentAndServed:
    def test_served_lookups_parse_once(self, monkeypatch):
        db = make_db()
        parses = count_calls(monkeypatch, engine, "parse_sql")
        server = Server(workers=0)
        server.register(SqlBackend(db))
        for key in range(50):
            response = server.call(
                "sql", f"select o_id, status from orders where o_id = {key}")
            assert response.ok, response.error
            assert [r[0] for r in rows_of(response.value)] == (
                [key] if key < 12 else [])
        assert len(parses) == 1
        assert statuses() == ["hit"] * 50

    def test_served_view_reads_hit_but_are_not_result_cached(self):
        db = Database()
        live = db.register_stream("live", make_db().table("orders"))
        db.create_view("by_status", "select status, count(*) as n, "
                       "sum(amount) as total from live group by status")
        backend = SqlBackend(db)
        server = Server(workers=0)
        server.register(backend)
        sql = "select status, n from by_status where total > {} order by n"
        for i in range(3):
            live.insert_rows([(100 + i, 1, 10, 50.0, "vip")])
            for threshold in (1, 1, 2):
                text = sql.format(threshold)
                assert backend.cache_key(text) is None
                response = server.call("sql", text)
                assert response.ok, response.error
                assert not response.cache_hit
                naive = db.query(text, optimizer=False)
                assert encode_table(response.value) == encode_table(naive)
                assert ("vip", 3 + i) in rows_of(response.value)
        # cache_key planned the template once; every served read hits it.
        assert statuses()[::2] == ["hit"] * 9
        assert len(server.cache) == 0

    def test_concurrent_lookups(self):
        n = 2000
        orders = Table.from_dict({
            "o_id": list(range(n)),
            "amount": [i / 4.0 for i in range(n)],
        })
        customers = Table.from_dict({"o_id": list(range(0, n, 2)),
                                     "tag": [f"t{i}" for i in range(0, n, 2)]})
        db = Database({"orders": orders, "customers": customers})
        rng = random.Random(3)
        keys = rng.sample(range(n), 400)
        sqls = [f"select o_id, amount from orders where o_id = {key}"
                if i % 3 else
                f"select o_id, tag from orders join customers "
                f"on o_id = o_id where o_id = {key}"
                for i, key in enumerate(keys)]
        with Server(workers=2) as server:
            server.register(SqlBackend(db), max_depth=len(sqls))
            futures = [server.submit("sql", sql) for sql in sqls]
            responses = [future.result(30.0) for future in futures]
        for i, (key, response) in enumerate(zip(keys, responses)):
            assert response.ok, response.error
            expected = ([(key, key / 4.0)] if i % 3 else
                        [(key, f"t{key}")] if key % 2 == 0 else [])
            assert rows_of(response.value) == expected, sqls[i]
        assert statuses().count("hit") == 400

    def test_threads_share_the_cache_across_catalog_changes(self):
        """More threads than cores, a short switch interval, and a thread
        re-registering an equal table: every answer stays right while
        templates are stored, hit and cleared concurrently."""
        import sys
        import threading

        n = 500
        rows = {"o_id": list(range(n)), "amount": [i / 4.0 for i in range(n)]}
        db = Database({"orders": Table.from_dict(rows)})
        wrong: list[str] = []
        done = threading.Event()

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(150):
                key = rng.randrange(n + 20)
                shape = rng.randrange(3)
                if shape == 0:
                    sql = f"select amount from orders where o_id = {key}"
                    expected = [(key / 4.0,)] if key < n else []
                elif shape == 1:
                    sql = (f"select o_id from orders where o_id = {key} "
                           f"and amount > {key / 4.0 - 1}")
                    expected = [(key,)] if key < n else []
                else:
                    sql = (f"select count(*) as c from orders "
                           f"where o_id between {key} and {key + 9}")
                    expected = [(max(0, min(n, key + 10) - key),)]
                got = rows_of(db.query(sql))
                if got != expected:
                    wrong.append(sql)

        def writer():
            while not done.is_set():
                db.register("orders", Table.from_dict(rows))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader, args=(seed,))
                       for seed in range(4)]
            churn = threading.Thread(target=writer)
            for thread in readers + [churn]:
                thread.start()
            for thread in readers:
                thread.join(60.0)
            done.set()
            churn.join(60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in readers + [churn])
        assert wrong == []
        assert len(db._plans) <= 3
