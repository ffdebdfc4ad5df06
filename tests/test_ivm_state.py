"""The array state of repro.ivm: the ledger (rows + weights + a row-hash
index) that streams, group-by groups, distinct rows and view outputs
keep, its bounded history, exactness under hash collisions, and SQL
views compiled from the optimized plan.

The ledgers and the join traces find rows by a 64-bit content hash and
confirm every candidate by exact equality, so a collision may cost time
but never merges distinct rows.  The collision cases pin that by forcing
every row to one hash.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.errors import IvmError
from repro.ivm import IntegrateNode, StreamTable, operators, zset
from repro.sql import Database
from repro.table import Table

SCHEMA = [("k", "int"), ("v", "float"), ("tag", "str")]
DIMS = [("k", "int"), ("label", "str")]
#: No sums: the stream values include NaN, which a sum keeps until its
#: group's count returns to zero.
GROUP_AGGS = [("count", "v", "n"), ("count_star", None, "rows"),
              ("max", "v", "hi"), ("min", "v", "lo")]


def bag(table: Table) -> Counter:
    return Counter(table.rows())


def same_bag(a: Counter, b: Counter) -> bool:
    """Counter equality that also matches NaN to NaN and -0.0 to 0.0."""
    def canon(row):
        return tuple("nan" if isinstance(x, float) and math.isnan(x)
                     else (0.0 if x == 0.0 and isinstance(x, float) else x)
                     for x in row)
    return (Counter({canon(r): n for r, n in a.items()})
            == Counter({canon(r): n for r, n in b.items()}))


@pytest.fixture
def one_hash(monkeypatch):
    """Every row hashes to 0 in the ledger, the join traces and
    consolidation: the worst case of the hash index."""
    def constant(columns):
        return np.zeros(len(columns[0]), dtype=np.uint64)
    for module in (operators, zset):
        monkeypatch.setattr(module, "hash_rows", constant)


EDGE_ROWS = [
    (1, 1.5, "a"), (1, 1.5, "b"), (2, None, "a"), (None, 2.0, None),
    (3, float("nan"), "n"), (4, -0.0, "z"), (4, 0.0, "y"), (1, 1.5, "a"),
]


def build_views(facts: StreamTable, dims: StreamTable):
    joined = facts.view().join(dims, on="k").materialize("joined")
    grouped = facts.view().group_by(
        ["tag"], GROUP_AGGS).materialize("g")
    distinct = facts.view().distinct().materialize("d")
    return joined, grouped, distinct


def check_views(facts, dims, joined, grouped, distinct):
    snap = facts.snapshot()
    assert same_bag(bag(joined.table()),
                    bag(snap.join(dims.snapshot(), on="k")))
    assert same_bag(bag(grouped.table()),
                    bag(snap.group_by(["tag"], GROUP_AGGS)))
    assert same_bag(bag(distinct.table()), bag(snap.distinct()))


class TestCollisions:
    def test_edge_rows_stay_exact_under_one_hash(self, one_hash):
        facts = StreamTable(SCHEMA, name="facts")
        dims = StreamTable(Table.from_rows(
            [(1, "one"), (2, "two"), (4, "four"), (None, "null")],
            schema=DIMS), name="dims")
        views = build_views(facts, dims)
        facts.insert_rows(EDGE_ROWS)
        assert facts.num_rows == len(EDGE_ROWS)
        # (1, 1.5, "a") is stored once with weight 2.
        assert facts.physical_rows == len(EDGE_ROWS) - 1
        check_views(facts, dims, *views)

        # Deletes match NaN to NaN, -0.0 to 0.0 and NULL to NULL.
        facts.delete_rows([(3, float("nan"), "n"), (4, 0.0, "z"),
                           (None, 2.0, None), (1, 1.5, "a")])
        assert bag(facts.snapshot()) == Counter(
            [(1, 1.5, "a"), (1, 1.5, "b"), (2, None, "a"), (4, 0.0, "y")])
        check_views(facts, dims, *views)

        # Re-inserts land on the stored (or compressed-away) rows.
        facts.insert_rows([(3, float("nan"), "n"), (4, -0.0, "z")])
        dims.insert_rows([(3, "three")])
        check_views(facts, dims, *views)

    def test_absent_row_delete_raises_before_mutating(self, one_hash):
        facts = StreamTable(Table.from_rows(EDGE_ROWS, schema=SCHEMA),
                            name="facts")
        dims = StreamTable(DIMS, name="dims")
        views = build_views(facts, dims)
        before = [bag(v.table()) for v in views]
        snap = bag(facts.snapshot())
        # Same hash as everything, equal to no stored row: (1, 1.5, "c"),
        # and one copy too many of (1, 1.5, "b").
        for rows in ([(1, 1.5, "c")], [(1, 1.5, "b"), (1, 1.5, "b")],
                     [(4, 0.0, "z"), (4, 0.0, "z")]):
            with pytest.raises(IvmError, match="negative multiplicity"):
                facts.delete_rows(rows)
            assert bag(facts.snapshot()) == snap
            assert [bag(v.table()) for v in views] == before

    def test_random_churn_matches_unhashed_stream(self, monkeypatch):
        rng = random.Random(7)
        batches = []
        live: Counter = Counter()
        for _ in range(60):
            if live and rng.random() < 0.4:
                rows = rng.sample(list(live.elements()),
                                  k=min(3, sum(live.values())))
                batches.append(("delete", rows))
                live.subtract(rows)
                live += Counter()
            else:
                rows = [(rng.choice([None, 0, 1, 2]),
                         rng.choice([None, -0.0, 0.0, 0.5, float("nan")]),
                         rng.choice([None, "x", "y"]))
                        for _ in range(rng.randint(1, 4))]
                batches.append(("insert", rows))
                live.update(rows)

        def replay():
            facts = StreamTable(SCHEMA, name="facts")
            dims = StreamTable(Table.from_rows([(0, "a"), (1, "b")],
                                               schema=DIMS), name="dims")
            views = build_views(facts, dims)
            for kind, rows in batches:
                getattr(facts, f"{kind}_rows")(rows)
                check_views(facts, dims, *views)
            return bag(facts.snapshot())

        plain = replay()
        for module in (operators, zset):
            monkeypatch.setattr(
                module, "hash_rows",
                lambda columns: np.zeros(len(columns[0]), dtype=np.uint64))
        assert same_bag(replay(), plain)


class TestLedger:
    def test_register_stream_with_duplicate_rows(self):
        rows = [(1, 2.0, "a"), (1, 2.0, "a"), (2, None, "b"),
                (1, 2.0, "a"), (2, None, "b"), (3, 0.5, None)]
        db = Database()
        stream = db.register_stream("s", Table.from_rows(rows,
                                                         schema=SCHEMA))
        assert stream.num_rows == 6
        assert stream.physical_rows == 3
        assert bag(stream.snapshot()) == Counter(rows)
        assert bag(db.query("SELECT * FROM s")) == Counter(rows)
        stream.delete_rows([(1, 2.0, "a"), (2, None, "b")])
        assert stream.num_rows == 4
        with pytest.raises(IvmError):
            stream.delete_rows([(2, None, "b")] * 2)
        assert bag(stream.snapshot()) == Counter(
            [(1, 2.0, "a"), (1, 2.0, "a"), (2, None, "b"), (3, 0.5, None)])

    def test_history_is_bounded(self):
        obs.reset()
        rng = np.random.default_rng(3)
        start = [(int(i), float(i) / 4, f"t{i % 7}") for i in range(2000)]
        stream = StreamTable(Table.from_rows(start, schema=SCHEMA))
        live = list(start)
        next_k = 2000
        push = 50
        for _ in range(300):
            gone = rng.choice(len(live), push, replace=False)
            deletes = [live[i] for i in gone]
            inserts = [(next_k + j, float(j), "new") for j in range(push)]
            next_k += push
            for slot, row in zip(gone.tolist(), inserts):
                live[slot] = row
            stream.insert_rows(inserts)
            stream.delete_rows(deletes)
            assert stream.physical_rows <= 2 * len(live) + push
        assert stream.num_rows == len(live)
        assert bag(stream.snapshot()) == Counter(live)
        assert obs.metrics.counter("ivm.stream.compactions").value > 0

    def test_snapshot_after_pushes_factorizes_nothing(self, monkeypatch):
        stream = StreamTable(Table.from_rows(
            [(i % 50, i / 2, "x") for i in range(500)], schema=SCHEMA))
        db = Database()
        db.register_stream("s", stream)
        stream.insert_rows([(1, 0.0, "y")])
        stream.delete_rows([(2, 1.0, "x")])
        calls = []
        original = Table.row_codes
        monkeypatch.setattr(Table, "row_codes",
                            lambda self: calls.append(1) or original(self))
        snap = stream.snapshot()
        assert snap.num_rows == 500
        assert db.query("SELECT k, v FROM s").num_rows == 500
        assert calls == []


class TestOptimizedViews:
    def make_db(self):
        db = Database()
        db.register_stream("t", Table.from_rows(
            [(1, "a", 10, "keep"), (2, "b", 20, "drop"), (3, None, 30, "keep"),
             (2, "c", 40, "keep")],
            names=["k", "name", "x", "status"]))
        db.register_stream("r", Table.from_rows(
            [(1, "A", 5), (2, "B", 6), (2, "C", 7)],
            names=["k2", "name", "y"]))
        return db

    @pytest.mark.parametrize("sql", [
        "SELECT k, name_r FROM t JOIN r ON k = k2",
        "SELECT name_r, SUM(x) AS s FROM t JOIN r ON k = k2 "
        "WHERE y > 5 GROUP BY name_r",
        "SELECT * FROM t JOIN r ON k = k2 WHERE name_r <> 'C'",
        "SELECT k, name_r, y FROM t JOIN r ON k = k2 "
        "WHERE status <> 'drop' ORDER BY y",
    ])
    def test_clashing_names_follow_the_plan(self, sql):
        db = self.make_db()
        v = db.create_view("v", sql)
        batch = db.query(sql)
        assert v.schema.names == batch.schema.names
        assert bag(v.table()) == bag(batch)
        db.stream("t").insert_rows([(1, "d", 50, "keep")])
        db.stream("r").delete_rows([(2, "B", 6)])
        db.stream("r").insert_rows([(3, "D", 9)])
        batch = db.query(sql)
        assert bag(v.table()) == bag(batch)

    def test_filter_runs_below_join_and_trace_keeps_used_columns(self):
        db = self.make_db()
        v = db.create_view(
            "v", "SELECT name_r, SUM(x) AS s FROM t JOIN r ON k = k2 "
                 "WHERE status <> 'drop' GROUP BY name_r")
        lines = v.explain().splitlines()
        join = next(i for i, line in enumerate(lines) if "join" in line)
        below = "\n".join(lines[join + 1:])
        assert "project k, x" in below
        assert "filter" in below
        # the left trace holds the 3 rows that pass the filter
        assert "left trace: 0 consolidated + 3 pending rows" in lines[join]

    def test_view_fingerprint_still_substitutes(self):
        db = self.make_db()
        sql = ("SELECT name_r, SUM(x) AS s FROM t JOIN r ON k = k2 "
               "WHERE status <> 'drop' GROUP BY name_r")
        db.create_view("v", sql)
        assert "view_substitution" in db.explain(sql)


def churn(rng: random.Random, stream: StreamTable, live: Counter,
          make_row, steps: int):
    """``steps`` random pushes (inserts, deletes of live rows, sometimes
    every live row), yielding after each."""
    for _ in range(steps):
        if live and rng.random() < 0.45:
            rows = list(live.elements())
            if rng.random() > 0.1:
                rows = rng.sample(rows, k=rng.randint(1, len(rows)))
            stream.delete_rows(rows)
            live.subtract(rows)
            live += Counter()
        else:
            rows = [make_row(rng) for _ in range(rng.randint(1, 6))]
            stream.insert_rows(rows)
            live.update(rows)
        yield


def random_row(rng: random.Random) -> tuple:
    return (rng.choice([None, 0, 1, 2, 3, 4, 5]),
            rng.choice([None, -0.0, 0.0, 0.5, -1.25, float("nan")]),
            rng.choice([None, "x", "y", "z"]))


class TestLedgerOwners:
    def test_max_min_follow_batch_through_a_nan(self):
        aggs = [("max", "v", "hi"), ("min", "v", "lo")]
        stream = StreamTable(SCHEMA, name="s")
        view = stream.view().group_by(["tag"], aggs).materialize("x")
        nan = float("nan")
        for kind, row in [("insert", (1, 0.5, "y")), ("insert", (2, nan, "y")),
                          ("delete", (2, nan, "y")), ("insert", (2, nan, "y"))]:
            getattr(stream, f"{kind}_rows")([row])
            batch = stream.snapshot().group_by(["tag"], aggs)
            assert same_bag(bag(view.table()), bag(batch))
        (_tag, hi, lo), = view.table().rows()
        assert hi != hi and lo != lo

    def test_reborn_group_starts_fresh_around_compaction(self):
        aggs = [("sum", "v", "total"), ("avg", "v", "mean"),
                ("max", "v", "hi"), ("count_star", None, "rows")]
        stream = StreamTable(SCHEMA, name="s")
        view = stream.view().group_by(["tag"], aggs).materialize("x")

        def check():
            batch = stream.snapshot().group_by(["tag"], aggs)
            assert bag(view.table()) == bag(batch)

        # 0.1 + 0.2 - 0.1 - 0.2 leaves float residue in a running sum.
        stream.insert_rows([(1, 0.1, "a"), (2, 0.2, "a"), (3, 0.3, "b"),
                            (4, 0.1, "c"), (5, 0.1, "d")])
        stream.delete_rows([(1, 0.1, "a")])
        stream.delete_rows([(2, 0.2, "a")])
        check()
        # Reborn while its dead slot is still stored: 1 of 4 groups dead.
        stream.insert_rows([(6, 0.5, "a")])
        check()
        assert ("a", 0.5, 0.5, 0.5, 1) in bag(view.table())
        # Kill three groups, so the dead ones reach half the group slots
        # and the ledger compacts; then bring each back.
        stream.delete_rows([(6, 0.5, "a"), (4, 0.1, "c"), (5, 0.1, "d")])
        check()
        stream.insert_rows([(7, 0.25, "a"), (8, 0.75, "c"), (9, 0.1, "d")])
        check()
        assert ("a", 0.25, 0.25, 0.25, 1) in bag(view.table())

    def test_keyless_group_by_under_churn(self):
        aggs = [("count_star", None, "rows"), ("count", "v", "n"),
                ("max", "v", "hi"), ("min", "v", "lo")]
        rng = random.Random(11)
        stream = StreamTable(SCHEMA, name="s")
        view = stream.view().group_by([], aggs).materialize("all")
        seen_empty = False
        for _ in churn(rng, stream, Counter(), random_row, 60):
            batch = stream.snapshot().group_by([], aggs)
            assert same_bag(bag(view.table()), bag(batch))
            seen_empty |= stream.num_rows == 0
        assert seen_empty             # the one group died and came back

    def test_view_output_survives_its_compaction(self):
        rng = random.Random(12)
        stream = StreamTable(SCHEMA, name="s")
        view = stream.view().project(["k", "v"]).materialize("p")
        sizes = []
        for _ in churn(rng, stream, Counter(), random_row, 80):
            batch = stream.snapshot().project(["k", "v"])
            assert same_bag(bag(view.table()), bag(batch))
            sizes.append(len(view.root._rows))
        assert min(sizes[sizes.index(max(sizes)):]) < max(sizes)

    def test_only_scan_and_join_rooted_views_integrate(self):
        """Group-by and distinct views read their output from the node
        that holds it; a view whose root reaches a scan or a join through
        linear nodes alone is rooted at an integrate node."""
        rng = random.Random(14)
        stream = StreamTable(SCHEMA, name="s")
        dims = StreamTable(Table.from_rows([(k, f"d{k}") for k in range(4)],
                                           schema=DIMS), name="d")
        base = stream.view()
        pairs = [  # (view, batch over the stream's snapshot, integrates)
            (base.group_by(["tag"], GROUP_AGGS),
             lambda t: t.group_by(["tag"], GROUP_AGGS), False),
            (base.group_by(["k", "tag"], GROUP_AGGS).project(["tag", "n"]),
             lambda t: t.group_by(["k", "tag"], GROUP_AGGS
                                  ).project(["tag", "n"]), False),
            (base.project(["k", "tag"]).distinct(),
             lambda t: t.project(["k", "tag"]).distinct(), False),
            (base.project(["k", "v"]),
             lambda t: t.project(["k", "v"]), True),
            (base.join(dims, on="k").project(["label", "tag"]),
             lambda t: t.join(dims.snapshot(), on="k"
                              ).project(["label", "tag"]), True),
            (base.project(["k", "tag"]).distinct().union(
                base.project(["k", "tag"])),
             lambda t: Table.concat([t.project(["k", "tag"]).distinct(),
                                     t.project(["k", "tag"])]), True),
        ]
        views = [(b.materialize(f"v{i}"), batch, integrates)
                 for i, (b, batch, integrates) in enumerate(pairs)]
        live = Counter()

        def check():
            snap = stream.snapshot()
            for view, batch, integrates in views:
                assert isinstance(view.root, IntegrateNode) == integrates
                below = view.explain().splitlines()[1:]
                assert (below[0].lstrip().startswith("integrate (")
                        == integrates)
                assert sum("integrate" in line for line in below) == \
                    integrates
                assert same_bag(bag(view.table()), bag(batch(snap)))

        check()
        for _ in churn(rng, stream, live, random_row, 40):
            check()
        # Every row gone: each ledger is all zero weights and compacts.
        stream.delete_rows(list(live.elements()))
        check()
        grouped, distinct = views[0][0].root, views[2][0].root
        assert len(grouped._groups) == len(distinct._rows) == 0
        assert all(len(view.root._rows) == 0 for view, _, integrates
                   in views if integrates)
        stream.insert_rows([random_row(rng) for _ in range(6)])
        check()

    def test_distinct_and_group_by_under_one_hash(self, one_hash):
        rng = random.Random(13)
        stream = StreamTable(SCHEMA, name="s")
        grouped = stream.view().group_by(["k", "tag"],
                                         GROUP_AGGS).materialize("g")
        distinct = stream.view().project(["k", "v"]).distinct(
        ).materialize("d")
        for _ in churn(rng, stream, Counter(), random_row, 80):
            snap = stream.snapshot()
            assert same_bag(bag(grouped.table()),
                            bag(snap.group_by(["k", "tag"], GROUP_AGGS)))
            assert same_bag(bag(distinct.table()),
                            bag(snap.project(["k", "v"]).distinct()))
