"""The aggregate algebra (repro.table.aggregate) through every GROUP BY
engine: the batch kernel and its row twin, naive and optimized SQL, the
sharded partition-aligned and merge plans, and incremental views over
both fold paths.  One definition means one answer — including for int
sums past int64 and for the dtypes of empty and all-NULL results."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.ivm import StreamTable
from repro.shard import PartitionedTable, kernels
from repro.sql import Database
from repro.table import Schema, Table
from repro.table.aggregate import AGGREGATES

BIG = 2 ** 62
ROWS = [(1, BIG, 0), (1, BIG, 1), (2, 5, 2)]
SCHEMA = [("k", "int"), ("v", "int"), ("p", "int")]
AGGS = [("sum", "v", "s"), ("avg", "v", "m"), ("count", "v", "n")]
EXPECTED = {(1, 2 ** 63, float(BIG), 2), (2, 5, 5.0, 1)}


def bag(table: Table) -> Counter:
    return Counter(table.rows())


class TestExactIntSums:
    """SUM(v) for ``k = 1`` is 2**63 — one past int64 — everywhere."""

    def table(self) -> Table:
        return Table.from_rows(ROWS, schema=SCHEMA)

    def test_batch_kernels(self):
        table = self.table()
        for group in (Table.group_by, Table.group_by_reference):
            out = group(table, ["k"], AGGS)
            assert set(out.rows()) == EXPECTED
            assert out.schema == Schema(
                [("k", "int"), ("s", "int"), ("m", "float"), ("n", "int")])

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    @pytest.mark.parametrize("keys", [["k"], ["p"]])
    def test_shard_plans(self, num_shards, keys):
        # Partitioned on k: per-shard aggregation; on p: partial merge.
        ptable = PartitionedTable.partition(self.table(), keys=keys,
                                            num_shards=num_shards)
        assert set(kernels.group_by(ptable, ["k"], AGGS).rows()) == EXPECTED

    def test_sql(self):
        db = Database({"t": self.table()})
        sql = "select k, sum(v) as s, avg(v) as m, count(v) as n " \
              "from t group by k"
        for optimizer in (True, False):
            assert set(db.query(sql, optimizer=optimizer).rows()) == EXPECTED

    @pytest.mark.parametrize("filler", [0, 297])
    def test_incremental_view(self, filler):
        # 2- and 1-row deltas fold row at a time; a 300-row delta takes
        # the vectorized bulk fold.
        stream = StreamTable(SCHEMA, name="t")
        view = stream.view().group_by(["k"], AGGS).materialize("g")
        pad = [(100 + i, i, 0) for i in range(filler)]
        if filler:
            stream.insert_rows(ROWS + pad)
        else:
            stream.insert_rows(ROWS[:2])
            stream.insert_rows(ROWS[2:])
        got = {row for row in view.table().rows() if row[0] < 100}
        assert got == EXPECTED
        assert bag(view.table()) == bag(
            stream.snapshot().group_by(["k"], AGGS))
        stream.delete_rows([ROWS[0]] + pad[:100])
        assert (1, BIG, float(BIG), 1) in set(view.table().rows())


class TestOutputDtypes:
    """Empty and all-NULL results take the algebra's dtypes, on the row
    oracle as on the vectorized paths."""

    def database(self) -> Database:
        return Database({"t": Table.from_rows(
            [(1, None, None), (2, 2.5, "x")],
            schema=[("k", "int"), ("f", "float"), ("s", "str")])})

    @pytest.mark.parametrize("where", ["k > 5", "k = 1"])
    def test_sql_paths_agree(self, where):
        db = self.database()
        sql = (f"select k, sum(f) as a, avg(f) as b, min(f) as c, "
               f"max(s) as d, count(s) as e, count(*) as n "
               f"from t where {where} group by k")
        expected = Schema([("k", "int"), ("a", "float"), ("b", "float"),
                           ("c", "float"), ("d", "str"), ("e", "int"),
                           ("n", "int")])
        for optimizer in (True, False):
            assert db.query(sql, optimizer=optimizer).schema == expected

    def test_view_matches_batch_schema(self):
        db = Database()
        db.register_stream("t", self.database().table("t"))
        sql = ("select k, sum(f) as a, min(s) as b from t where k = 1 "
               "group by k")
        view = db.create_view("v", sql)
        for optimizer in (True, False):
            assert view.table().schema == db.query(
                sql, optimizer=optimizer).schema

    def test_dtype_rules(self):
        rules = {name: (fn.dtype("int"), fn.dtype("float"))
                 for name, fn in AGGREGATES.items()}
        assert rules == {
            "count": ("int", "int"), "count_star": ("int", "int"),
            "sum": ("int", "float"), "avg": ("float", "float"),
            "min": ("int", "float"), "max": ("int", "float"),
        }


def test_count_star_counts_null_rows():
    table = Table.from_rows([(1, None), (1, 2.0), (None, None)],
                            schema=[("k", "int"), ("v", "float")])
    aggs = [("count_star", None, "n"), ("count", "v", "c")]
    expected = {(1, 2, 1), (None, 1, 0)}
    assert set(table.group_by(["k"], aggs).rows()) == expected
    assert set(table.group_by_reference(["k"], aggs).rows()) == expected
    ptable = PartitionedTable.partition(table, keys=["v"], num_shards=2)
    assert set(kernels.group_by(ptable, ["k"], aggs).rows()) == expected
