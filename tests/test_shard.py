"""repro.shard units: content hashing, partitioners, PartitionedTable
construction (null masks and dtypes preserved exactly), ShardIndex,
spill round-trips, and SQL served over a partitioned table."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs, resilience
from repro.errors import SchemaError, ShardError
from repro.par import ParallelMap
from repro.serving import SqlBackend
from repro.shard import (
    HashPartitioner,
    MemoryShard,
    PartitionedTable,
    RangePartitioner,
    ShardIndex,
    ShardStore,
    choose_partitioner,
    hash_column,
    hash_rows,
    kernels,
    partitioner_from_dict,
)
from repro.shard.partition import NULL_HASH
from repro.shard.spill import SpilledShard
from repro.sql import Database
from repro.table import Column, Table, row_codes
from repro.table.storage import TABLE_SUFFIX, content_hash


@pytest.fixture(autouse=True)
def _reset_state():
    obs.reset()
    resilience.reset()
    yield


def _col(values, dtype):
    return Table.from_dict({"c": values}).columns()[0] if dtype is None else \
        Table.from_rows([(v,) for v in values],
                        schema=[("c", dtype)]).columns()[0]


def assert_same_rows(a: Table, b: Table):
    """Canonical (order-insensitive) row-multiset equality."""
    assert a.schema.names == b.schema.names
    assert [f.dtype for f in a.schema] == [f.dtype for f in b.schema]
    assert a.num_rows == b.num_rows
    if a.num_rows == 0:
        return
    both = kernels.concat_tables(a.schema, [a, b])
    codes = row_codes(list(both.columns()))
    n = a.num_rows
    assert sorted(codes[:n].tolist()) == sorted(codes[n:].tolist())


@pytest.fixture
def orders():
    rng = np.random.default_rng(11)
    n = 300
    return Table.from_dict({
        "customer": [f"c{int(i)}" if i >= 0 else None
                     for i in rng.integers(-1, 40, n)],
        "region": rng.integers(0, 5, n).tolist(),
        "amount": (rng.integers(0, 400, n) / 4.0).tolist(),  # dyadic
    })


class TestContentHashing:
    def test_deterministic_across_builds(self):
        a = _col(["x", None, "yy"], "str")
        b = _col(["x", None, "yy"], "str")
        assert np.array_equal(hash_column(a), hash_column(b))

    def test_int_and_integral_float_co_locate(self):
        ints = _col([2, 3, -7], "int")
        floats = _col([2.0, 3.0, -7.0], "float")
        assert np.array_equal(hash_column(ints), hash_column(floats))

    def test_negative_zero_collapses(self):
        col = _col([0.0, -0.0], "float")
        h = hash_column(col)
        assert h[0] == h[1]

    def test_nulls_hash_to_the_null_bucket(self):
        col = _col([1, None, 3], "int")
        assert hash_column(col)[1] == NULL_HASH

    def test_nan_and_inf_are_stable(self):
        col = _col([float("nan"), float("inf"), float("-inf")], "float")
        again = _col([float("nan"), float("inf"), float("-inf")], "float")
        assert np.array_equal(hash_column(col), hash_column(again))
        assert len(set(hash_column(col).tolist())) == 3

    def test_oversized_ints_hash_via_object_path(self):
        col = _col([2 ** 70, 2 ** 70, 5], "int")
        h = hash_column(col)
        assert h[0] == h[1] != h[2]

    def test_hash_rows_needs_a_key(self):
        with pytest.raises(ShardError):
            hash_rows([])


class TestPartitioners:
    def test_hash_assign_in_range_and_deterministic(self, orders):
        p = HashPartitioner(("customer",), 7)
        ids = p.assign(orders)
        assert ids.dtype == np.int64
        assert ids.min() >= 0 and ids.max() < 7
        assert np.array_equal(ids, p.assign(orders))

    def test_equal_keys_land_in_equal_shards_across_tables(self):
        p = HashPartitioner(("k",), 5)
        a = Table.from_dict({"k": ["x", "y", None], "v": [1, 2, 3]})
        b = Table.from_dict({"v": [9, 9, 9], "k": ["x", "y", None]})
        assert np.array_equal(p.assign(a), p.assign(b))

    def test_hash_partitioner_validation(self):
        with pytest.raises(ShardError):
            HashPartitioner(("k",), 0)
        with pytest.raises(ShardError):
            HashPartitioner((), 4)

    def test_range_bounds_from_quantiles(self):
        t = Table.from_dict({"x": list(range(100))})
        p = RangePartitioner.from_table(t, "x", 4)
        assert p.num_shards == 4
        assert len(p.bounds) == 3
        ids = p.assign(t)
        counts = np.bincount(ids, minlength=4)
        assert counts.min() >= 20  # quantiles spread evenly

    def test_range_nulls_and_nans_go_to_shard_zero(self):
        t = Table.from_dict({"x": [None, float("nan"), 50.0, 99.0]})
        p = RangePartitioner(key="x", bounds=(10.0, 60.0))
        assert p.assign(t).tolist() == [0, 0, 1, 2]

    def test_range_rejects_non_numeric_and_bad_bounds(self):
        t = Table.from_dict({"s": ["a", "b"]})
        with pytest.raises(ShardError):
            RangePartitioner.from_table(t, "s", 2)
        with pytest.raises(ShardError):
            RangePartitioner(key="x", bounds=(5.0, 1.0))

    def test_round_trip_through_dict(self):
        for p in (HashPartitioner(("a", "b"), 6),
                  RangePartitioner(key="x", bounds=(1.0, 2.5))):
            clone = partitioner_from_dict(p.to_dict())
            assert clone == p
        with pytest.raises(ShardError):
            partitioner_from_dict({"kind": "voronoi"})

    def test_choose_partitioner_policy(self, orders):
        # Spread-out single numeric key -> range.
        assert choose_partitioner(orders, ["amount"], 4).kind == "range"
        # String key, multi-key -> hash.
        assert choose_partitioner(orders, ["customer"], 4).kind == "hash"
        assert choose_partitioner(orders, ["region", "customer"],
                                  4).kind == "hash"
        # Too few distinct values for the shard count -> hash.
        assert choose_partitioner(orders, ["region"], 5).kind == "hash"


class TestPartitionedTable:
    def test_round_trip_preserves_rows(self, orders):
        pt = PartitionedTable.partition(
            orders, HashPartitioner(("customer",), 7))
        assert pt.num_rows == orders.num_rows
        assert pt.num_shards == 7
        assert_same_rows(pt.to_table(), orders)

    def test_rows_keep_original_order_within_shards(self):
        t = Table.from_dict({"k": [1, 2, 1, 2, 1], "i": [0, 1, 2, 3, 4]})
        pt = PartitionedTable.partition(t, HashPartitioner(("k",), 3))
        for shard in pt.shard_tables():
            seq = [r[1] for r in shard.rows()]
            assert seq == sorted(seq)

    def test_masks_and_dtypes_survive_exactly(self):
        t = Table.from_dict({
            "k": [1, None, 3, 4, None],
            "s": ["a", "b", None, "d", "e"],
            "f": [0.5, None, -0.0, 3.5, None],
            "big": [2 ** 70, 1, None, 2 ** 70 + 1, 0],
        })
        pt = PartitionedTable.partition(t, HashPartitioner(("k",), 3))
        for shard, original in zip(pt.shard_tables(), [t] * 3):
            for col, field in zip(shard.columns(), original.schema):
                assert col.dtype == field.dtype
                assert col.mask.dtype == bool
        back = pt.to_table()
        assert_same_rows(back, t)
        # Cell-exact: overflow ints stay objects, nulls stay masked.
        big = back.columns()[back.schema.index_of("big")]
        assert big.values.dtype == object
        assert sorted(v for v, m in zip(big.values.tolist(),
                                        big.mask.tolist()) if not m)[-1] \
            == 2 ** 70 + 1
        assert int(back.null_mask("s").sum()) == 1
        assert int(back.null_mask("f").sum()) == 2

    def test_partition_via_keys_and_num_shards(self, orders):
        pt = PartitionedTable.partition(orders, keys=["amount"],
                                        num_shards=4)
        assert pt.partitioner.kind == "range"
        assert_same_rows(pt.to_table(), orders)

    def test_partition_validation(self, orders):
        with pytest.raises(ShardError):
            PartitionedTable.partition(orders)
        with pytest.raises(SchemaError):
            PartitionedTable.partition(orders,
                                       HashPartitioner(("nope",), 2))
        with pytest.raises(ShardError):
            PartitionedTable(orders.schema, [], HashPartitioner(("k",), 2))

    def test_build_indexes_caches(self, orders):
        pt = PartitionedTable.partition(
            orders, HashPartitioner(("customer",), 4), build_indexes=True)
        for handle in pt.shards:
            assert handle.cached_index(("customer",)) is not None
            assert handle.cached_index(("region",)) is None

    def test_map_shards_filter_keeps_partitioning(self, orders):
        pt = PartitionedTable.partition(
            orders, HashPartitioner(("customer",), 4))
        trimmed = pt.map_shards(
            lambda t: t.filter(t.column_array("amount") > 50))
        assert trimmed.partitioner is pt.partitioner
        expected = orders.filter(orders.column_array("amount") > 50)
        assert_same_rows(trimmed.to_table(), expected)


class TestShardIndex:
    def test_segments_cover_rows_in_stable_order(self):
        t = Table.from_dict({"k": ["b", "a", "b", None, "a", "b"]})
        idx = ShardIndex.build(t, ["k"])
        assert idx.num_groups == 3
        seen = []
        for g in range(idx.num_groups):
            lo = idx.starts[g]
            rows = idx.order[lo:lo + idx.sizes[g]].tolist()
            assert rows == sorted(rows)  # stable within the group
            seen += rows
        assert sorted(seen) == list(range(6))
        # Exactly one group is the null group.
        assert int(idx.group_null.sum()) == 1

    def test_empty_table_index(self):
        idx = ShardIndex.build(Table.empty([("k", "int")]), ["k"])
        assert idx.num_groups == 0
        assert len(idx.codes) == 0

    def test_memory_shard_caches_by_key_tuple(self):
        shard = MemoryShard(Table.from_dict({"a": [1, 2], "b": [3, 4]}))
        first = shard.index(["a"])
        assert shard.index(("a",)) is first
        assert shard.index(["b"]) is not first


class TestSpill:
    @pytest.fixture
    def tricky(self):
        return Table.from_dict({
            "k": [1, None, 3, 4, None, 6],
            "s": ["a", "b", None, "d", "e", "f"],
            "f": [0.5, None, -0.25, 3.5, None, 7.0],
            "big": [2 ** 70, 1, None, 2 ** 70 + 1, 0, -2 ** 70],
        })

    def test_spill_restore_round_trip_exact(self, tmp_path, tricky):
        pt = PartitionedTable.partition(tricky, HashPartitioner(("k",), 3))
        store = ShardStore(tmp_path)
        spilled = store.spill(pt, "tricky")
        restored = store.restore("tricky")
        assert restored.partitioner == pt.partitioner
        for source in (spilled, restored):
            for i in range(pt.num_shards):
                disk, mem = source.shard(i), pt.shard(i)
                assert disk.num_rows == mem.num_rows
                for dc, mc in zip(disk.columns(), mem.columns()):
                    assert dc.dtype == mc.dtype
                    assert np.array_equal(dc.mask, mc.mask)
                    valid = ~mc.mask
                    assert dc.values[valid].tolist() == \
                        mc.values[valid].tolist()
        assert_same_rows(restored.to_table(), tricky)

    def test_content_addressing_reuses_files(self, tmp_path, tricky):
        pt = PartitionedTable.partition(tricky, HashPartitioner(("k",), 2))
        store = ShardStore(tmp_path)
        store.spill(pt, "one")
        files = sorted(p.name for p in tmp_path.glob(f"*{TABLE_SUFFIX}"))
        assert len(files) == 2
        store.spill(pt, "one")
        assert sorted(p.name for p in
                      tmp_path.glob(f"*{TABLE_SUFFIX}")) == files

    def test_corruption_detected_on_load(self, tmp_path, tricky):
        pt = PartitionedTable.partition(tricky, HashPartitioner(("k",), 2))
        store = ShardStore(tmp_path)
        spilled = store.spill(pt, "x")
        victim = next(p for p in tmp_path.glob(f"x-*{TABLE_SUFFIX}"))
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01                 # a value byte of the last column
        victim.write_bytes(bytes(data))
        with pytest.raises(ShardError, match="corrupt|missing"):
            for i in range(spilled.num_shards):
                spilled.shard(i)

    def test_truncated_or_undecodable_shard_raises(self, tmp_path, tricky):
        pt = PartitionedTable.partition(tricky, HashPartitioner(("k",), 2))
        spilled = ShardStore(tmp_path).spill(pt, "x")
        handle = spilled.shards[0]
        data = handle.path.read_bytes()
        handle.path.write_bytes(data[:-10])
        with pytest.raises(ShardError, match="corrupt"):
            handle.get()
        # Bytes that match the recorded hash but do not decode.
        for bad in (data[:-10], bytes([data[0] ^ 0xFF]) + data[1:]):
            handle.path.write_bytes(bad)
            forged = SpilledShard(handle.path, content_hash(bad),
                                  handle.num_rows)
            with pytest.raises(ShardError, match="corrupt"):
                forged.get()

    def test_restore_unknown_name(self, tmp_path):
        with pytest.raises(ShardError):
            ShardStore(tmp_path).restore("ghost")

    def test_stream_yields_one_shard_at_a_time(self, tmp_path, tricky):
        pt = PartitionedTable.partition(tricky, HashPartitioner(("k",), 3))
        store = ShardStore(tmp_path)
        store.spill(pt, "s")
        streamed = dict(store.stream("s"))
        assert sorted(streamed) == [0, 1, 2]
        assert sum(t.num_rows for t in streamed.values()) == tricky.num_rows

    def test_sweep_clears_debris_and_orphans(self, tmp_path, tricky):
        pt = PartitionedTable.partition(tricky, HashPartitioner(("k",), 2))
        store = ShardStore(tmp_path)
        store.spill(pt, "keep")
        (tmp_path / "junk.json.tmp").write_text("partial")
        (tmp_path / "orphan-0000-deadbeef0000.tbl").write_bytes(b"{}")
        ShardStore(tmp_path)  # reopening sweeps
        assert not (tmp_path / "junk.json.tmp").exists()
        assert not (tmp_path / "orphan-0000-deadbeef0000.tbl").exists()
        assert ShardStore(tmp_path).restore("keep").num_rows == \
            tricky.num_rows

    def test_delete_removes_data_files(self, tmp_path, tricky):
        pt = PartitionedTable.partition(tricky, HashPartitioner(("k",), 2))
        store = ShardStore(tmp_path)
        store.spill(pt, "gone")
        assert list(tmp_path.glob(f"gone-*{TABLE_SUFFIX}"))
        store.delete("gone")
        assert store.names() == []
        assert list(tmp_path.glob(f"gone-*{TABLE_SUFFIX}")) == []

    def test_kernels_run_on_spilled_shards(self, tmp_path, orders):
        pt = PartitionedTable.partition(
            orders, HashPartitioner(("customer",), 4))
        spilled = ShardStore(tmp_path).spill(pt, "orders")
        result = kernels.group_by(spilled, ["customer"],
                                  [("sum", "amount", "total")])
        oracle = orders.group_by(["customer"],
                                 [("sum", "amount", "total")])
        assert_same_rows(result, oracle)


class _BoomMap(ParallelMap):
    """A map that always fails — exercises the serving degraded tier."""

    def map(self, fn, items, name="par"):
        raise RuntimeError("pool exploded")

    def with_options(self, **overrides):
        return self


class TestServing:
    """:class:`~repro.serving.SqlBackend` over a database with the
    partitioned ``orders`` registered, checked against single-table
    oracles."""

    @pytest.fixture
    def backend(self, orders):
        pt = PartitionedTable.partition(
            orders, HashPartitioner(("customer",), 4))
        return SqlBackend(Database({"orders": pt})), orders

    def test_count_and_filter_match_oracle(self, backend):
        be, orders = backend
        (count,) = be.run_batch(
            ["select count(*) as n from orders where amount > 50.0"])
        keep = ((orders.column_array("amount") > 50.0)
                & ~orders.null_mask("amount"))
        assert list(count.rows()) == [(int(keep.sum()),)]
        (rows,) = be.run_batch(["select * from orders where amount > 50.0"])
        assert_same_rows(rows, orders.filter(keep))

    def test_group_by_and_distinct_match_oracle(self, backend):
        be, orders = backend
        grouped, uniq = be.run_batch([
            "select customer, sum(amount) as total, count(amount) as n "
            "from orders group by customer",
            "select customer, region from orders group by customer, region",
        ])
        oracle = orders.group_by(["customer"],
                                 [("sum", "amount", "total"),
                                  ("count", "amount", "n")])
        assert_same_rows(grouped, oracle)
        assert_same_rows(uniq, orders.project(["customer", "region"])
                         .distinct())

    def test_cache_key_tracks_query_content(self, backend):
        be, orders = backend
        q1 = "select count(*) from orders where region = 1"
        key = be.cache_key(q1)
        assert key is not None
        assert be.cache_key("SELECT count(*)\n FROM orders "
                            "WHERE region = 1") == key
        assert be.cache_key(
            "select count(*) from orders where region = 2") != key
        be.db.register("other", orders)
        assert be.cache_key(q1) != key

    def test_stream_and_view_reads_are_uncached(self, backend):
        be, orders = backend
        be.db.register_stream("live", orders)
        be.db.create_view("by_region", "select region, count(*) as n "
                          "from live group by region")
        assert be.cache_key("select * from live") is None
        assert be.cache_key("select * from by_region") is None
        assert be.cache_key("select * from orders join live "
                            "on customer = customer") is None
        assert be.cache_key("select * from orders") is not None

    def test_fallback_degrades_to_serial(self, orders):
        pt = PartitionedTable.partition(
            orders, HashPartitioner(("customer",), 4))
        be = SqlBackend(Database({"orders": pt}, pmap=_BoomMap(workers=2)))
        query = "select count(*) as n from orders where region >= 0"
        with pytest.raises(RuntimeError, match="pool exploded"):
            be.run_batch([query])
        expected = int((~orders.null_mask("region")).sum())
        assert list(be.fallback(query, RuntimeError("boom")).rows()) == [
            (expected,)]

    def test_fallback_without_pool_reraises(self, backend):
        be, _ = backend
        with pytest.raises(RuntimeError):
            be.fallback("select count(*) from orders",
                        RuntimeError("original"))
