"""Columnar storage layer: Column internals, trusted construction, and
randomized equivalence of the vectorized kernels against their
``*_reference`` twins."""

import io
import math
import pickle

import numpy as np
import pytest

from repro import obs
from repro.errors import SchemaError, StorageError
from repro.obs import metrics
from repro.table import (
    NUMPY_DTYPES,
    SENTINELS,
    Column,
    Field,
    Schema,
    Table,
)
from repro.table.table import _factorize_key_pairs
from repro.table.storage import (
    content_hash,
    decode_table,
    encode_table,
    table_hash,
)


def random_table(rng, n_rows, key_cardinality=6, null_rate=0.2):
    """A table with every dtype and nulls sprinkled into each column."""
    def maybe_null(values):
        return [None if rng.random() < null_rate else v for v in values]

    return Table.from_dict({
        "k": maybe_null([f"key-{int(i)}"
                         for i in rng.integers(0, key_cardinality, n_rows)]),
        "i": maybe_null([int(v) for v in rng.integers(-50, 50, n_rows)]),
        "f": maybe_null([round(float(v), 3)
                         for v in rng.uniform(-10, 10, n_rows)]),
        "b": maybe_null([bool(v) for v in rng.integers(0, 2, n_rows)]),
    })


class TestColumn:
    def test_build_and_pylist_round_trip(self):
        col = Column.build([1, None, 3], "int")
        assert col.to_pylist() == [1, None, 3]
        assert col.null_count == 1
        assert col.values.dtype == NUMPY_DTYPES["int"]
        assert col.values[1] == SENTINELS["int"]

    def test_checked_path_rejects_wrong_type(self):
        with pytest.raises(SchemaError, match="column 'x'.*not int"):
            Column.from_pylist([1, "two"], "int", name="x")

    def test_bool_is_not_int(self):
        with pytest.raises(SchemaError):
            Column.from_pylist([True], "int")

    def test_trusted_path_skips_validation(self):
        # build() is the trusted entry: it must not re-check cells.
        col = Column.build(["a", "b"], "str")
        assert col.to_pylist() == ["a", "b"]

    def test_oversized_int_falls_back_to_object(self):
        big = 2**70
        col = Column.build([big, 1], "int")
        assert col.values.dtype == object
        assert col.to_pylist() == [big, 1]

    def test_take_or_null(self):
        col = Column.build([10, 20, 30], "int")
        out = col.take_or_null(np.array([2, -1, 0]))
        assert out.to_pylist() == [30, None, 10]

    def test_codes_group_equal_values(self):
        col = Column.build(["b", None, "a", "b"], "str")
        codes, cardinality = col.codes()
        assert cardinality == 2
        assert codes[1] == -1
        assert codes[0] == codes[3] != codes[2]

    def test_equals_is_mask_aware(self):
        # int null slots store the sentinel 0 — a real 0 must not match one.
        a = Column.build([0, 1], "int")
        b = Column.build([None, 1], "int")
        assert not a.equals(b)
        assert a.equals(Column.build([0, 1], "int"))


class TestTrustedConstruction:
    def test_from_columns_round_trip(self):
        schema = Schema([Field("a", "int"), Field("b", "str")])
        table = Table.from_columns(schema, [
            Column.build([1, 2], "int"), Column.build(["x", None], "str"),
        ])
        assert list(table.rows()) == [(1, "x"), (2, None)]

    def test_from_columns_rejects_ragged(self):
        schema = Schema([Field("a", "int"), Field("b", "int")])
        with pytest.raises(SchemaError):
            Table.from_columns(schema, [
                Column.build([1, 2], "int"), Column.build([1], "int"),
            ])

    def test_column_array_is_read_only(self):
        table = Table.from_dict({"v": [1, 2, 3]})
        arr = table.column_array("v")
        mask = table.null_mask("v")
        with pytest.raises(ValueError):
            arr[0] = 99
        with pytest.raises(ValueError):
            mask[0] = True

    def test_checked_init_still_validates_lists(self):
        schema = Schema([Field("a", "int")])
        with pytest.raises(SchemaError):
            Table(schema, [["not-an-int"]])


class TestWithCells:
    def test_batch_update(self):
        table = Table.from_dict({"v": [1, None, 3]})
        out = table.with_cells("v", {1: 2, 2: None})
        assert out.column("v") == [1, 2, None]
        assert table.column("v") == [1, None, 3]  # original untouched

    def test_coerces_like_with_cell(self):
        table = Table.from_dict({"v": [1.5, 2.5]})
        assert table.with_cells("v", {0: 7}).column("v") == [7.0, 2.5]

    def test_oversized_int_update(self):
        table = Table.from_dict({"v": [1, 2]})
        out = table.with_cells("v", {0: 2**70})
        assert out.column("v") == [2**70, 2]


class TestKernelEquivalence:
    """The vectorized kernels must agree with the row-at-a-time twins on
    randomized tables mixing all dtypes, null keys and null values."""

    @pytest.mark.parametrize("seed", range(5))
    def test_filter(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, 60)
        keep = [bool(b) for b in rng.integers(0, 2, 60)]
        assert table.filter(keep) == table.filter_reference(keep)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_join_single_key(self, seed, how):
        rng = np.random.default_rng(seed)
        left = random_table(rng, 40)
        right = random_table(rng, 25).rename({"i": "ri", "f": "rf"})
        vec = left.join(right, on="k", how=how)
        ref = left.join_reference(right, on="k", how=how)
        assert vec == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_join_multi_key_pairs(self, seed):
        rng = np.random.default_rng(seed)
        left = random_table(rng, 30)
        right = random_table(rng, 30).rename({"k": "rk", "b": "rb"})
        on = [("k", "rk"), ("b", "rb")]
        for how in ("inner", "left"):
            assert (left.join(right, on=on, how=how)
                    == left.join_reference(right, on=on, how=how))

    def test_join_str_vs_numeric_key_never_matches(self):
        left = Table.from_dict({"k": ["1", "2"]})
        right = Table.from_dict({"k": [1, 2], "v": [10, 20]})
        vec = left.join(right, on="k", how="inner")
        assert vec.num_rows == 0
        assert vec == left.join_reference(right, on="k", how="inner")

    def test_join_bool_key_matches_int_key(self):
        left = Table.from_dict({"k": [True, False]})
        right = Table.from_dict({"k": [1, 5], "v": [10, 20]})
        vec = left.join(right, on="k", how="inner")
        assert vec == left.join_reference(right, on="k", how="inner")
        assert vec.num_rows == 1  # True == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_group_by_all_aggregates(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, 60)
        aggregates = [
            ("count", "i", "n"), ("sum", "i", "si"), ("avg", "f", "af"),
            ("min", "f", "lo"), ("max", "i", "hi"),
        ]
        for keys in (["k"], ["k", "b"]):
            assert (table.group_by(keys, aggregates)
                    == table.group_by_reference(keys, aggregates))

    @pytest.mark.parametrize("seed", range(3))
    def test_distinct_union_order_by_consistency(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, 40)
        doubled = table.union(table)
        assert doubled.distinct() == table.distinct()
        ordered = table.order_by("i")
        non_null = [v for v in ordered.column("i") if v is not None]
        assert non_null == sorted(non_null)


def factorized_pairs(left: Table, right: Table, lkey: str, rkey: str,
                     how: str) -> list[tuple[int, int]]:
    """The ``(left row, right row)`` pairs the factorized-codes join path
    defines, enumerated pair by pair: every right row whose code equals the
    left row's, in right-row order; null keys never match; ``how="left"``
    keeps an unmatched left row as ``(i, -1)``."""
    lcol = left.columns()[left.schema.index_of(lkey)]
    rcol = right.columns()[right.schema.index_of(rkey)]
    l_codes, r_codes, l_null = _factorize_key_pairs([lcol], [rcol])
    pairs = []
    for i in range(left.num_rows):
        hits = [] if r_codes is None or l_null[i] else [
            j for j in range(right.num_rows)
            if not rcol.mask[j] and r_codes[j] == l_codes[i]]
        pairs += [(i, j) for j in hits]
        if how == "left" and not hits:
            pairs.append((i, -1))
    return pairs


def probe_pairs(left: Table, right: Table, lkey: str, rkey: str,
                how: str) -> list[tuple[int, int]]:
    left_take, right_take, _schema, _kept = left.join_indices(
        right, on=[(lkey, rkey)], how=how)
    return list(zip(left_take.tolist(), right_take.tolist()))


def key_table(name: str, values: list, dtype: str) -> Table:
    return Table.from_columns(
        Schema([(name, dtype), (f"{name}_row", "int")]),
        [Column.from_pylist(values, dtype),
         Column.build(list(range(len(values))), "int")])


class TestJoinProbe:
    """Single numeric-key joins probe the right column's memoized key
    index; they must emit exactly the pairs of the factorized-codes path
    (``_factorize_key_pairs``) and, where python equality agrees with
    numpy's, the rows of :meth:`Table.join_reference`."""

    CASES = {
        "int/int": ([3, 1, None, 3, 7, -2, 1], "int",
                    [1, 3, 3, None, 9, 1, -2, 3], "int"),
        "int/float": ([2**53, 2**53 - 1, 2**53 + 2, -(2**53), 4, None], "int",
                      [2.0**53 + 2, 4.0, 2.0**53, 4.5, None, 2.0**53,
                       -(2.0**53), 2.0**53 - 1], "float"),
        "float/int": ([4.0, 4.5, 2.0**53, None, -1.0], "float",
                      [4, 2**53, -1, 4, None], "int"),
        "bool/int": ([True, False, None, True], "bool",
                     [1, 0, 2, 1, None, 0], "int"),
        "int/bool": ([1, 0, 2, None], "int", [True, None, False, True],
                     "bool"),
        "float/float signed zero": ([0.0, -0.0, 1.5, None], "float",
                                    [-0.0, 2.0, 0.0, None, 1.5, -0.0],
                                    "float"),
        "duplicate right keys": ([5, 5, 6], "int", [5, 6, 5, 5, 6, 5], "int"),
        "nulls only": ([None, None], "int", [None, 1], "int"),
        "empty left": ([], "int", [1, 2], "int"),
        "empty right": ([1, None], "int", [], "float"),
        "both empty": ([], "float", [], "float"),
    }

    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_factorize_path_and_reference(self, case, how):
        lvals, ldtype, rvals, rdtype = self.CASES[case]
        left, right = key_table("a", lvals, ldtype), key_table("b", rvals,
                                                              rdtype)
        assert (probe_pairs(left, right, "a", "b", how)
                == factorized_pairs(left, right, "a", "b", how))
        assert right.columns()[0]._key_index is not None   # probe path ran
        assert (left.join(right, on=[("a", "b")], how=how)
                == left.join_reference(right, on=[("a", "b")], how=how))

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_int_beyond_2_53_against_float_follows_float64(self, how):
        # int64 -> float64 rounds 2**53 + 1 to 2**53, the same value the
        # factorized codes compare; the probe must also keep right-row
        # order among the ints that round together.
        left = key_table("a", [2.0**53, 5.0, 2.0**53 + 2], "float")
        right = key_table("b", [2**53 + 1, 2**53, 5, 2**53 + 1, 2**53 + 2,
                                2**53 + 3], "int")
        pairs = probe_pairs(left, right, "a", "b", how)
        assert pairs == factorized_pairs(left, right, "a", "b", how)
        assert pairs[:3] == [(0, 0), (0, 1), (0, 3)]
        flipped = probe_pairs(right, left, "b", "a", how)
        assert flipped == factorized_pairs(right, left, "b", "a", how)
        # 2**53 + 1 rounds down onto the largest value, 2**53 itself.
        edge = key_table("b", [2**53 + 1, 7, 2**53, 2**53 + 1], "int")
        assert probe_pairs(left, edge, "a", "b", how)[:3] == [
            (0, 0), (0, 2), (0, 3)]

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_nan_keys_match_as_the_factorized_codes_do(self, how):
        nan = float("nan")
        left = key_table("a", [nan, 1.0, None, nan], "float")
        right = key_table("b", [nan, None, 1.0, nan], "float")
        pairs = probe_pairs(left, right, "a", "b", how)
        assert pairs == factorized_pairs(left, right, "a", "b", how)
        assert (0, 0) in pairs and (0, 3) in pairs   # non-null NaN == NaN
        assert probe_pairs(left, key_table("b", [1, 2], "int"), "a", "b",
                           how) == factorized_pairs(
            left, key_table("b", [1, 2], "int"), "a", "b", how)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_random_numeric_keys(self, seed, how):
        rng = np.random.default_rng(seed)

        def keys(n, dtype):
            raw = rng.integers(-4, 5, n)
            vals = {"int": [int(v) for v in raw],
                    "float": [float(v) / 2 for v in raw],
                    "bool": [bool(v > 0) for v in raw]}[dtype]
            return [None if rng.random() < 0.2 else v for v in vals]

        for ldtype in ("int", "float", "bool"):
            for rdtype in ("int", "float", "bool"):
                left = key_table("a", keys(int(rng.integers(0, 30)), ldtype),
                                 ldtype)
                right = key_table("b", keys(int(rng.integers(0, 30)),
                                            rdtype), rdtype)
                assert (probe_pairs(left, right, "a", "b", how)
                        == factorized_pairs(left, right, "a", "b", how))
                assert (left.join(right, on=[("a", "b")], how=how)
                        == left.join_reference(right, on=[("a", "b")],
                                               how=how))

    def test_memo_is_shared_by_project_and_rename(self):
        table = Table.from_dict({"k": [3, 1, 2, 1], "v": [1.0, 2.0, 3.0,
                                                          4.0]})
        probe = Table.from_dict({"q": [1]})
        projected = table.project(["k"])
        renamed = table.rename({"k": "kk"})
        assert probe.join(projected, on=[("q", "k")]).num_rows == 2
        index = table.columns()[0]._key_index
        assert index is not None
        assert renamed.columns()[0].key_index() is index
        assert probe.join(renamed, on=[("q", "kk")]).num_rows == 2
        assert table.columns()[0]._key_index is index
        values, rows = index
        assert values.tolist() == [1, 1, 2, 3] and rows.tolist() == [1, 3, 2,
                                                                     0]

    def test_memo_is_not_pickled(self):
        table = Table.from_dict({"k": [3, None, 2]})
        col = table.columns()[0]
        col.key_index()
        clone = pickle.loads(pickle.dumps(table))
        clone_col = clone.columns()[0]
        assert clone_col._key_index is None
        assert clone == table
        assert pickle.loads(pickle.dumps(col))._key_index is None
        assert clone_col.key_index()[1].tolist() == [2, 0]

    def test_object_keys_keep_the_factorized_path(self):
        left = Table.from_dict({"k": [2**70, 1]})
        right = Table.from_dict({"k": [1, 2**70, 1]})
        assert left.columns()[0].values.dtype == object
        out = left.join(right, on="k")
        assert out == left.join_reference(right, on="k")
        assert right.columns()[0]._key_index is None


class TestSchemaProjection:
    def test_projections_are_shared_and_not_pickled(self):
        schema = Schema([("a", "int"), ("b", "str"), ("c", "float")])
        sub = schema.project(["c", "a"])
        assert sub == Schema([("c", "float"), ("a", "int")])
        assert schema.project(("c", "a")) is sub
        table = Table.from_dict({"a": [1], "b": ["x"], "c": [1.5]})
        assert (table.project(["b"]).schema
                is table.project(["b"]).schema)
        clone = pickle.loads(pickle.dumps(schema))
        assert clone == schema and clone._projections is None
        with pytest.raises(SchemaError):
            schema.project(["missing"])


class TestOrderByStability:
    def test_ties_keep_original_order_both_directions(self):
        table = Table.from_dict({
            "k": [2, 1, 2, 1, None, 2],
            "tag": ["a", "b", "c", "d", "e", "f"],
        })
        asc = table.order_by("k")
        assert asc.column("tag") == ["b", "d", "a", "c", "f", "e"]
        desc = table.order_by("k", descending=True)
        assert desc.column("tag") == ["a", "c", "f", "b", "d", "e"]


class TestHotOpInstrumentation:
    def test_hot_ops_record_metrics(self):
        obs.reset()
        table = Table.from_dict({"k": ["a", "b", "a"], "v": [1, 2, 3]})
        table.filter([True, False, True])
        table.join(table.rename({"v": "w"}), on="k")
        table.group_by(["k"], [("count", "v", "n")])
        names = metrics.get_registry().names()
        for metric in ("table.filter.seconds", "table.join.seconds",
                       "table.group_by.seconds"):
            assert metric in names
            assert metrics.histogram(metric).summary()["count"] >= 1
        assert metrics.counter("table.rows_scanned").value > 0


def assert_exact(a: Table, b: Table):
    """Same schema, masks and bit-identical valid values (NaN and -0.0
    included) with the same python value types."""
    assert a.schema == b.schema
    assert a.num_rows == b.num_rows
    for ca, cb in zip(a.columns(), b.columns()):
        assert ca.dtype == cb.dtype
        assert np.array_equal(ca.mask, cb.mask)
        valid = ~ca.mask
        va, vb = ca.values[valid], cb.values[valid]
        if va.dtype == np.float64 and vb.dtype == np.float64:
            assert np.array_equal(va.view(np.int64), vb.view(np.int64))
        else:
            assert [(type(x), x) for x in va.tolist()] == \
                [(type(x), x) for x in vb.tolist()]


def round_trip(table: Table) -> Table:
    clone = decode_table(encode_table(table))
    assert_exact(clone, table)
    assert table_hash(clone) == table_hash(table)
    return clone


class TestStorageFormat:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_every_dtype_with_nulls(self, seed):
        table = random_table(np.random.default_rng(seed), 300)
        clone = round_trip(table)
        for column in clone.columns():
            assert column.values.dtype == NUMPY_DTYPES[column.dtype]

    def test_all_null_columns_and_empty_tables(self):
        schema = Schema([("i", "int"), ("f", "float"), ("s", "str"),
                         ("b", "bool")])
        all_null = Table.from_columns(
            schema, [Column.build([None] * 5, f.dtype) for f in schema])
        round_trip(all_null)
        round_trip(Table.empty(schema))
        round_trip(random_table(np.random.default_rng(9), 40).slice(0, 0))

    def test_unicode_strings(self):
        words = ["", "\x00", "a\x00b", "é", "日本語", "\U0001d11e astral",
                 None, "plain", "\U0001f600"]
        table = Table.from_dict({"s": words, "ascii": ["x"] * len(words)})
        assert round_trip(table).column("s") == words

    def test_float_edge_values(self):
        values = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, 0.1, 0.25, None, 1e308]
        clone = round_trip(Table.from_dict({"f": values}))
        out = clone.column("f")
        assert math.copysign(1.0, out[0]) == -1.0
        assert math.isnan(out[2]) and not clone.null_mask("f")[2]
        assert out[8] is None
        assert out[:2] + out[3:8] + out[9:] == values[:2] + values[3:8] \
            + values[9:]
        # Every NaN bit pattern encodes as the one quiet NaN.
        negative_nan = np.array([np.nan]).view(np.int64) | np.int64(-2 ** 63)
        odd = Table.from_columns(Schema([("f", "float")]), [Column(
            "float", negative_nan.view(np.float64), np.zeros(1, bool))])
        assert encode_table(odd) == encode_table(
            Table.from_dict({"f": [float("nan")]}))

    def test_every_int_width_and_long_strings(self):
        # Values on each side of the int8/16/32 limits, and strings whose
        # byte lengths need a wider length array.
        edges = [0, 127, 128, -128, -129, 2 ** 15 - 1, 2 ** 15, -2 ** 15 - 1,
                 2 ** 31 - 1, 2 ** 31, -2 ** 31 - 1, 2 ** 63 - 1, -2 ** 63]
        for i in range(len(edges)):
            round_trip(Table.from_dict({"i": edges[:i + 1]}))
        texts = ["x" * 300, "é" * 40000, "short"]
        assert round_trip(Table.from_dict({"s": texts})).column("s") == texts

    def test_ints_beyond_int64(self):
        values = [2 ** 70, -2 ** 70, 1, None, 2 ** 63, -2 ** 63 - 1]
        table = Table.from_dict({"big": values})
        assert table.columns()[0].values.dtype == object
        clone = round_trip(table)
        assert clone.column("big") == values
        assert all(type(v) is int for v in clone.column("big") if v is not None)
        # Object storage holding only int64-sized values encodes exactly
        # like an int64 column: bytes follow logical content.
        small = table.filter(np.array([False, False, True, True, False,
                                       False]))
        assert small.columns()[0].values.dtype == object
        plain = Table.from_dict({"big": [1, None]})
        assert encode_table(small) == encode_table(plain)

    def test_left_join_null_slots_hash_like_rows(self):
        left = Table.from_dict({"k": [1, 2, 3]})
        right = Table.from_dict({"k": [1], "s": ["x"], "n": [5],
                                 "f": [2.5], "b": [True]})
        joined = left.join(right, on="k", how="left")
        # take_or_null leaves row 0's values in the null slots.
        assert joined.column_array("s")[1] == "x"
        assert joined.column_array("n")[1] == 5
        rebuilt = Table.from_rows(list(joined.rows()), schema=joined.schema)
        assert rebuilt.column_array("s")[1] is None
        assert encode_table(joined) == encode_table(rebuilt)
        assert table_hash(joined) == table_hash(rebuilt)

    def test_hash_is_the_hash_of_the_encoding(self):
        table = random_table(np.random.default_rng(3), 50)
        assert table_hash(table) == content_hash(encode_table(table))
        assert table_hash(table) != table_hash(table.slice(1))

    def test_truncated_payload_raises(self):
        data = encode_table(random_table(np.random.default_rng(4), 20))
        for cut in range(len(data)):
            with pytest.raises(StorageError):
                decode_table(data[:cut])
        with pytest.raises(StorageError, match="trailing"):
            decode_table(data + b"\x00")

    def test_bad_magic_and_version_raise(self):
        data = bytearray(encode_table(Table.from_dict({"a": [1]})))
        flipped = bytes([data[0] ^ 0xFF]) + bytes(data[1:])
        with pytest.raises(StorageError, match="magic"):
            decode_table(flipped)
        data[8] += 1                      # the u16 format version
        with pytest.raises(StorageError, match="version"):
            decode_table(bytes(data))

    def test_object_arrays_never_unpickled(self):
        # A payload whose values buffer is a pickled object array: the
        # reader loads .npy with allow_pickle=False and refuses it.
        data = encode_table(Table.from_dict({"a": [1, 2]}))
        values = _npy(np.array([1, 2], dtype="<i1"))   # narrowed to int8
        assert data.endswith(values)
        evil = data[:-len(values)] + _npy(np.array([1, 2], dtype=object),
                                          allow_pickle=True)
        with pytest.raises(StorageError):
            decode_table(evil)


def _npy(array, allow_pickle=False):
    out = io.BytesIO()
    np.lib.format.write_array(out, array, version=(1, 0),
                              allow_pickle=allow_pickle)
    return out.getvalue()
