"""Table construction, relational operators, CSV round-trips."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.table import Schema, Table


@pytest.fixture
def people():
    return Table.from_dict({
        "id": [1, 2, 3, 4],
        "name": ["ann", "bob", None, "dan"],
        "city": ["austin", "boston", "austin", "boston"],
        "age": [30, 25, 40, 25],
    })


class TestConstruction:
    def test_from_dict_infers_types(self, people):
        assert people.schema.dtype_of("id") == "int"
        assert people.schema.dtype_of("name") == "str"
        assert people.num_rows == 4

    def test_from_rows_with_names(self):
        t = Table.from_rows([(1, "a"), (2, "b")], names=["x", "y"])
        assert t.schema.names == ["x", "y"]
        assert t.row(1) == (2, "b")

    def test_from_rows_with_schema_coerces(self):
        t = Table.from_rows([("1", "2.5")], schema=[("a", "int"), ("b", "float")])
        assert t.row(0) == (1, 2.5)

    def test_from_rows_coerces_any_column_not_of_exact_type(self):
        schema = [("i", "int"), ("f", "float"), ("s", "str"), ("b", "bool")]
        exact = Table.from_rows([(1, 2.5, "x", True), (None,) * 4],
                                schema=schema)
        assert list(exact.rows()) == [(1, 2.5, "x", True), (None,) * 4]
        mixed = Table.from_rows([(True, 3, "y", "yes"),
                                 (2, None, "z", False)], schema=schema)
        rows = list(mixed.rows())
        assert rows == [(1, 3.0, "y", True), (2, None, "z", False)]
        assert [type(v) for v in rows[0]] == [int, float, str, bool]
        with pytest.raises(SchemaError):
            Table.from_rows([(1, 2.5, "x", True), (3.5, 1.0, "y", False)],
                            schema=schema)

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema([("a", "int"), ("b", "int")]), [[1, 2], [1]])

    def test_wrong_width_row_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows([(1, 2), (1,)], names=["a", "b"])

    def test_type_violation_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema([("a", "int")]), [["not an int"]])

    def test_empty_table(self):
        t = Table.empty([("a", "int")])
        assert t.num_rows == 0
        assert list(t.rows()) == []


class TestInspection:
    def test_column_returns_copy(self, people):
        col = people.column("id")
        col[0] = 999
        assert people.cell(0, "id") == 1

    def test_row_negative_index(self, people):
        assert people.row(-1)[0] == 4

    def test_row_out_of_range(self, people):
        with pytest.raises(IndexError):
            people.row(10)

    def test_row_dicts(self, people):
        first = next(people.row_dicts())
        assert first == {"id": 1, "name": "ann", "city": "austin", "age": 30}

    def test_equality(self, people):
        same = Table.from_rows(list(people.rows()), schema=people.schema)
        assert people == same

    def test_pretty_renders_nulls(self, people):
        assert "∅" in people.pretty()


class TestRelationalOps:
    def test_select(self, people):
        young = people.select(lambda r: r["age"] < 30)
        assert young.num_rows == 2

    def test_project_and_drop(self, people):
        assert people.project(["name"]).schema.names == ["name"]
        assert people.drop(["name"]).schema.names == ["id", "city", "age"]
        with pytest.raises(SchemaError):
            people.drop(["missing"])

    def test_rename(self, people):
        renamed = people.rename({"name": "full_name"})
        assert "full_name" in renamed.schema
        assert renamed.column("full_name") == people.column("name")

    def test_with_column(self, people):
        t = people.with_column("score", "float", [1, 2, 3, 4])
        assert t.schema.dtype_of("score") == "float"
        with pytest.raises(SchemaError):
            people.with_column("id", "int", [0, 0, 0, 0])
        with pytest.raises(SchemaError):
            people.with_column("bad", "int", [1])

    def test_with_cell_is_nondestructive(self, people):
        fixed = people.with_cell(2, "name", "carol")
        assert fixed.cell(2, "name") == "carol"
        assert people.cell(2, "name") is None

    def test_map_column(self, people):
        upper = people.map_column("city", lambda v: v.upper() if v else v)
        assert upper.cell(0, "city") == "AUSTIN"

    def test_map_column_changes_dtype(self, people):
        stringified = people.map_column("age", str, dtype="str")
        assert stringified.schema.dtype_of("age") == "str"
        assert stringified.cell(0, "age") == "30"

    def test_order_by_nulls_last(self, people):
        ordered = people.order_by("name")
        assert ordered.column("name") == ["ann", "bob", "dan", None]
        descending = people.order_by("name", descending=True)
        assert descending.column("name") == ["dan", "bob", "ann", None]

    def test_limit(self, people):
        assert people.limit(2).num_rows == 2
        assert people.limit(100).num_rows == 4

    def test_distinct(self):
        t = Table.from_dict({"a": [1, 1, 2]})
        assert t.distinct().num_rows == 2

    def test_union(self, people):
        doubled = people.union(people)
        assert doubled.num_rows == 8
        with pytest.raises(SchemaError):
            people.union(people.project(["id"]))

    def test_sample(self, people):
        rng = np.random.default_rng(0)
        sampled = people.sample(2, rng)
        assert sampled.num_rows == 2


class TestJoin:
    def test_inner_join_shared_column(self, people):
        cities = Table.from_dict({
            "city": ["austin", "boston"],
            "state": ["texas", "massachusetts"],
        })
        joined = people.join(cities, on="city")
        assert joined.num_rows == 4
        assert "state" in joined.schema

    def test_left_join_keeps_unmatched(self, people):
        cities = Table.from_dict({"city": ["austin"], "state": ["texas"]})
        joined = people.join(cities, on="city", how="left")
        assert joined.num_rows == 4
        states = joined.column("state")
        assert states.count(None) == 2

    def test_null_keys_never_match(self):
        left = Table.from_dict({"k": [None, 1]})
        right = Table.from_dict({"k": [None, 1]})
        assert left.join(right, on="k").num_rows == 1

    def test_join_name_clash_gets_suffix(self, people):
        other = people.rename({"id": "pid"})
        joined = people.join(other, on=[("id", "pid")])
        assert "name_r" in joined.schema

    def test_join_pair_keys(self):
        left = Table.from_dict({"a": [1, 2], "x": ["p", "q"]})
        right = Table.from_dict({"b": [2, 3], "y": ["r", "s"]})
        joined = left.join(right, on=[("a", "b")])
        assert joined.num_rows == 1
        # Differently-named keys both survive, per SQL semantics.
        assert joined.row(0) == (2, "q", 2, "r")

    def test_bad_join_type(self, people):
        with pytest.raises(SchemaError):
            people.join(people, on="id", how="outer")


class TestGroupBy:
    def test_count_and_avg(self, people):
        g = people.group_by(["city"], [("count", "id", "n"), ("avg", "age", "mean_age")])
        by_city = {r["city"]: r for r in g.row_dicts()}
        assert by_city["austin"]["n"] == 2
        assert by_city["boston"]["mean_age"] == 25.0

    def test_aggregates_skip_nulls(self, people):
        g = people.group_by(["city"], [("count", "name", "named")])
        by_city = {r["city"]: r for r in g.row_dicts()}
        assert by_city["austin"]["named"] == 1  # one null name in austin

    def test_sum_preserves_int(self, people):
        g = people.group_by(["city"], [("sum", "age", "total")])
        assert g.schema.dtype_of("total") == "int"

    def test_min_max(self, people):
        g = people.group_by(["city"], [("min", "age", "lo"), ("max", "age", "hi")])
        by_city = {r["city"]: r for r in g.row_dicts()}
        assert (by_city["austin"]["lo"], by_city["austin"]["hi"]) == (30, 40)

    def test_unknown_aggregate(self, people):
        with pytest.raises(SchemaError):
            people.group_by(["city"], [("median", "age", "m")])

    def test_group_order_is_first_seen(self, people):
        g = people.group_by(["city"], [("count", "id", "n")])
        assert g.column("city") == ["austin", "boston"]


class TestCSV:
    def test_round_trip(self, people):
        text = people.to_csv()
        back = Table.from_csv(text)
        assert back.column("name") == people.column("name")
        assert back.schema.dtype_of("age") == "int"

    def test_empty_cells_become_null(self):
        t = Table.from_csv("a,b\n1,\n2,x\n")
        assert t.column("b") == [None, "x"]

    def test_type_inference(self):
        t = Table.from_csv("a,b,c\n1,1.5,true\n2,2.5,false\n")
        assert t.schema.dtypes == ["int", "float", "bool"]

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_csv("")


# -- CSV round-trip properties (hypothesis) --------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Strings that survive a CSV round trip untouched: the "s" prefix keeps them
# non-empty (empty cells read back as null) and out of the int/float/bool
# inference buckets, while the alphabet forces the writer's quoting paths —
# commas, double quotes, newlines — plus non-ASCII text.
csv_safe_text = st.text(
    alphabet='ab,"\n é漢ß', max_size=10,
).map(lambda s: "s" + s)


class TestCSVRoundTripProperties:
    @given(st.lists(st.one_of(csv_safe_text, st.none()),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_str_round_trip_with_nulls_quotes_unicode(self, values):
        table = Table.from_dict({"v": values})
        back = Table.from_csv(table.to_csv())
        assert back.schema.dtype_of("v") == "str"
        assert back.column("v") == values

    @given(st.lists(st.one_of(st.booleans(), st.none()),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bool_round_trip_with_nulls(self, values):
        table = Table.from_dict({"v": values})
        back = Table.from_csv(table.to_csv())
        assert back.column("v") == values
        if any(v is not None for v in values):
            assert back.schema.dtype_of("v") == "bool"

    @given(st.lists(st.sampled_from(["true", "false", "TRUE", "False"]),
                    min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_bool_like_strings_infer_bool(self, values):
        # _csv_dtype folds case: a column of bool words parses as bool.
        table = Table.from_dict({"v": values})
        back = Table.from_csv(table.to_csv())
        assert back.schema.dtype_of("v") == "bool"
        assert back.column("v") == [v.lower() == "true" for v in values]

    @given(st.lists(st.sampled_from(["true", "false"]), min_size=1,
                    max_size=10),
           csv_safe_text)
    @settings(max_examples=40, deadline=None)
    def test_bool_words_plus_other_string_stay_str(self, words, other):
        # One non-bool word tips _csv_dtype back to str — nothing coerces.
        values = words + [other]
        table = Table.from_dict({"v": values})
        back = Table.from_csv(table.to_csv())
        assert back.schema.dtype_of("v") == "str"
        assert back.column("v") == values

    @given(st.lists(st.one_of(st.integers(min_value=-10**6,
                                          max_value=10**6),
                              st.none()),
                    min_size=1, max_size=20),
           st.lists(st.one_of(st.floats(min_value=-1e6, max_value=1e6,
                                        allow_nan=False), st.none()),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_numeric_round_trip_with_nulls(self, ints, floats):
        n = min(len(ints), len(floats))
        table = Table.from_dict({"i": ints[:n], "f": floats[:n]})
        back = Table.from_csv(table.to_csv())
        assert back.column("i") == ints[:n]
        assert back.column("f") == floats[:n]
