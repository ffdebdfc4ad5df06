"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.nn import Tensor, softmax
from repro.sql import Database, parse_sql
from repro.table import Table
from repro.text import (
    MinHasher,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    qgrams,
    words,
)

short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30
)
tokens = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=5), min_size=0, max_size=12
)


class TestStringSimilarityProperties:
    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(short_text, short_text, short_text)
    @settings(max_examples=40, deadline=None)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    @given(short_text)
    @settings(max_examples=40, deadline=None)
    def test_identity_scores_one(self, a):
        assert levenshtein_distance(a, a) == 0
        assert levenshtein_similarity(a, a) == 1.0
        assert jaccard_similarity(a, a) == 1.0

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_similarities_bounded(self, a, b):
        for fn in (levenshtein_similarity, jaro_winkler_similarity,
                   jaccard_similarity):
            value = fn(a, b)
            assert 0.0 <= value <= 1.0 + 1e-12

    @given(short_text, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_qgram_count(self, text, q):
        grams = qgrams(text, q=q)
        padded_len = len(text.lower()) + 2 * (q - 1)
        if padded_len >= q:
            assert len(grams) == padded_len - q + 1

    @given(short_text)
    @settings(max_examples=40, deadline=None)
    def test_words_are_lowercase(self, text):
        for token in words(text):
            assert token == token.lower()


class TestMinHashProperties:
    @given(tokens, tokens)
    @settings(max_examples=30, deadline=None)
    def test_estimate_in_unit_interval(self, a, b):
        hasher = MinHasher(num_perm=32, seed=0)
        estimate = MinHasher.estimate_jaccard(
            hasher.signature(a), hasher.signature(b)
        )
        assert 0.0 <= estimate <= 1.0

    @given(tokens)
    @settings(max_examples=30, deadline=None)
    def test_identical_sets_estimate_one(self, items):
        hasher = MinHasher(num_perm=32, seed=0)
        sig = hasher.signature(items)
        assert MinHasher.estimate_jaccard(sig, sig) == 1.0


table_values = st.lists(
    st.one_of(st.integers(min_value=-1000, max_value=1000), st.none()),
    min_size=1, max_size=20,
)


class TestTableProperties:
    @given(table_values)
    @settings(max_examples=40, deadline=None)
    def test_csv_round_trip_preserves_ints(self, values):
        table = Table.from_dict({"v": values})
        back = Table.from_csv(table.to_csv())
        assert back.column("v") == values

    @given(table_values)
    @settings(max_examples=40, deadline=None)
    def test_order_by_sorts_non_nulls(self, values):
        table = Table.from_dict({"v": values})
        ordered = table.order_by("v").column("v")
        non_null = [v for v in ordered if v is not None]
        assert non_null == sorted(non_null)
        # Nulls all at the end.
        if None in ordered:
            first_null = ordered.index(None)
            assert all(v is None for v in ordered[first_null:])

    @given(table_values)
    @settings(max_examples=40, deadline=None)
    def test_distinct_is_idempotent(self, values):
        table = Table.from_dict({"v": values})
        once = table.distinct()
        assert once.distinct() == once

    @given(table_values, st.integers(min_value=0, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_limit_bounds(self, values, n):
        table = Table.from_dict({"v": values})
        assert table.limit(n).num_rows == min(n, len(values))

    @given(table_values)
    @settings(max_examples=30, deadline=None)
    def test_select_project_commute(self, values):
        table = Table.from_dict({"v": values, "w": list(range(len(values)))})
        predicate = lambda r: r["w"] % 2 == 0
        left = table.select(predicate).project(["w"])
        right = table.project(["w"]).select(predicate)
        assert left == right

    @given(table_values)
    @settings(max_examples=30, deadline=None)
    def test_union_row_count(self, values):
        table = Table.from_dict({"v": values})
        assert table.union(table).num_rows == 2 * table.num_rows


key_values = st.lists(
    st.one_of(st.sampled_from(["a", "b", "c", "d"]), st.none()),
    min_size=1, max_size=20,
)


def _keyed_table(keys, values):
    # Typed: an all-NULL ``v`` would infer as ``str``, which ``sum``
    # rejects.
    n = min(len(keys), len(values))
    return Table.from_rows(list(zip(keys[:n], values[:n])),
                           schema=[("k", "str"), ("v", "int")])


class TestRelationalAlgebraLaws:
    """Algebraic laws checked against the vectorized kernels AND their
    row-at-a-time ``*_reference`` twins, so the twins stay honest."""

    @given(key_values, table_values)
    @settings(max_examples=40, deadline=None)
    def test_filter_project_commute(self, keys, values):
        table = _keyed_table(keys, values)
        keep = [k is not None for k in table.column("k")]
        for filt in (Table.filter, Table.filter_reference):
            left = filt(table, keep).project(["v"])
            right = filt(table.project(["k", "v"]), keep).project(["v"])
            assert left == right

    @given(key_values, table_values)
    @settings(max_examples=40, deadline=None)
    def test_filter_matches_reference(self, keys, values):
        table = _keyed_table(keys, values)
        keep = [v is not None and v > 0 for v in table.column("v")]
        assert table.filter(keep) == table.filter_reference(keep)

    @given(key_values, table_values)
    @settings(max_examples=40, deadline=None)
    def test_join_with_empty_table(self, keys, values):
        table = _keyed_table(keys, values)
        empty = Table.from_dict({"k": [], "extra": []})
        for join in (Table.join, Table.join_reference):
            inner = join(table, empty, on="k", how="inner")
            assert inner.num_rows == 0
            assert inner.schema.names == ["k", "v", "extra"]
            left = join(table, empty, on="k", how="left")
            assert left.num_rows == table.num_rows
            assert left.column("extra") == [None] * table.num_rows

    @given(key_values, table_values)
    @settings(max_examples=40, deadline=None)
    def test_union_rejects_schema_mismatch(self, keys, values):
        table = _keyed_table(keys, values)
        other = table.rename({"v": "w"})
        with pytest.raises(SchemaError):
            table.union(other)

    @given(key_values, table_values)
    @settings(max_examples=40, deadline=None)
    def test_group_by_skips_nulls(self, keys, values):
        table = _keyed_table(keys, values)
        aggregates = [("count", "v", "n"), ("sum", "v", "total")]
        for group in (Table.group_by, Table.group_by_reference):
            out = group(table, ["k"], aggregates)
            by_key = {out.cell(i, "k"): i for i in range(out.num_rows)}
            for key in by_key:
                non_null = [
                    v for k, v in zip(table.column("k"), table.column("v"))
                    if k == key and v is not None
                ]
                i = by_key[key]
                assert out.cell(i, "n") == len(non_null)
                expected = sum(non_null) if non_null else None
                assert out.cell(i, "total") == expected

    @given(key_values, table_values)
    @settings(max_examples=40, deadline=None)
    def test_group_by_matches_reference(self, keys, values):
        table = _keyed_table(keys, values)
        aggregates = [("count", "v", "n"), ("sum", "v", "total"),
                      ("min", "v", "lo"), ("max", "v", "hi")]
        assert (table.group_by(["k"], aggregates)
                == table.group_by_reference(["k"], aggregates))


class TestSQLProperties:
    @given(table_values)
    @settings(max_examples=30, deadline=None)
    def test_count_star_equals_num_rows(self, values):
        db = Database({"t": Table.from_dict({"v": values})})
        out = db.query("select count(*) as n from t")
        assert out.row(0)[0] == len(values)

    @given(table_values)
    @settings(max_examples=30, deadline=None)
    def test_where_true_keeps_all(self, values):
        db = Database({"t": Table.from_dict({"v": values})})
        out = db.query("select v from t where 1 = 1")
        assert out.num_rows == len(values)

    @given(st.integers(min_value=-100, max_value=100),
           st.integers(min_value=-100, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_parser_handles_literals(self, a, b):
        query = parse_sql(f"select v from t where v >= {a} and v <= {b}")
        assert query.where is not None


class TestTensorProperties:
    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_distribution(self, values):
        out = softmax(Tensor(np.array([values]))).numpy()
        assert np.isclose(out.sum(), 1.0)
        assert (out >= 0).all()

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_sum_linearity(self, values):
        x = Tensor(np.array(values), requires_grad=True)
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, 3.0)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shape(self, n, m):
        a = Tensor(np.ones((n, 3)))
        b = Tensor(np.ones((3, m)))
        assert (a @ b).shape == (n, m)
