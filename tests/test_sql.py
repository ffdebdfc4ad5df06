"""Mini SQL engine: tokenizer, parser, execution semantics."""

import pytest

from repro.errors import ParseError, SchemaError
from repro.sql import Database, parse_sql, tokenize
from repro.table import Table


@pytest.fixture
def db():
    products = Table.from_dict({
        "id": [1, 2, 3, 4],
        "name": ["apex a1", "apex a2", "lumina l1", "lumina l2"],
        "brand": ["apex", "apex", "lumina", "lumina"],
        "price": [100.0, 200.0, 150.0, None],
    })
    brands = Table.from_dict({
        "brand": ["apex", "lumina"],
        "country": ["usa", "japan"],
    })
    return Database({"products": products, "brands": brands})


class TestTokenizer:
    def test_strings_with_escaped_quote(self):
        tokens = tokenize("select 'it''s'")
        assert ("string", "it's") in tokens

    def test_numbers(self):
        # A minus is always an operator token; the parser folds a minus
        # before a number into a negative literal.
        tokens = tokenize("select 1 2.5 -3")
        values = [v for kind, v in tokens if kind == "number"]
        assert values == ["1", "2.5", "3"]
        assert tokens[-2] == ("op", "-")

    def test_keywords_lowercased(self):
        tokens = tokenize("SELECT x FROM t")
        assert tokens[0] == ("keyword", "select")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            tokenize("select @invalid")


class TestParser:
    def test_simple_select(self):
        q = parse_sql("select a, b from t")
        assert q.table == "t"
        assert len(q.select) == 2

    def test_star(self):
        q = parse_sql("select * from t")
        assert q.select_star

    def test_where_precedence(self):
        q = parse_sql("select a from t where a = 1 or b = 2 and c = 3")
        # OR binds loosest: top node is OR.
        assert q.where.op == "or"

    def test_order_limit(self):
        q = parse_sql("select a from t order by a desc limit 5")
        assert q.order_by == ("a", True)
        assert q.limit == 5

    def test_aggregate_with_alias(self):
        q = parse_sql("select count(*) as n from t")
        assert q.select[0].alias == "n"

    def test_join_clause(self):
        q = parse_sql("select a from t join u on x = y")
        assert q.joins[0].table == "u"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("select a from t extra")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("select a")

    def test_is_null(self):
        q = parse_sql("select a from t where a is null")
        assert q.where.op == "isnull"

    def test_is_not_null(self):
        q = parse_sql("select a from t where a is not null")
        assert q.where.op == "not"

    def test_in_desugars_to_or_of_equals(self):
        q = parse_sql("select a from t where a in (1, 2, 3)")
        # ((a = 1 or a = 2) or a = 3): left-associated OR chain.
        assert q.where.op == "or"
        assert q.where.left.op == "or"
        assert q.where.right.op == "="
        assert q.where.right.right.value == 3

    def test_not_in_desugars_to_and_of_not_equals(self):
        q = parse_sql("select a from t where a not in ('x', 'y')")
        # NOT IN must be <> conjuncts, not NOT(OR): a NULL `a` has to
        # drop the row under three-valued logic.
        assert q.where.op == "and"
        assert q.where.left.op == "<>"
        assert q.where.right.op == "<>"

    def test_in_single_element(self):
        q = parse_sql("select a from t where a in (5)")
        assert q.where.op == "="

    def test_in_requires_literals(self):
        with pytest.raises(ParseError):
            parse_sql("select a from t where a in (b, c)")

    def test_in_requires_parenthesized_list(self):
        with pytest.raises(ParseError):
            parse_sql("select a from t where a in 1, 2")

    def test_between_desugars_to_range(self):
        q = parse_sql("select a from t where a between 1 and 5")
        assert q.where.op == "and"
        assert q.where.left.op == ">="
        assert q.where.right.op == "<="

    def test_not_between_desugars_to_outside_range(self):
        q = parse_sql("select a from t where a not between 1 and 5")
        assert q.where.op == "or"
        assert q.where.left.op == "<"
        assert q.where.right.op == ">"

    def test_between_with_surrounding_and(self):
        # The BETWEEN's separating AND binds to the bounds; the outer
        # AND still belongs to the boolean expression.
        q = parse_sql("select a from t where a between 1 and 5 and b = 2")
        assert q.where.op == "and"
        assert q.where.right.op == "="

    def test_trailing_not_still_prefix(self):
        # A NOT not followed by IN/BETWEEN keeps its prefix meaning.
        q = parse_sql("select a from t where a = 1 and not b")
        assert q.where.op == "and"
        assert q.where.right.op == "not"


class TestExecution:
    def test_project(self, db):
        out = db.query("select name from products")
        assert out.schema.names == ["name"]
        assert out.num_rows == 4

    def test_star_returns_all(self, db):
        out = db.query("select * from products")
        assert out.num_columns == 4

    def test_where_filters(self, db):
        out = db.query("select id from products where brand = 'apex'")
        assert out.column("id") == [1, 2]

    def test_null_comparison_is_false(self, db):
        out = db.query("select id from products where price > 0")
        assert 4 not in out.column("id")

    def test_arithmetic_in_select(self, db):
        out = db.query("select price * 2 as double_price from products where id = 1")
        assert out.row(0)[0] == 200.0

    def test_count_star_vs_count_column(self, db):
        out = db.query("select count(*) as n, count(price) as p from products")
        assert out.row(0) == (4, 3)  # one null price

    def test_group_by(self, db):
        out = db.query(
            "select brand, avg(price) as mean_price from products group by brand"
        )
        rows = {r["brand"]: r["mean_price"] for r in out.row_dicts()}
        assert rows["apex"] == 150.0
        assert rows["lumina"] == 150.0  # null skipped

    def test_global_aggregate_no_group(self, db):
        out = db.query("select max(price) as hi from products")
        assert out.row(0)[0] == 200.0

    def test_aggregate_all_null_returns_null(self, db):
        out = db.query("select sum(price) as s from products where id = 4")
        assert out.row(0)[0] is None

    def test_order_by_desc_limit(self, db):
        out = db.query("select id from products order by price desc limit 2")
        assert out.column("id") == [2, 3]

    def test_join(self, db):
        out = db.query(
            "select name, country from products join brands on brand = brand"
        )
        assert out.num_rows == 4
        assert set(out.column("country")) == {"usa", "japan"}

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(ParseError):
            db.query("select name, count(*) from products group by brand")

    def test_missing_table(self, db):
        with pytest.raises(SchemaError):
            db.query("select a from nope")

    def test_missing_column(self, db):
        with pytest.raises(SchemaError):
            db.query("select nope from products")

    def test_and_or_logic(self, db):
        out = db.query(
            "select id from products where brand = 'apex' and price > 150"
        )
        assert out.column("id") == [2]

    def test_not(self, db):
        out = db.query("select id from products where not brand = 'apex'")
        assert out.column("id") == [3, 4]

    def test_is_null_filter(self, db):
        out = db.query("select id from products where price is null")
        assert out.column("id") == [4]

    def test_division_by_zero_yields_null(self, db):
        out = db.query("select price / 0 as x from products where id = 1")
        assert out.row(0)[0] is None

    def test_register_and_table_names(self, db):
        db.register("extra", Table.from_dict({"z": [1]}))
        assert "extra" in db.table_names()

    def test_empty_result_keeps_schema(self, db):
        out = db.query("select name from products where id = 999")
        assert out.num_rows == 0
        assert out.schema.names == ["name"]

    def test_in_filter(self, db):
        out = db.query("select id from products where brand in ('apex', 'nope')")
        assert out.column("id") == [1, 2]

    def test_in_with_null_column_drops_row(self, db):
        # price is NULL for id=4: NULL IN (...) is UNKNOWN, row dropped.
        out = db.query("select id from products where price in (100.0, 150.0)")
        assert out.column("id") == [1, 3]

    def test_not_in_with_null_column_drops_row(self, db):
        # SQL three-valued logic: NULL NOT IN (...) is UNKNOWN, not true.
        out = db.query(
            "select id from products where price not in (100.0, 150.0)"
        )
        assert out.column("id") == [2]

    def test_between_filter(self, db):
        out = db.query("select id from products where price between 100 and 150")
        assert out.column("id") == [1, 3]

    def test_not_between_drops_null(self, db):
        out = db.query(
            "select id from products where price not between 100 and 150"
        )
        assert out.column("id") == [2]  # id=4's NULL price is not "outside"


class TestMinusAndLimit:
    """A minus after an operand subtracts and a minus before a number is
    a negative literal, on both engines as in ``sqlite3``; LIMIT takes
    only a non-negative integer."""

    @pytest.fixture
    def signed(self):
        return {"t": Table.from_dict({
            "o_id": [-5, 1, 2, 3],
            "a": [2, -1, 0, None],
            "b": [0.5, -1.5, None, 2.0],
        })}

    @pytest.mark.parametrize("sql", [
        "select a-1 as x from t",
        "select a - -1 as x, b-2.5 as y from t",
        "select -a as x, -b as y from t",
        "select o_id from t where a -1 = 1",
        "select o_id from t where o_id = -5",
        "select o_id from t where o_id = - 5",
        "select o_id from t where -o_id = 5",
    ])
    def test_minus_matches_sqlite(self, signed, sql):
        from tests.test_sql_optimizer import _sqlite_db

        db = Database(signed)
        lite = _sqlite_db(signed).execute(sql).fetchall()
        assert lite                      # every case selects something
        for optimizer in (True, False):
            got = db.query(sql, optimizer=optimizer)
            assert list(got.rows()) == lite, (sql, optimizer)

    def test_negative_key_probes_the_index(self, signed):
        db = Database(signed)
        assert "[columnar[index]]" in db.explain(
            "select a from t where o_id = -5")

    @pytest.mark.parametrize("limit", ["2.5", "-1", "x"])
    def test_limit_takes_a_non_negative_integer(self, db, limit):
        from repro.serving import Server, SqlBackend

        sql = f"select id from products limit {limit}"
        for optimizer in (True, False):
            with pytest.raises(ParseError, match="LIMIT"):
                db.query(sql, optimizer=optimizer)
        server = Server(workers=0)
        server.register(SqlBackend(db))
        response = server.call("sql", sql)
        assert response.status == "error" and "LIMIT" in response.error
        assert db.query("select id from products limit 0").num_rows == 0
