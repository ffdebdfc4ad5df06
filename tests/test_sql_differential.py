"""The differential SQL harness: each seeded random draw runs through
stdlib ``sqlite3`` and every engine (docs/sql.md, "The escape hatch and
the oracle" lists the eight).  A mismatch on a static engine is shrunk
by greedy row deletion while the same engine still disagrees, and
reported with the seed, the engine, the SQL and the rows left.
"""

import random
import re
import sqlite3
from collections import Counter

import numpy as np
import pytest

from repro.errors import IvmError
from repro.ivm import ZSet
from repro.obs import metrics
from repro.serving import Server, SqlBackend
from repro.shard import PartitionedTable
from repro.sql import Database
from repro.table import Table
from repro.table.storage import encode_table

# -- the generator --------------------------------------------------------------

_STATUSES = ["gold", "new", "vip", None]
_COUNTRIES = ["jp", "us", "de", None]
_CATEGORIES = ["tools", "toys"]


def _random_tables(rng: random.Random, n: int):
    # Dyadic-grid floats: sums associate exactly, so vectorized and
    # row-order accumulation agree bit-for-bit.
    amounts = [None if rng.random() < 0.15 else rng.randrange(64) / 4.0
               for _ in range(n)]
    orders = Table.from_dict({
        "o_id": list(range(n)),
        "cust": [None if rng.random() < 0.1 else rng.randrange(8)
                 for _ in range(n)],
        "prod": [None if rng.random() < 0.1 else 100 + rng.randrange(5)
                 for _ in range(n)],
        "amount": amounts,
        "status": [rng.choice(_STATUSES) for _ in range(n)],
    })
    customers = Table.from_dict({
        "cust": list(range(8)),
        "country": [rng.choice(_COUNTRIES) for _ in range(8)],
    })
    products = Table.from_dict({
        "p_id": [100 + i for i in range(5)],
        "category": [rng.choice(_CATEGORIES) for _ in range(5)],
    })
    return {"orders": orders, "customers": customers, "products": products}


#: ``col = literal`` filters the key-index probe binds.
_EQUALITY_ATOMS = ["o_id = {key}", "o_id = {missing}", "cust = 2",
                   "cust = 2.0", "cust = 2.5", "2 = cust", "amount = 3",
                   "amount = 2.25", "amount = 99.5"]

_IN_LISTS = [("status", ["'gold'", "'new'", "'vip'"]),
             ("cust", ["1", "3", "5"]),
             ("amount", ["2.25", "3", "7.5"])]

# ``/`` is true division, by zero NULL; ``-0.0`` equals ``0.0``;
# ``null is null`` folds to TRUE without consuming a plan-cache slot.
_ARITHMETIC_ATOMS = ["amount + 1 > 6", "cust * 2 = 4", "amount - cust > 3",
                     "amount / 2 > 3", "cust / 2 = 1", "amount / cust > 1",
                     "cust / 0 is null", "amount = -0.0", "null is null"]


def _random_predicate(rng: random.Random, columns: list[str]) -> str:
    def atom() -> str:
        kind = rng.randrange(8)
        if kind == 0:
            return f"amount > {rng.randrange(64) / 4.0}"
        if kind == 1:
            low, high = rng.randrange(8), rng.randrange(8, 16)
            if rng.random() < 0.2:
                low, high = high, low
            return f"amount between {low} and {high}"
        if kind == 2:
            column, pool = rng.choice(_IN_LISTS)
            values = rng.sample(pool, 2) + (["null"] if rng.random() < 0.3
                                            else [])
            neg = "not " if rng.random() < 0.3 else ""
            return f"{column} {neg}in ({', '.join(values)})"
        if kind == 3:
            return f"cust = {rng.randrange(8)}"
        dimensions = [c for c in ("country", "category") if c in columns]
        if kind == 4 and dimensions:
            column = rng.choice(dimensions)
            pool = ["jp", "us", "de"] if column == "country" else _CATEGORIES
            return f"{column} = '{rng.choice(pool)}'"
        if kind == 5:
            return rng.choice(_EQUALITY_ATOMS).format(
                key=rng.randrange(120), missing=1000 + rng.randrange(5))
        if kind == 6:
            return rng.choice(_ARITHMETIC_ATOMS)
        return "amount is not null" if rng.random() < 0.5 else \
            "status is null"

    def maybe_not(text: str) -> str:
        return f"not ({text})" if rng.random() < 0.2 else text

    parts = [maybe_not(atom()) for _ in range(rng.randrange(1, 4))]
    joiner = " and " if rng.random() < 0.7 else " or "
    return maybe_not(joiner.join(parts))


def _random_query(rng: random.Random) -> str:
    joins = []
    columns = ["o_id", "cust", "prod", "amount", "status"]
    if rng.random() < 0.5:
        joins.append("join customers on cust = cust")
        columns += ["country"]
    if rng.random() < 0.5:
        joins.append("join products on prod = p_id")
        columns += ["category"]
    where = ""
    if rng.random() < 0.8:
        where = " where " + _random_predicate(rng, columns)
    shape = rng.randrange(4)
    order = limit = group = ""
    if shape == 0:                       # SELECT *
        select = "*"
        if rng.random() < 0.5:
            order = f" order by {rng.choice(columns)}"
    elif shape == 1:                     # plain projection
        cols = rng.sample(columns, rng.randrange(1, min(4, len(columns))))
        select = ", ".join(cols)
        if rng.random() < 0.5:
            order = f" order by {rng.choice(columns)}"
    elif shape == 2:                     # computed projection
        select = "o_id, amount * 2 as a2, amount + 1 as a1"
        if rng.random() < 0.5:
            order = " order by o_id"
    else:                                # group by
        keys = rng.sample([c for c in ("status", "cust", "country",
                                       "category") if c in columns],
                          rng.randrange(1, 3))
        aggs = ["count(*) as n", "sum(amount) as s", "avg(amount) as m",
                "min(amount) as lo", "count(amount) as c",
                "max(amount) as hi", "min(status) as st"]
        select = ", ".join(keys + rng.sample(aggs, rng.randrange(1, 4)))
        group = f" group by {', '.join(keys)}"
        if rng.random() < 0.5:
            order = f" order by {rng.choice(keys)}"
    if rng.random() < 0.3:
        limit = f" limit {rng.randrange(1, 20)}"
    return (f"select {select} from orders {' '.join(joins)}"
            f"{where}{group}{order}{limit}")


_LITERAL = re.compile(r"'[^']*'|(?<![\w.])\d+\.\d+|(?<![\w.])\d+")
_WORDS = ["gold", "new", "vip", "jp", "us", "de", "tools", "toys", "zz"]


def sibling(sql: str, rng: random.Random) -> str:
    """``sql`` with every literal redrawn from the same kind, except the
    LIMIT count, which is part of the plan-cache template key."""
    def redraw(match):
        text = match.group()
        if text.startswith("'"):
            return f"'{rng.choice(_WORDS)}'"
        if sql[:match.start()].endswith("limit "):
            return text
        if "." in text:
            return str(rng.randrange(64) / 4.0)
        return str(rng.randrange(1, 20))

    return _LITERAL.sub(redraw, sql)


def _sqlite_db(tables: dict):
    types = {"int": "INTEGER", "float": "REAL", "str": "TEXT"}
    conn = sqlite3.connect(":memory:")
    for name, table in tables.items():
        cols = ", ".join(f"{f.name} {types[f.dtype]}" for f in table.schema)
        conn.execute(f"CREATE TABLE {name} ({cols})")
        marks = ", ".join("?" * table.num_columns)
        conn.executemany(f"INSERT INTO {name} VALUES ({marks})",
                         list(table.rows()))
    return conn


def _sqlite_text(sql: str, names: list[str]) -> str:
    """Our dialect in sqlite.  ``*`` is spelled out as our output
    ``names`` (joins drop the duplicate key, sqlite keeps it), joins are
    spelled out, the ambiguous ``cust`` is qualified, and ``a / b``
    becomes ``a * 1.0 / b``: sqlite divides ints as ints, ours is true
    division, and ``*`` and ``/`` associate left, so this is exact."""
    sql = sql.replace("select *", "select " + ", ".join(names), 1)
    sql = sql.replace(" / ", " * 1.0 / ")
    sql = sql.replace("join customers on cust = cust",
                      "join customers on orders.cust = customers.cust")
    sql = sql.replace("join products on prod = p_id",
                      "join products on orders.prod = products.p_id")
    return re.sub(r"(?<![\w.])cust\b", "orders.cust", sql)


# -- the engines ------------------------------------------------------------------


class _Static:
    """The static tables as the sqlite, naive and sharded engines read
    them, with per SQL text naive SQL's answer, its encoded bytes and
    sqlite's bag (None for a LIMIT draw: its rows depend on tie order)."""

    def __init__(self, tables: dict[str, Table]):
        self.tables = tables
        self.conn = _sqlite_db(tables)
        self.db = Database(tables)
        self.sharded = {k: Database({**tables, "orders": PartitionedTable
                                     .partition(tables["orders"],
                                                keys=["cust"], num_shards=k)})
                        for k in (1, 2, 7)}
        self._references: dict[str, tuple] = {}

    def reference(self, sql: str) -> tuple[Table, bytes, Counter | None]:
        if sql not in self._references:
            naive = self.db.query(sql, optimizer=False)
            lite = None if " limit " in sql else Counter(self.conn.execute(
                _sqlite_text(sql, naive.schema.names)).fetchall())
            self._references[sql] = naive, encode_table(naive), lite
        return self._references[sql]


def _naive(static: _Static, drawn: str, sib: str):
    for sql in (drawn, sib):
        yield "naive", sql, static.reference(sql)[0], False


def _plan_cache(static: _Static, drawn: str, sib: str):
    """Optimized SQL on a fresh plan cache (a miss), the sibling (a hit)
    and the drawn query served through ``SqlBackend`` (a hit)."""
    db = Database(static.tables)
    server = Server(workers=0)
    server.register(SqlBackend(db))
    counters = [metrics.counter(f"sql.plan_cache.{status}")
                for status in ("miss", "hit")]
    before = [counter.value for counter in counters]
    optimized, hit = db.query(drawn), db.query(sib)
    served = server.call("sql", drawn)
    assert served.ok, (drawn, served.error)
    assert [counter.value - n for counter, n in zip(counters, before)] == \
        [1, 2], (drawn, sib)
    yield "optimized", drawn, optimized, True
    yield "sibling", sib, hit, True
    yield "served", drawn, served.value, True


def _sharded(static: _Static, drawn: str, sib: str):
    # LIMIT without a total order differs across partition layouts.
    if " limit " not in drawn:
        for k, db in static.sharded.items():
            yield f"{k} shards", drawn, db.query(drawn), False


#: Each engine yields ``(label, sql, answer, exact)``; an exact answer
#: must equal naive SQL's byte for byte.
ENGINES = (_naive, _plan_cache, _sharded)


def _mismatch(static: _Static, drawn: str, sib: str):
    """``(label, sql, why)`` for the first answer that disagrees, or None."""
    for engine in ENGINES:
        for label, sql, got, exact in engine(static, drawn, sib):
            naive, encoded, lite = static.reference(sql)
            if exact and encode_table(got) != encoded:
                return label, sql, "differs from naive SQL byte for byte"
            if got.schema.names != naive.schema.names:
                return label, sql, "columns differ from naive SQL"
            if lite is not None and Counter(got.rows()) != lite:
                return label, sql, "differs from sqlite3 as a bag"
    return None


def _check_static(seed: int, static: _Static, drawn: str, sib: str) -> None:
    found = _mismatch(static, drawn, sib)
    if found is None:
        return
    # Greedy row deletion while the same engine still disagrees.
    tables = static.tables
    for name in tables:
        i = 0
        while i < tables[name].num_rows:
            keep = np.arange(tables[name].num_rows) != i
            smaller = {**tables, name: tables[name].filter(keep)}
            again = _mismatch(_Static(smaller), drawn, sib)
            if again is not None and again[0] == found[0]:
                tables, found = smaller, again
            else:
                i += 1
    label, sql, why = found
    rows = "\n".join(f"  {name}{table.schema.names}: {list(table.rows())}"
                     for name, table in tables.items())
    pytest.fail(f"seed {seed}: {label} {why}\n  {sql}\nrows left:\n{rows}")


# One push of 2 to 150 rows per batch, inserts and deletes mixed; deletes
# draw from the live rows and the batch's inserts, which they may cancel.
_BATCHES = (("orders", 5, 3), ("customers", 2, 2), ("orders", 80, 70),
            ("orders", 2, 0))


def _maintained(rng: random.Random, tables: dict[str, Table],
                pairs: list[tuple[str, str]]):
    """A stream database over ``tables`` with a view per draw that
    ``create_view`` accepts, after ``_BATCHES``, and per view the SQL that
    reads it.  Each draw's sibling and each view read run through
    ``query`` before the last push, so the same templates after it are
    plan-cache hits wherever they may be reused."""
    live = Database()
    streams = {name: live.register_stream(name, table)
               for name, table in tables.items()}
    views = []
    for i, (sql, _sib) in enumerate(pairs):
        try:
            live.create_view(f"v{i}", sql)
            views.append((sql, f"select * from v{i}"))
        except IvmError:
            assert " group by " not in sql, sql
    next_id = tables["orders"].num_rows
    for step, (name, inserts, deletes) in enumerate(_BATCHES):
        if step == len(_BATCHES) - 1:
            for _sql, read in pairs + views:
                live.query(read)
        if name == "customers":
            rows = [(rng.randrange(10), rng.choice(_COUNTRIES))
                    for _ in range(inserts)]
        else:
            rows = [(next_id + row[0],) + row[1:] for row in
                    _random_tables(rng, inserts)["orders"].rows()]
            next_id += inserts
        stream = streams[name]
        gone = rng.sample(list(stream.snapshot().rows()) + rows, deletes)
        stream.push(ZSet(Table.from_rows(rows + gone, schema=stream.schema),
                         [1] * inserts + [-1] * deletes))
    return live, views


def _check_stream(seed: int, static: _Static, sql: str, got: Table) -> None:
    naive, _, lite = static.reference(sql)
    assert got.schema == naive.schema, (seed, sql)
    if lite is not None:
        assert Counter(got.rows()) == lite, (seed, sql)


# -- the harness ----------------------------------------------------------------


#: What each seed's draws exercised, filled by test_every_engine_agrees so
#: that the coverage test reads it instead of running the seeds again (a
#: seed's result is deterministic, so a cached one equals a fresh one).
_COVERAGE: dict[int, set[str]] = {}


def _run(seed: int) -> set[str]:
    """Check one seed's 25 draws on every engine; returns what they
    exercised: the optimizer rules that fired, ``columnar[index]``, and
    ``stream hit`` / ``view hit`` for plan-cache hits across a push."""
    rng = random.Random(seed)
    tables = _random_tables(rng, 60 + rng.randrange(60))
    pairs = [(sql, sibling(sql, rng))
             for sql in [_random_query(rng) for _ in range(25)]]
    live, views = _maintained(rng, tables, pairs)
    static = _Static({name: live.stream(name).snapshot()
                      for name in tables})
    for sql, sib in pairs:
        _check_static(seed, static, sql, sib)
    seen: set[str] = set()
    hits = metrics.counter("sql.plan_cache.hit")
    for sql, read in views:
        before = hits.value
        _check_stream(seed, static, sql, live.query(read))
        assert hits.value == before + 1, (seed, read)
        seen.add("view hit")
    for sql, _sib in pairs:
        text = live.explain(sql)
        seen.update(re.findall(r"^  - (\w+):", text, re.M))
        if "[columnar[index]]" in text:
            seen.add("columnar[index]")
        before = hits.value
        _check_stream(seed, static, sql, live.query(sql))
        if hits.value > before:
            seen.add("stream hit")
    return seen


@pytest.mark.parametrize("seed", range(30))
def test_every_engine_agrees(seed):
    _COVERAGE[seed] = _run(seed)


def test_every_rule_and_cache_path_fires():
    """Over the 30 seeds, every optimizer rule, the key-index probe and
    a plan-cache hit on a stream read and on a view read across a push
    each happen at least once (seeds not yet run are run here)."""
    seen = set().union(*(_COVERAGE[seed] if seed in _COVERAGE
                         else _run(seed) for seed in range(30)))
    assert seen >= {"constant_folding", "predicate_pushdown",
                    "view_substitution", "projection_pruning",
                    "join_reorder", "columnar[index]", "stream hit",
                    "view hit"}, seen


def test_shrinker_reports_a_smaller_repro(monkeypatch):
    def drops_a_row(static, drawn, sib):
        got = static.reference(drawn)[0]
        yield "drops a row", drawn, got.filter(np.arange(got.num_rows) > 0), \
            False

    monkeypatch.setattr(f"{__name__}.ENGINES", (drops_a_row,))
    tables = _random_tables(random.Random(0), 40)
    sql = "select o_id, amount from orders where amount > 3"
    with pytest.raises(pytest.fail.Exception) as info:
        _check_static(0, _Static(tables), sql, sql)
    # One orders row is the smallest input the engine still gets wrong.
    head, orders, customers, products = str(info.value).rsplit("\n", 3)
    assert head.startswith("seed 0: drops a row differs from sqlite3")
    assert sql in head
    assert orders.count("(") == 1 and orders.endswith(")]")
    assert customers.endswith(": []") and products.endswith(": []")


@pytest.mark.parametrize("sql", [
    "select o_id, 1 / 0 as d, 1 + null as e from orders",
    "select o_id, -(1 / 0) as d, 1 / 0 = 1 as e from orders",
    "select cust, sum(1 / 0) as s from orders group by cust",
])
def test_items_folding_to_null_keep_one_dtype(sql):
    """Constant folding leaves an item that folds to NULL to the
    schema-typed evaluator, so every engine reports naive SQL's dtype."""
    static = _Static(_random_tables(random.Random(0), 20))
    assert _mismatch(static, sql, sql) is None
