"""The correctness oracle: stdlib ``sqlite3`` loaded with the generated
rows, which shares no code with the evaluator under test.

Results compare as bags of rows.  For ``ORDER BY`` the sequence of sort
keys must match too, and under ``LIMIT`` every returned row must belong to
the un-limited answer, so ties at the cut-off cannot cause a false alarm.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter

_ORDER = re.compile(r"ORDER BY (\w+)( DESC| ASC)?", re.IGNORECASE)
_LIMIT = re.compile(r"\s+LIMIT \d+\s*$", re.IGNORECASE)

_SQL_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT",
              "bool": "INTEGER"}


class Oracle:
    """An in-memory sqlite database plus the memoized answers of each
    distinct SQL text."""

    def __init__(self):
        self.db = sqlite3.connect(":memory:")
        self._answers: dict[str, tuple[list[str], list[tuple]]] = {}

    def load(self, name: str, fields, rows, index: str | None = None,
             key: str | None = None):
        """(Re)create table ``name``; ``key`` is a unique integer column
        stored as the rowid, ``index`` a column to index."""
        cols = ", ".join(
            f"{n} {_SQL_TYPES[d]}" + (" PRIMARY KEY" if n == key else "")
            for n, d in fields)
        self.db.execute(f"DROP TABLE IF EXISTS {name}")
        self.db.execute(f"CREATE TABLE {name} ({cols})")
        marks = ", ".join("?" for _ in fields)
        self.db.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
        if index:
            self.db.execute(f"CREATE INDEX {name}_{index} ON {name}({index})")
        self._answers.clear()

    def execute(self, sql: str, params=()) -> None:
        self.db.execute(sql, params)
        self._answers.clear()

    def executemany(self, sql: str, rows) -> None:
        self.db.executemany(sql, rows)
        self._answers.clear()

    def answer(self, sql: str) -> tuple[list[str], list[tuple]]:
        """Column names and rows sqlite returns for ``sql`` (memoized
        until the next write)."""
        cached = self._answers.get(sql)
        if cached is None:
            cur = self.db.execute(sql)
            cached = ([d[0] for d in cur.description], cur.fetchall())
            self._answers[sql] = cached
        return cached

    def check(self, sql: str, table) -> str | None:
        """``None`` when ``table`` is a correct answer to ``sql``, else a
        one-line description of the mismatch."""
        return compare(sql, table, self.answer)

    def close(self) -> None:
        self.db.close()


def table_rows(table) -> tuple[list[str], list[tuple]]:
    return list(table.schema.names), [tuple(r) for r in table.rows()]


def compare(sql: str, table, answer) -> str | None:
    names, rows = table_rows(table)
    want_names, want = answer(sql)
    if names != want_names:
        return f"columns {names} != {want_names}"
    order = _ORDER.search(sql)
    limited = _LIMIT.search(sql) is not None
    if order is not None:
        key = names.index(order.group(1))
        got_keys = [r[key] for r in rows]
        want_keys = [r[key] for r in want]
        if got_keys != want_keys:
            return f"order keys {got_keys[:5]} != {want_keys[:5]}"
    if limited:
        full = Counter(answer(_LIMIT.sub("", sql))[1])
        extra = Counter(rows) - full
        if extra:
            return f"rows not in the full answer: {list(extra)[:3]}"
        return None
    if Counter(rows) != Counter(want):
        missing = Counter(want) - Counter(rows)
        extra = Counter(rows) - Counter(want)
        return f"bag mismatch: missing {list(missing)[:3]} extra {list(extra)[:3]}"
    return None
