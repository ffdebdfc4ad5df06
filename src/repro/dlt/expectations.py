"""Data-quality expectations: vectorized row predicates with three
enforcement levels.

An :class:`Expectation` names a contract over a table's rows and says what
happens to violators:

- ``warn``  — count and log the violations, keep every row;
- ``drop``  — route violating rows to the table's quarantine (with the
  expectation name and a per-row reason) and keep the rest;
- ``fail``  — abort the table (and, per the run's ``on_error`` policy, its
  downstream) with :class:`~repro.errors.ExpectationFailedError`.

Predicates are vectorized over column arrays — a predicate maps a
:class:`~repro.table.Table` to one boolean numpy mask (``True`` = the row
passes).  Three ways to build one:

- the :func:`col` expression DSL, which builds :mod:`repro.sql`
  expressions and evaluates them with the SQL engine's WHERE mask::

      expect_or_drop("positive_amount", col("amount") > 0)
      expect("known_status", col("status").is_in({"paid", "shipped"}))
      expect_or_fail("has_key", col("order_id").not_null())

  Predicates follow SQL's three-valued logic and pass only TRUE rows: a
  comparison with a null is unknown and *violates* the expectation, and
  so does its negation (only :meth:`ColumnExpr.is_null` passes nulls), so
  contracts never silently wave unknown values through.

- any ``table -> bool mask`` callable, via :meth:`Predicate.wrap`;

- a ``repro.cleaning`` detector, via :func:`from_detector` — the paper's
  detection techniques become enforceable contracts: rows with any flagged
  cell violate, and each quarantined row carries the detector's reason.

Predicates compose with ``&``, ``|`` and ``~``; between two :func:`col`
predicates these build SQL ``and`` / ``or`` / ``not``.  ``~`` over an
opaque predicate (a callable, a detector, :meth:`ColumnExpr.matches`)
complements its mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.cleaning.detection import Detector, Flag
from repro.errors import DltError
from repro.sql.ast import BinaryOp, ColumnRef, Expr, Literal, UnaryOp
from repro.sql.expr import WhereMask, render_expr
from repro.table import Table

#: The three enforcement levels, in escalating order.
ACTIONS = ("warn", "drop", "fail")


class Predicate:
    """A vectorized row predicate: ``mask(table)`` → boolean keep-mask."""

    #: Human-readable contract text; part of the table fingerprint, so
    #: changing a predicate's meaning (and description) dirties the table.
    description: str = "custom predicate"

    def mask(self, table: Table) -> np.ndarray:
        raise NotImplementedError

    def reasons(self, table: Table, failing: np.ndarray) -> list[str]:
        """One violation reason per failing row index (quarantine column).

        The default repeats the predicate description; predicates with
        per-row evidence (detectors) override.
        """
        return [self.description] * len(failing)

    # -- composition -------------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return _Combined("and", self, Predicate.wrap(other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return _Combined("or", self, Predicate.wrap(other))

    def __invert__(self) -> "Predicate":
        return _Negated(self)

    @staticmethod
    def wrap(obj: "Predicate | Callable[[Table], np.ndarray]",
             description: str | None = None) -> "Predicate":
        """Coerce a predicate-shaped object into a :class:`Predicate`."""
        if isinstance(obj, Predicate):
            return obj
        if callable(obj):
            return _FnPredicate(obj, description)
        raise DltError(
            f"expected a Predicate or a table->mask callable, got {obj!r}"
        )


class _FnPredicate(Predicate):
    """Adapter for a plain ``table -> mask`` callable."""

    def __init__(self, fn: Callable[[Table], np.ndarray],
                 description: str | None = None):
        self._fn = fn
        self.description = description or getattr(fn, "__name__", "predicate")

    def mask(self, table: Table) -> np.ndarray:
        out = np.asarray(self._fn(table), dtype=bool)
        if out.shape != (table.num_rows,):
            raise DltError(
                f"predicate {self.description!r} returned shape {out.shape}, "
                f"expected ({table.num_rows},)"
            )
        return out


class _Combined(Predicate):
    def __init__(self, op: str, left: Predicate, right: Predicate):
        self._op = op
        self._left = left
        self._right = right
        joiner = " and " if op == "and" else " or "
        self.description = f"({left.description}{joiner}{right.description})"

    def mask(self, table: Table) -> np.ndarray:
        left, right = self._left.mask(table), self._right.mask(table)
        return (left & right) if self._op == "and" else (left | right)


class _Negated(Predicate):
    def __init__(self, inner: Predicate):
        self._inner = inner
        self.description = f"not {inner.description}"

    def mask(self, table: Table) -> np.ndarray:
        return ~self._inner.mask(table)


class _ExprPredicate(Predicate):
    """A :mod:`repro.sql` expression as a row predicate: the mask is the
    SQL WHERE mask (TRUE passes; FALSE and NULL violate), the description
    the expression's SQL text."""

    def __init__(self, expr: Expr):
        self.expr = expr
        self.description = render_expr(expr)
        self._where = WhereMask(expr)

    def mask(self, table: Table) -> np.ndarray:
        return self._where(table)

    def _logic(self, op: str, other: Any) -> Predicate:
        other = Predicate.wrap(other)
        if isinstance(other, _ExprPredicate):
            return _ExprPredicate(BinaryOp(op, self.expr, other.expr))
        return _Combined(op, self, other)

    def __and__(self, other: Any) -> Predicate:
        return self._logic("and", other)

    def __or__(self, other: Any) -> Predicate:
        return self._logic("or", other)

    def __invert__(self) -> Predicate:
        return _ExprPredicate(UnaryOp("not", self.expr))


def _balanced(op: str, terms: list[Expr]) -> Expr:
    """``t0 op t1 op ...`` as a balanced tree, so evaluation recurses
    log(len(terms)) deep however long an ``is_in`` list gets."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return BinaryOp(op, _balanced(op, terms[:mid]),
                    _balanced(op, terms[mid:]))


@dataclass(frozen=True, eq=False)
class ColumnExpr:
    """A named column inside a predicate expression — see :func:`col`.

    ``eq=False``: ``==``/``!=`` build predicates instead of comparing
    expression objects.
    """

    name: str

    def _compare(self, op: str, other: Any) -> Predicate:
        right = (ColumnRef(other.name) if isinstance(other, ColumnExpr)
                 else Literal(other))
        return _ExprPredicate(BinaryOp(op, ColumnRef(self.name), right))

    def __gt__(self, other: Any) -> Predicate:
        return self._compare(">", other)

    def __ge__(self, other: Any) -> Predicate:
        return self._compare(">=", other)

    def __lt__(self, other: Any) -> Predicate:
        return self._compare("<", other)

    def __le__(self, other: Any) -> Predicate:
        return self._compare("<=", other)

    def __eq__(self, other: Any) -> Predicate:  # type: ignore[override]
        return self._compare("=", other)

    def __ne__(self, other: Any) -> Predicate:  # type: ignore[override]
        return self._compare("<>", other)

    def not_null(self) -> Predicate:
        return ~self.is_null()

    def is_null(self) -> Predicate:
        return _ExprPredicate(UnaryOp("isnull", ColumnRef(self.name)))

    def is_in(self, values: Iterable[Any]) -> Predicate:
        """``name = v0 or name = v1 ...`` over the distinct values, ordered
        by ``repr`` so the description (and fingerprint) never depends on
        set order; an empty list passes no row."""
        by_repr = {repr(v): v for v in values}
        if not by_repr:
            return _ExprPredicate(Literal(False))
        ref = ColumnRef(self.name)
        return _ExprPredicate(_balanced("or", [
            BinaryOp("=", ref, Literal(by_repr[key]))
            for key in sorted(by_repr)
        ]))

    def between(self, lo: Any, hi: Any) -> Predicate:
        return (self >= lo) & (self <= hi)

    def matches(self, pattern: str) -> Predicate:
        """Regex full match over non-null cells (an opaque predicate)."""
        compiled = re.compile(pattern)
        name = self.name

        def mask(table: Table) -> np.ndarray:
            values, null = table.column_array(name), table.null_mask(name)
            out = np.zeros(table.num_rows, dtype=bool)
            for i in np.flatnonzero(~null).tolist():
                out[i] = compiled.fullmatch(str(values[i])) is not None
            return out

        return Predicate.wrap(mask, f"{name} matches {pattern!r}")


def col(name: str) -> ColumnExpr:
    """Start a column predicate expression: ``col("amount") > 0``."""
    return ColumnExpr(name)


def not_null(*names: str) -> Predicate:
    """All of ``names`` are non-null (conjunction of ``col(n).not_null()``)."""
    if not names:
        raise DltError("not_null() needs at least one column name")
    out = col(names[0]).not_null()
    for name in names[1:]:
        out = out & col(name).not_null()
    return out


class DetectorPredicate(Predicate):
    """A ``repro.cleaning`` detector as a row contract.

    A row violates when the detector flags any of its cells (optionally
    restricted to ``columns``); each quarantined row carries the detector's
    own reason text — the paper's detection techniques as enforceable
    expectations.
    """

    def __init__(self, detector: Detector, columns: Iterable[str] | None = None,
                 description: str | None = None):
        self.detector = detector
        self.columns = tuple(columns) if columns is not None else None
        self.description = description or (
            f"no {type(detector).__name__} flags"
            + (f" on {list(self.columns)}" if self.columns else "")
        )
        self._cache: tuple[Table, list[Flag]] | None = None

    def _flags(self, table: Table) -> list[Flag]:
        if self._cache is not None and self._cache[0] is table:
            return self._cache[1]
        flags = self.detector.detect(table)
        if self.columns is not None:
            flags = [f for f in flags if f.column in self.columns]
        self._cache = (table, flags)
        return flags

    def mask(self, table: Table) -> np.ndarray:
        out = np.ones(table.num_rows, dtype=bool)
        for flag in self._flags(table):
            out[flag.row] = False
        return out

    def reasons(self, table: Table, failing: np.ndarray) -> list[str]:
        by_row: dict[int, list[str]] = {}
        for flag in self._flags(table):
            by_row.setdefault(flag.row, []).append(
                f"{flag.column}: {flag.reason}"
            )
        return [
            "; ".join(by_row.get(int(i), [self.description]))
            for i in failing
        ]


def from_detector(detector: Detector, columns: Iterable[str] | None = None,
                  description: str | None = None) -> DetectorPredicate:
    """Wrap a cleaning detector as an expectation predicate."""
    return DetectorPredicate(detector, columns=columns, description=description)


@dataclass(frozen=True)
class Expectation:
    """One named contract plus its enforcement level."""

    name: str
    predicate: Predicate
    action: str  # one of ACTIONS

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise DltError(
                f"expectation action must be one of {ACTIONS}, "
                f"got {self.action!r}"
            )

    def signature(self) -> tuple[str, str, str]:
        """The fingerprint-relevant identity of this expectation."""
        return (self.name, self.action, self.predicate.description)
