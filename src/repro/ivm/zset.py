"""Z-sets: weighted multisets on the columnar core.

A :class:`ZSet` pairs an ordinary :class:`~repro.table.Table` payload with
an int64 weight vector — one weight per payload row.  A table is the
special case where every weight is ``+1``; a batch of changes (a *delta*)
is a Z-set whose weights are ``+1`` for inserted rows and ``-1`` for
deleted ones.  State mutation is algebraic summation: applying a delta is
``state + delta`` (:meth:`~ZSet.concat` for many parts at once) followed
by :meth:`~ZSet.consolidate`, which sums weights of equal rows (grouped by
the content row hash of :mod:`repro.table.hashing`, confirmed by exact
equality with nulls matching nulls) and physically drops rows whose
weights annihilate to zero — the DBSP "Ghost property" (SNIPPETS.md
Snippet 3).

Payloads ride the trusted-construction path throughout: every operation
derives new tables from already-validated column arrays via ``take`` /
``compress`` / ``concat``, so no per-cell validation ever re-runs inside
the delta layer.

Exactness: the algebra is exact for int/str/bool payloads.  Float
aggregation downstream (:class:`~repro.ivm.operators.GroupByNode`) re-sums
in trace order, so float sums are order-sensitive at the ULP level unless
the values lie on a dyadic grid (docs/ivm.md, "float exactness").
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import IvmError
from repro.table import Schema, Table, hash_rows
from repro.table.hashing import distinct_rows


class ZSet:
    """An immutable weighted multiset: ``payload`` rows + int64 ``weights``.

    Not necessarily consolidated — the same row may appear several times
    with partial weights; :meth:`consolidate` produces the canonical form.
    """

    __slots__ = ("payload", "weights")

    def __init__(self, payload: Table, weights: np.ndarray | Sequence[int]):
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != (payload.num_rows,):
            raise IvmError(
                f"weights shape {weights.shape} does not match payload of "
                f"{payload.num_rows} rows"
            )
        self.payload = payload
        self.weights = weights

    # -- construction -----------------------------------------------------

    @classmethod
    def from_table(cls, table: Table, weight: int = 1) -> "ZSet":
        """Lift a table: every row carries ``weight`` (``+1`` = the table
        itself, ``-1`` = its retraction)."""
        return cls(table, np.full(table.num_rows, weight, dtype=np.int64))

    @classmethod
    def empty(cls, schema: Schema | Sequence[tuple[str, str]]) -> "ZSet":
        return cls.from_table(Table.empty(schema))

    # -- inspection -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.payload.schema

    def __len__(self) -> int:
        """Number of physical entries (pre-consolidation)."""
        return self.payload.num_rows

    @property
    def is_empty(self) -> bool:
        """True when no entry carries weight (cheap; no consolidation)."""
        return len(self) == 0 or not self.weights.any()

    @property
    def weight_total(self) -> int:
        """Net cardinality: the sum of all weights."""
        return int(self.weights.sum())

    def __repr__(self) -> str:
        return (f"ZSet({self.schema!r}, entries={len(self)}, "
                f"net={self.weight_total})")

    def entries(self) -> list[tuple[tuple[Any, ...], int]]:
        """``(row, weight)`` pairs in physical order (python values)."""
        return list(zip(self.payload.rows(), self.weights.tolist()))

    def weight_by_row(self) -> dict[tuple[Any, ...], int]:
        """Net weight per distinct row — the mathematical Z-set.

        Zero-weight rows are dropped, so two Z-sets are equal as functions
        exactly when their dicts are equal (the test oracle for
        consolidation-order independence).
        """
        out: dict[tuple[Any, ...], int] = {}
        for row, weight in self.entries():
            total = out.get(row, 0) + weight
            if total:
                out[row] = total
            else:
                out.pop(row, None)
        return out

    # -- algebra ----------------------------------------------------------

    @staticmethod
    def concat(parts: Sequence["ZSet"]) -> "ZSet":
        """N-ary addition: one concatenation per column and one for the
        weights, so summing ``k`` parts copies each row once (a pairwise
        ``+`` fold would copy the early parts ``k`` times)."""
        first = parts[0]
        if len(parts) == 1:
            return first
        for part in parts[1:]:
            if part.schema != first.schema:
                raise IvmError(
                    f"z-set addition needs identical schemas: "
                    f"{first.schema} vs {part.schema}"
                )
        return ZSet(Table.concat([p.payload for p in parts]),
                    np.concatenate([p.weights for p in parts]))

    def __add__(self, other: "ZSet") -> "ZSet":
        return ZSet.concat([self, other])

    def negate(self) -> "ZSet":
        return ZSet(self.payload, -self.weights)

    def __sub__(self, other: "ZSet") -> "ZSet":
        return self + other.negate()

    def scale(self, factor: int) -> "ZSet":
        return ZSet(self.payload, self.weights * int(factor))

    def consolidate(self) -> "ZSet":
        """Canonical form: one entry per distinct row, weights summed,
        zero-weight rows dropped, first-appearance order kept."""
        n = len(self)
        if n == 0:
            return self
        columns = self.payload.columns()
        heads, group = distinct_rows(hash_rows(columns), columns)
        totals = np.zeros(len(heads), dtype=np.int64)
        np.add.at(totals, group, self.weights)
        live = totals != 0
        if len(heads) == n and live.all():
            return self                   # already consolidated
        return ZSet(self.payload._take(heads[live]), totals[live])

    # -- row kernels (weights ride along) ---------------------------------

    def compress(self, keep: np.ndarray) -> "ZSet":
        return ZSet(self.payload.filter(keep), self.weights[np.asarray(keep, dtype=bool)])

    def take(self, indices: np.ndarray) -> "ZSet":
        idx = np.asarray(indices, dtype=np.intp)
        return ZSet(self.payload._take(idx), self.weights[idx])

    def project(self, names: Iterable[str]) -> "ZSet":
        return ZSet(self.payload.project(list(names)), self.weights)

    def rename(self, mapping: dict[str, str]) -> "ZSet":
        return ZSet(self.payload.rename(mapping), self.weights)

    # -- materialization --------------------------------------------------

    def to_table(self) -> Table:
        """Materialize as a plain table (rows repeat per weight).

        Raises :class:`~repro.errors.IvmError` when any consolidated weight
        is negative — a negative multiplicity has no table reading, and
        surfacing it beats silently clamping a bookkeeping bug.
        """
        return self.consolidate().expand()

    def expand(self) -> Table:
        """:meth:`to_table` of an already consolidated Z-set: each row
        repeated per its weight, without consolidating again."""
        if len(self) == 0:
            return self.payload
        if (self.weights < 0).any():
            bad = int((self.weights < 0).sum())
            raise IvmError(
                f"cannot materialize z-set with {bad} negative-weight rows"
            )
        if (self.weights == 1).all():
            return self.payload
        return self.payload._take(
            np.repeat(np.arange(len(self)), self.weights)
        )

    def same_zset(self, other: "ZSet") -> bool:
        """Equality as mathematical Z-sets (order/consolidation agnostic)."""
        if self.schema != other.schema:
            return False
        return self.weight_by_row() == other.weight_by_row()


class Delta(ZSet):
    """A batch of ``(row, ±1)`` updates — a Z-set by another name.

    The subclass exists for intent at call sites (``push(delta)``) and for
    the insert/delete constructors; every operator treats it as a plain
    Z-set.
    """

    @classmethod
    def inserts(cls, table: Table) -> "Delta":
        """Every row of ``table`` with weight ``+1``."""
        return cls(table, np.ones(table.num_rows, dtype=np.int64))

    @classmethod
    def deletes(cls, table: Table) -> "Delta":
        """Every row of ``table`` with weight ``-1``."""
        return cls(table, np.full(table.num_rows, -1, dtype=np.int64))

    @classmethod
    def of(cls, table: Table, weights: np.ndarray | Sequence[int]) -> "Delta":
        return cls(table, weights)
