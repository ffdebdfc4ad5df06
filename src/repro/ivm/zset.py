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

A :class:`Ledger` is the in-place form of a consolidated Z-set, and the
one kind of weighted-row state ``repro.ivm`` keeps: a stream's rows, a
group-by's groups, a distinct's rows and an integrate node's output
(docs/ivm.md, "State on arrays").
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import IvmError
from repro.table import NUMPY_DTYPES, Column, HashIndex, Schema, Table, hash_rows
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

    def weight_by_row(self) -> dict[tuple[Any, ...], int]:
        """Net weight per distinct row — the mathematical Z-set.

        Zero-weight rows are dropped, so two Z-sets are equal as functions
        exactly when their dicts are equal (the test oracle for
        consolidation-order independence).
        """
        out: dict[tuple[Any, ...], int] = {}
        for row, weight in zip(self.payload.rows(), self.weights.tolist()):
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
        """Each row repeated per its weight, without consolidating: the
        bag of :meth:`to_table` for any nonnegative weights."""
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


class Ledger:
    """A consolidated Z-set kept in place: distinct rows in column buffers
    (first-appearance order, capacity doubling), an int64 weight each, and
    a :class:`~repro.table.HashIndex` over the rows' content hashes, every
    candidate confirmed by exact equality.  :meth:`add` nets a batch
    against the stored weights and appends the unseen rows — O(batch),
    amortized.  A row whose weight returns to zero is never matched or
    rewritten again; :meth:`compact` drops such rows once they are half
    the physical rows, so a ledger holds at most about twice its live rows
    plus one batch.  With zero columns every row is the one row ``()``.
    """

    __slots__ = ("schema", "name", "_values", "_masks", "_weights", "_n",
                 "_zeros", "_index")

    def __init__(self, schema: Schema, name: str) -> None:
        self.schema = schema
        self.name = name
        self._values = [np.empty(0, NUMPY_DTYPES[f.dtype]) for f in schema]
        self._masks = [np.empty(0, bool) for _ in schema]
        self._weights = np.empty(0, np.int64)
        self._n = 0
        self._zeros = 0
        self._index = HashIndex.build(np.empty(0, np.uint64))

    def __len__(self) -> int:
        """Physical rows, zero-weight rows not yet compacted included."""
        return self._n

    @property
    def live(self) -> int:
        """Rows of nonzero weight."""
        return self._n - self._zeros

    def columns(self, slots: np.ndarray | None = None) -> list[Column]:
        """The rows at ``slots``, or every physical row as views of the
        buffers (appends write past them; nothing rewrites a row)."""
        n = self._n
        cols = [Column(f.dtype, v[:n], m[:n])
                for f, v, m in zip(self.schema, self._values, self._masks)]
        return cols if slots is None else [col.take(slots) for col in cols]

    def zset(self) -> ZSet:
        """The net state: the rows of nonzero weight."""
        payload = Table.from_columns(self.schema, self.columns())
        weights = self._weights[:self._n]
        if not self._zeros:
            return ZSet(payload, weights.copy())
        keep = weights != 0
        return ZSet(payload.filter(keep), weights[keep])

    def add(self, columns: Sequence[Column], weights: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Add ``weights[i]`` copies of row ``i`` of ``columns``; raises
        :class:`~repro.errors.IvmError` before mutating anything if a
        weight would go negative.  Returns ``(slot, touched, old, new)``:
        each row's slot (-1 when unseen and netting to zero: not stored),
        and the slots touched, ascending, with their weights before and
        after."""
        k = len(weights)
        hashes = hash_rows(columns) if columns else np.zeros(k, np.uint64)
        found, at = self._index.probe(hashes, columns, self.columns())
        # A dead row is gone: an equal row arriving now is new, spelling
        # (0.0 vs -0.0) and all.
        live = self._weights[at] != 0
        found, at = found[live], at[live]
        slot = np.full(k, -1, np.int64)
        slot[found] = at
        # Stored rows the batch touches, with their new weights.
        touched, which = np.unique(at, return_inverse=True)
        new = np.zeros(len(touched), np.int64)
        np.add.at(new, which, weights[found])
        old = self._weights[touched]
        new += old
        # Unseen rows, grouped by content.
        fresh = np.flatnonzero(slot < 0)
        if len(fresh) < k:
            columns = [col.take(fresh) for col in columns]
        heads, group = distinct_rows(hashes[fresh], columns)
        added = np.zeros(len(heads), np.int64)
        np.add.at(added, group, weights[fresh])
        bad = int((new < 0).sum() + (added < 0).sum())
        if bad:
            raise IvmError(
                f"push would leave {bad} rows of {self.name} with negative "
                f"multiplicity (deleting absent rows?)"
            )
        self._weights[touched] = new
        self._zeros += int((new == 0).sum())
        stored = added > 0
        ids = self._n + np.cumsum(stored) - 1
        slot[fresh] = np.where(stored[group], ids[group], -1)
        heads = heads[stored]
        if len(heads):
            self._append([col.take(heads) for col in columns],
                         added[stored], hashes[fresh[heads]])
        return (slot, np.concatenate([touched, ids[stored]]),
                np.concatenate([old, np.zeros(len(heads), np.int64)]),
                np.concatenate([new, added[stored]]))

    def _append(self, columns: list[Column], weights: np.ndarray,
                hashes: np.ndarray) -> None:
        n, k = self._n, len(weights)
        if n + k > len(self._weights):
            cap = max(2 * n, n + k)

            def grown(buffer: np.ndarray) -> np.ndarray:
                out = np.empty(cap, buffer.dtype)   # the tail stays unpaged
                out[:n] = buffer[:n]
                return out

            self._values = [grown(v) for v in self._values]
            self._masks = [grown(m) for m in self._masks]
            self._weights = grown(self._weights)
        for j, col in enumerate(columns):
            if col.values.dtype == object != self._values[j].dtype:
                # An oversized int moves the column to object storage.
                self._values[j] = self._values[j].astype(object)
            self._values[j][n:n + k] = col.values
            self._masks[j][n:n + k] = col.mask
        self._weights[n:n + k] = weights
        self._index = self._index.insert(hashes, np.arange(n, n + k))
        self._n = n + k

    def compact(self) -> bool:
        """Drop the zero-weight rows once they are half the physical rows
        (buffers shrink to the live rows, which renumber in order);
        whether that was due."""
        if 2 * self._zeros < self._n or not self._n:
            return False
        keep = self._weights[:self._n] != 0
        self._values = [v[:self._n][keep] for v in self._values]
        self._masks = [m[:self._n][keep] for m in self._masks]
        self._weights = self._weights[:self._n][keep]
        self._index = self._index.keep(keep)
        self._n = len(self._weights)
        self._zeros = 0
        return True
