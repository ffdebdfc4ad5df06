"""Columnar storage: one numpy array + explicit null mask per column.

This is the physical layer under :class:`~repro.table.Table`.  Logical
dtypes map to numpy storage as follows (see docs/table.md):

==========  ==============  ==================
logical     numpy storage   null sentinel
==========  ==============  ==================
``int``     ``int64``       ``0``
``float``   ``float64``     ``nan``
``bool``    ``bool_``       ``False``
``str``     ``object``      ``None``
==========  ==============  ==================

The sentinel occupies masked slots so vectorized kernels can operate on the
whole ``values`` array without branching; the ``mask`` (True = null) is the
single source of truth for nullness.  A :class:`Column` is immutable by
convention — every operation returns a new instance, and tables freely share
column objects, so nothing may write to ``values``/``mask`` after
construction.

Immutability is what lets a column memoize derived data: :meth:`Column.lookup`
builds a sorted key index on first use and keeps it on the column, so
every table sharing the column (projections, renames, the stored table
a query scans) probes the same index without rebuilding or invalidating
it.  The memo is not pickled.

Trusted construction invariant: :meth:`Column.build` (and
``from_pylist(check=False)``) skip the per-cell type check.  They may only be
fed values that already conform to the logical dtype — the output of
:func:`~repro.table.schema.coerce`, of a vectorized kernel over validated
columns, or of a seeded dataset builder that constructs typed literals.
Everything arriving from outside goes through the checked path once, then
never again.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import SchemaError

#: logical dtype -> numpy storage dtype.
NUMPY_DTYPES: dict[str, Any] = {
    "int": np.int64,
    "float": np.float64,
    "bool": np.bool_,
    "str": object,
}

#: the NaN every :meth:`Column.to_pylist` returns.
NAN = float("nan")

#: logical dtype -> the value stored in masked (null) slots.
SENTINELS: dict[str, Any] = {
    "int": 0,
    "float": float("nan"),
    "bool": False,
    "str": None,
}

#: per-dtype "is this python value already valid" checks (bool is not a
#: number, matching :func:`repro.table.schema.validate`).
_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


def _to_numpy(filled: Sequence[Any], dtype: str) -> np.ndarray:
    """Convert an already-filled (no ``None`` except str) list to storage.

    Falls back to an object array when values exceed int64 — arbitrary
    precision ints stay correct, just off the fast path.
    """
    np_dtype = NUMPY_DTYPES[dtype]
    try:
        return np.array(filled, dtype=np_dtype)
    except OverflowError:
        return np.array(filled, dtype=object)


class Column:
    """One typed column: ``values`` (numpy) + ``mask`` (True = null)."""

    __slots__ = ("dtype", "values", "mask", "_key_index")

    def __init__(self, dtype: str, values: np.ndarray, mask: np.ndarray):
        self.dtype = dtype
        self.values = values
        self.mask = mask
        self._key_index: tuple[np.ndarray, np.ndarray] | None = None

    def __reduce__(self):
        # The key index is a cache: pickles (process-pool results) carry
        # the data only, and the receiver rebuilds the index on demand.
        return (Column, (self.dtype, self.values, self.mask))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_pylist(cls, values: Sequence[Any], dtype: str, *,
                    check: bool = True, name: str = "") -> "Column":
        """Build from a python list (``None`` = null).

        ``check=True`` runs the per-cell type validation exactly once; the
        trusted paths pass ``check=False`` (see module docstring).
        """
        values = values if isinstance(values, list) else list(values)
        if check:
            ok = _CHECKS[dtype]
            for v in values:
                if v is not None and not ok(v):
                    where = f"column {name!r}: " if name else ""
                    raise SchemaError(
                        f"{where}value {v!r} is not {dtype}"
                    )
        mask = np.fromiter(
            (v is None for v in values), dtype=bool, count=len(values)
        )
        if dtype != "str" and mask.any():
            sentinel = SENTINELS[dtype]
            filled: Sequence[Any] = [
                sentinel if v is None else v for v in values
            ]
        else:
            filled = values
        return cls(dtype, _to_numpy(filled, dtype), mask)

    @classmethod
    def build(cls, values: Sequence[Any], dtype: str) -> "Column":
        """Trusted fast-path constructor (no per-cell validation)."""
        return cls.from_pylist(values, dtype, check=False)

    @classmethod
    def empty(cls, dtype: str) -> "Column":
        return cls(dtype, np.empty(0, dtype=NUMPY_DTYPES[dtype]),
                   np.empty(0, dtype=bool))

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Column({self.dtype}, n={len(self)}, nulls={self.null_count})"

    @property
    def null_count(self) -> int:
        return int(self.mask.sum())

    def value_at(self, i: int) -> Any:
        """One cell as a python value (``None`` when null)."""
        if self.mask[i]:
            return None
        v = self.values[i]
        return v.item() if isinstance(v, np.generic) else v

    def to_pylist(self) -> list[Any]:
        """The whole column as python values with ``None`` nulls.  Every
        NaN is the one :data:`NAN` object, so python-keyed state (dicts,
        tuples) matches NaN to NaN by identity, as the numpy kernels'
        factorized codes do."""
        out = self.values.tolist()
        if self.dtype == "float":
            nan = np.isnan(self.values) & ~self.mask
            for i in np.flatnonzero(nan).tolist():
                out[i] = NAN
        if self.mask.any():
            for i in np.flatnonzero(self.mask).tolist():
                out[i] = None
        return out

    def equals(self, other: "Column") -> bool:
        """Mask-aware equality: nulls match nulls, values compare elementwise."""
        if len(self) != len(other):
            return False
        if not np.array_equal(self.mask, other.mask):
            return False
        valid = ~self.mask
        return bool(np.array_equal(self.values[valid], other.values[valid]))

    # -- kernels -----------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Fancy-indexed row gather."""
        return Column(self.dtype, self.values[indices], self.mask[indices])

    def take_or_null(self, indices: np.ndarray) -> "Column":
        """Gather where index ``-1`` produces a null (outer-join helper)."""
        indices = np.asarray(indices)
        if len(self.values) == 0:
            sentinel = SENTINELS[self.dtype]
            values = np.full(len(indices), sentinel,
                             dtype=NUMPY_DTYPES[self.dtype])
            return Column(self.dtype, values, np.ones(len(indices), dtype=bool))
        safe = np.where(indices < 0, 0, indices)
        return Column(self.dtype, self.values[safe],
                      self.mask[safe] | (indices < 0))

    def compress(self, keep: np.ndarray) -> "Column":
        """Boolean-mask row filter."""
        return Column(self.dtype, self.values[keep], self.mask[keep])

    def key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_values, rows)``: the non-null values in stable sorted
        order and the row id of each, so equal values keep row order.

        Built on first call and memoized on the column (see the module
        docstring).  Meant for numpy-typed storage; object columns (str,
        ints beyond int64) sort by python comparison.
        """
        index = self._key_index
        if index is None:
            rows = np.flatnonzero(~self.mask)
            values = self.values[rows]
            order = np.argsort(values, kind="stable")
            index = self._key_index = (values[order], rows[order])
        return index

    def lookup(self, keys: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probe the key index with ``keys``: returns ``(rows, lo, hi)``
        where ``rows[lo[i]:hi[i]]`` are the rows whose non-null value
        equals ``keys[i]``, in row order.

        Values and keys compare in their common numpy dtype — the
        comparison ``==`` between the arrays would make — so int, float
        and bool compare numerically, ``-0.0`` equals ``0.0`` and NaN
        equals NaN (numpy's sort order), exactly as the factorized key
        codes of multi-column joins do.
        """
        values, rows = self.key_index()
        keys = np.asarray(keys)
        common = np.result_type(values, keys)
        if values.dtype != common:
            cast = values.astype(common)
            if (common.kind == "f" and values.dtype.kind == "i"
                    and len(cast) and max(-cast[0], cast[-1]) >= 2.0 ** 53):
                # int64 -> float64 rounds beyond 2**53 and can make distinct
                # values equal; re-sort the new ties back into row order.
                order = np.lexsort((rows, cast))
                cast, rows = cast[order], rows[order]
            values = cast
        keys = keys.astype(common, copy=False)
        lo = np.searchsorted(values, keys, side="left")
        hi = np.searchsorted(values, keys, side="right")
        return rows, lo, hi

    def codes(self) -> tuple[np.ndarray, int]:
        """Dense integer codes for grouping/joining.

        Non-null values factorize to ``[0, cardinality)``, every code in the
        range occupied; nulls get ``-1``.  Returns ``(codes, cardinality)``.
        Codes preserve equality, not value order — callers never rely on
        code order.
        """
        out = np.full(len(self.values), -1, dtype=np.int64)
        valid = ~self.mask
        if valid.any():
            vals = self.values[valid]
            if vals.dtype == object:
                sub, cardinality = factorize_objects(vals)
            else:
                uniq, sub = np.unique(vals, return_inverse=True)
                cardinality = len(uniq)
            out[valid] = sub
            return out, cardinality
        return out, 0


def factorize_objects(values: np.ndarray,
                      table: dict | None = None) -> tuple[np.ndarray, int]:
    """First-appearance dense codes for an object array via one hash pass.

    Sort-based factorization (``np.unique``) on object arrays falls back to
    element-wise python comparisons; a dict pass is ~3x faster at typical
    key cardinalities and exact for any hashable values.  Passing ``table``
    shares the code assignment across several arrays (join keys).
    """
    if table is None:
        table = {}
    setdefault = table.setdefault
    out = np.array([setdefault(v, len(table)) for v in values.tolist()],
                   dtype=np.int64)
    return out, len(table)


def row_codes(columns: Sequence[Column]) -> np.ndarray:
    """Combine per-column codes into one dense code per row.

    Nulls form their own bucket (so ``None`` groups with ``None``, the
    GROUP BY / DISTINCT convention).  Codes are re-densified after every
    column via ``np.unique`` so the combined key never overflows int64
    regardless of how many key columns participate.
    """
    combined: np.ndarray | None = None
    for col in columns:
        c, k = col.codes()
        c = np.where(c < 0, k, c)        # null bucket at the top
        k += 1
        if combined is None:
            combined = c
        else:
            _, combined = np.unique(combined * k + c, return_inverse=True)
    if combined is None:
        raise SchemaError("row_codes needs at least one column")
    return combined
