"""Partitioners: deciding which shard each row lives in.

Both partitioners are **content-deterministic**: the shard a row lands in
depends only on its key values — not on ``PYTHONHASHSEED``, process
identity, or row position — so two tables partitioned with equal
partitioners co-locate equal keys in the same shard index.  That property
is what makes the sharded kernels exact: hash (or shared-bounds range)
partitioning on the join keys means matching rows meet in the same shard,
partitioning on a subset of the group keys means no group straddles a
shard boundary, and any partitioner co-locates duplicate rows for
``distinct``.

- :class:`HashPartitioner` — the content row hash of
  :mod:`repro.table.hashing` (``2`` and ``2.0`` land together, ``-0.0``
  with ``0.0``, nulls in their own bucket) modulo the shard count.  Works
  for any key columns; the default.
- :class:`RangePartitioner` — quantile bounds over one numeric key, so
  shards are contiguous key ranges (cheap pruning for range predicates).
  Both sides of a join must share the *same* bounds to co-locate.
- :func:`choose_partitioner` — picks between them from
  :meth:`Table.stats`: range for a single spread-out numeric key, hash
  otherwise.

Partitioners serialize to plain dicts (:meth:`to_dict` /
:func:`partitioner_from_dict`) so a spilled partitioned table's manifest
can rebuild the exact partitioning on restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import ShardError
from repro.table import Column, Table
from repro.table.hashing import NULL_HASH, hash_column  # noqa: F401 - re-exported
from repro.table.hashing import hash_rows as _hash_rows


def hash_rows(columns: Sequence[Column]) -> np.ndarray:
    """:func:`repro.table.hashing.hash_rows` over partition key columns;
    raises :class:`~repro.errors.ShardError` when there are none."""
    if not columns:
        raise ShardError("hash_rows needs at least one key column")
    return _hash_rows(columns)


def _key_columns(table: Table, keys: Sequence[str]) -> list[Column]:
    columns = table.columns()
    return [columns[table.schema.index_of(k)] for k in keys]


@dataclass(frozen=True)
class HashPartitioner:
    """Row → ``hash(keys) % num_shards``.  Works for any key columns."""

    keys: tuple[str, ...]
    num_shards: int

    kind = "hash"

    def __post_init__(self):
        if self.num_shards < 1:
            raise ShardError("num_shards must be >= 1")
        if not self.keys:
            raise ShardError("HashPartitioner needs at least one key")

    def assign(self, table: Table) -> np.ndarray:
        """Shard id per row, ``int64`` in ``[0, num_shards)``."""
        h = hash_rows(_key_columns(table, self.keys))
        return (h % np.uint64(self.num_shards)).astype(np.int64)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "keys": list(self.keys),
                "num_shards": self.num_shards}


@dataclass(frozen=True)
class RangePartitioner:
    """Row → the range bucket its (single, numeric) key falls in.

    ``bounds`` are the ``num_shards - 1`` ascending split points; shard
    ``i`` holds keys in ``(bounds[i-1], bounds[i]]`` (``searchsorted``
    left-open), nulls and NaNs go to shard 0.  Two tables co-locate only
    under the *same* bounds — reuse one partitioner object (or its
    ``to_dict``) for both sides of a join.
    """

    key: str
    bounds: tuple[float, ...]

    kind = "range"

    def __post_init__(self):
        if list(self.bounds) != sorted(self.bounds):
            raise ShardError("range bounds must be ascending")

    @property
    def keys(self) -> tuple[str, ...]:
        return (self.key,)

    @property
    def num_shards(self) -> int:
        return len(self.bounds) + 1

    @classmethod
    def from_table(cls, table: Table, key: str,
                   num_shards: int) -> "RangePartitioner":
        """Quantile bounds over the key's non-null values."""
        if num_shards < 1:
            raise ShardError("num_shards must be >= 1")
        col = _key_columns(table, [key])[0]
        valid = col.values[~col.mask]
        if col.dtype not in ("int", "float") or valid.dtype == object:
            raise ShardError(
                f"RangePartitioner needs an in-range numeric key, "
                f"got {key!r} ({col.dtype})"
            )
        if num_shards == 1 or len(valid) == 0:
            return cls(key=key, bounds=())
        qs = np.arange(1, num_shards) / num_shards
        bounds = np.quantile(valid.astype(np.float64), qs)
        # Deduplicate: equal quantiles would leave empty shards *between*
        # the duplicates; keeping them distinct is not possible, so the
        # partitioner simply has fewer effective cut points (empty shards
        # at the tail are fine — every kernel handles them).
        return cls(key=key, bounds=tuple(float(b) for b in bounds))

    def assign(self, table: Table) -> np.ndarray:
        col = _key_columns(table, [self.key])[0]
        if not self.bounds:
            return np.zeros(len(col), dtype=np.int64)
        values = col.values.astype(np.float64, copy=False)
        ids = np.searchsorted(np.asarray(self.bounds, dtype=np.float64),
                              values, side="left")
        ids = ids.astype(np.int64)
        with np.errstate(invalid="ignore"):
            ids[np.isnan(values)] = 0
        ids[col.mask] = 0
        return ids

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "key": self.key,
                "bounds": list(self.bounds)}


Partitioner = HashPartitioner | RangePartitioner


def partitioner_from_dict(data: dict[str, Any]) -> Partitioner:
    """Rebuild a partitioner from its :meth:`to_dict` form (spill manifests)."""
    kind = data.get("kind")
    if kind == "hash":
        return HashPartitioner(keys=tuple(data["keys"]),
                               num_shards=int(data["num_shards"]))
    if kind == "range":
        return RangePartitioner(key=data["key"],
                                bounds=tuple(float(b)
                                             for b in data["bounds"]))
    raise ShardError(f"unknown partitioner kind {kind!r}")


def choose_partitioner(table: Table, keys: Sequence[str],
                       num_shards: int) -> Partitioner:
    """Pick a partitioner from :meth:`Table.stats`.

    Range partitioning wins for a single numeric key whose distinct count
    comfortably exceeds the shard count (so quantile bounds spread rows
    evenly) with few nulls (nulls pile into shard 0); everything else —
    string keys, multi-column keys, skewed or null-heavy columns — hashes.
    """
    keys = list(keys)
    if len(keys) == 1:
        st = table.stats().get(keys[0])
        if (st is not None and st["dtype"] in ("int", "float")
                and st["distinct"] >= 4 * num_shards
                and st["null_fraction"] <= 0.25):
            try:
                return RangePartitioner.from_table(table, keys[0], num_shards)
            except ShardError:
                pass  # object-dtype overflow ints etc. — fall through
    return HashPartitioner(keys=tuple(keys), num_shards=num_shards)
