"""Content hashing of rows, and exact row matching through a hash index.

:func:`hash_column` / :func:`hash_rows` give every row a 64-bit content
hash that depends only on its values — not on ``PYTHONHASHSEED``, process
identity, or row position.  ``repro.shard`` partitions by it (equal keys
land in the same shard, which makes the sharded kernels exact), and
``repro.ivm`` indexes stream and join state by it.

Per-column pre-hashes: crc32 (two passes, widened to 64 bits) for
strings, the integer itself for ints, bools and integral floats (so ``2``
and ``2.0`` hash equal and ``-0.0`` hashes like ``0.0``), fixed constants
for NaN and the infinities, the float bits otherwise.  Each is passed
through the splitmix64 finalizer, nulls get :data:`NULL_HASH`, and
:func:`hash_rows` folds the columns with a rolling multiply-xor.

A hash only narrows the search: :class:`HashIndex` finds the rows whose
hash matches and then confirms each candidate pair by exact column-wise
equality (:func:`equal_at`), so a collision costs a comparison and never
merges two distinct rows.
"""

from __future__ import annotations

import zlib
from typing import Any, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.table.column import Column, factorize_objects

__all__ = ["NULL_HASH", "HashIndex", "distinct_rows", "equal_at",
           "hash_column", "hash_rows"]

#: Hash assigned to every null cell (any fixed odd constant works).
NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
#: Rolling multi-column combine multiplier (golden-ratio prime).
_COMBINE = np.uint64(0xBF58476D1CE4E5B9)
_SEED = np.uint64(0x8A5CD789635D2DFF)

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_NAN_HASH = np.uint64(0x5851F42D4C957F2D)
_POS_INF_HASH = np.uint64(0x14057B7EF767814F)
_NEG_INF_HASH = np.uint64(0xDA942042E4DD58B5)
_MASK64 = (1 << 64) - 1


def _mix64(x: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer, vectorized and in place on a fresh ``uint64``
    array (array arithmetic wraps around silently)."""
    x ^= x >> np.uint64(30)
    x *= _MIX_1
    x ^= x >> np.uint64(27)
    x *= _MIX_2
    x ^= x >> np.uint64(31)
    return x


def _hash_object(v: Any) -> int:
    """Deterministic 64-bit pre-hash of one python value (str columns, and
    the object-dtype fallback that holds oversized ints)."""
    if isinstance(v, str):
        data = v.encode("utf-8")
        # Two crc32 passes (second one salted) widen to 64 bits.
        return zlib.crc32(data) | (zlib.crc32(data, 0x9747B28C) << 32)
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v & _MASK64
    if isinstance(v, float):
        return _hash_float_scalar(v)
    raise SchemaError(f"cannot hash value of type {type(v)!r}")


def _hash_float_scalar(v: float) -> int:
    if v != v:
        return int(_NAN_HASH)
    if v == float("inf"):
        return int(_POS_INF_HASH)
    if v == float("-inf"):
        return int(_NEG_INF_HASH)
    if v == int(v):
        return int(v) & _MASK64  # integral floats hash like the int
    return np.float64(v).view(np.uint64).item()


def hash_column(col: Column) -> np.ndarray:
    """Content hash of every cell as ``uint64``; nulls get :data:`NULL_HASH`.

    Equal logical values hash equal across dtypes that can compare equal
    (``int`` vs integral ``float``) and across processes — the
    co-location invariant every sharded kernel relies on.  Object columns
    (strings, oversized ints) pre-hash each distinct value once.
    """
    values, mask = col.values, col.mask
    if values.dtype == object:
        distinct: dict = {}
        codes, k = factorize_objects(values, distinct)
        pre = np.fromiter(
            (0 if v is None else _hash_object(v) for v in distinct),
            dtype=np.uint64, count=k,
        )
        out = _mix64(pre[codes])
    elif col.dtype == "float":
        out = _hash_float_array(values)
    else:  # int64 / bool storage: two's complement bits
        out = _mix64(values.astype(np.uint64))
    if mask.any():
        out[mask] = NULL_HASH
    return out


def _hash_float_array(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.float64, copy=True)
    v[v == 0.0] = 0.0  # collapse -0.0 into +0.0
    finite = np.isfinite(v)
    integral = finite & (v == np.floor(v)) & (np.abs(v) < 2.0 ** 63)
    pre = np.empty(len(v), dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        pre[integral] = v[integral].astype(np.int64).view(np.uint64)
    odd = ~integral
    if odd.any():
        bits = v[odd].view(np.uint64).copy()
        sub = v[odd]
        bits[np.isnan(sub)] = _NAN_HASH
        bits[sub == np.inf] = _POS_INF_HASH
        bits[sub == -np.inf] = _NEG_INF_HASH
        pre[odd] = bits
    return _mix64(pre)


def hash_rows(columns: Sequence[Column]) -> np.ndarray:
    """Rolling combine of per-column hashes into one ``uint64`` per row."""
    if not columns:
        raise SchemaError("hash_rows needs at least one column")
    h = np.full(len(columns[0]), _SEED, dtype=np.uint64)
    for col in columns:
        h *= _COMBINE
        h ^= hash_column(col)
        _mix64(h)
    return h


def equal_at(left: Sequence[Column], li: np.ndarray,
             right: Sequence[Column], ri: np.ndarray) -> np.ndarray:
    """Whether row ``li[k]`` of ``left`` equals row ``ri[k]`` of ``right``,
    for every ``k``: column by column, NULL equals NULL, NaN equals NaN,
    and values compare as numpy's ``==`` does (``-0.0`` equals ``0.0``,
    ``2`` equals ``2.0``) — the equality of :meth:`Column.to_pylist`
    tuples within one dtype, and of the batch join across dtypes."""
    out = np.ones(len(li), dtype=bool)
    for a, b in zip(left, right):
        am, bm = a.mask[li], b.mask[ri]
        av, bv = a.values[li], b.values[ri]
        same = av == bv
        if av.dtype.kind == "f" and bv.dtype.kind == "f":
            same |= (av != av) & (bv != bv)
        out &= (am == bm) & (am | same)
    return out


def distinct_rows(hashes: np.ndarray, columns: Sequence[Column]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by content, given their ``hashes``: returns ``(heads,
    group)`` — the position of the first row of each distinct content, in
    position order, and each row's group (an index into ``heads``).

    Rows sort by hash; each row is compared with the head of its
    equal-hash run, and rows that differ from their head — hash
    collisions — go round again against the next head.  Without
    collisions that is one vectorized pass.
    """
    n = len(hashes)
    todo = np.argsort(hashes)
    first = np.arange(n)
    while len(todo):
        h = hashes[todo]
        starts = np.ones(len(todo), dtype=bool)
        starts[1:] = h[1:] != h[:-1]
        heads = todo[np.maximum.accumulate(
            np.where(starts, np.arange(len(todo)), 0))]
        other = heads != todo
        same = np.zeros(len(todo), dtype=bool)
        same[other] = equal_at(columns, todo[other], columns, heads[other])
        first[todo[same]] = heads[same]
        todo = todo[other & ~same]
    # A run's head is any of its rows; each group's head is its first.
    lowest = np.arange(n)
    np.minimum.at(lowest, first, np.arange(n))
    first = lowest[first]
    is_head = first == np.arange(n)
    return np.flatnonzero(is_head), (np.cumsum(is_head) - 1)[first]


#: The small run of a :class:`HashIndex` merges into the large one once
#: it holds more than this fraction of it.
_MERGE_SHARE = 1 / 8


class HashIndex:
    """Row positions sorted by content hash, for exact row lookup.

    The positions sit in two runs, each a pair ``(hashes ascending, row
    of each hash)``: a large run and a small one that :meth:`insert` adds
    to.  When the small run passes an eighth of the large one the two
    merge, so an insert moves O(inserted + small run) elements and each
    position is merged O(1) times, amortized.  :meth:`probe` finds a
    batch's candidate rows with ``searchsorted`` on each run and keeps
    only the pairs :func:`equal_at` confirms.  Instances are immutable;
    :meth:`insert` and :meth:`keep` return new ones.
    """

    __slots__ = ("_runs",)

    def __init__(self, runs: tuple[tuple[np.ndarray, np.ndarray], ...]):
        self._runs = runs

    @classmethod
    def build(cls, hashes: np.ndarray) -> "HashIndex":
        """Index rows ``0, 1, ...`` carrying ``hashes``."""
        order = np.argsort(hashes)
        return cls(((hashes[order], order), _EMPTY_RUN))

    def insert(self, hashes: np.ndarray, rows: np.ndarray) -> "HashIndex":
        """This index plus ``rows`` carrying ``hashes``."""
        order = np.argsort(hashes)
        large, small = self._runs
        small = _insert_run(small, hashes[order], rows[order])
        if len(small[0]) > _MERGE_SHARE * len(large[0]):
            return HashIndex((_insert_run(large, *small), _EMPTY_RUN))
        return HashIndex((large, small))

    def keep(self, keep: np.ndarray) -> "HashIndex":
        """The index after compressing the indexed rows by the boolean
        ``keep`` (positions renumbered, hash order unchanged)."""
        renumber = np.cumsum(keep) - 1
        runs = []
        for hashes, rows in self._runs:
            kept = keep[rows]
            runs.append((hashes[kept], renumber[rows[kept]]))
        return HashIndex(tuple(runs))

    def probe(self, hashes: np.ndarray, probe_columns: Sequence[Column],
              columns: Sequence[Column]) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``(i, row)`` where probe row ``i`` (hash ``hashes[i]``,
        values in ``probe_columns``) equals indexed ``row`` (values in
        ``columns``)."""
        order = np.argsort(hashes)      # sorted needles search faster
        needles = hashes[order]
        probe, found = [], []
        for run_hashes, run_rows in self._runs:
            if not len(run_rows):
                continue
            lo = np.searchsorted(run_hashes, needles, side="left")
            counts = np.searchsorted(run_hashes, needles, side="right") - lo
            starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
            probe.append(np.repeat(order, counts))
            found.append(run_rows[np.arange(len(starts)) + starts])
        if not probe:
            return order[:0], order[:0]
        probe, found = np.concatenate(probe), np.concatenate(found)
        same = equal_at(probe_columns, probe, columns, found)
        return probe[same], found[same]


_EMPTY_RUN = (np.empty(0, np.uint64), np.empty(0, np.intp))


def _insert_run(run: tuple[np.ndarray, np.ndarray], hashes: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``run`` plus ``rows`` carrying the ascending ``hashes``."""
    at = np.searchsorted(run[0], hashes)
    return np.insert(run[0], at, hashes), np.insert(run[1], at, rows)
