"""One aggregate algebra: ``count``, ``count_star``, ``sum``, ``avg``,
``min`` and ``max``, defined once for every GROUP BY engine.

The batch kernel and its row twin (``Table.group_by`` /
``group_by_reference``), the shard merge, the incremental group-by and
the SQL row oracle keep their own execution loops but take every
semantic decision from here (docs/table.md, "Aggregate semantics").
"""

from __future__ import annotations

import operator
from functools import reduce as fold_left
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.obs import metrics
from repro.table.column import SENTINELS, Column
from repro.table.schema import Field, Schema


def _abs_bound(values: np.ndarray) -> int:
    """``max |v|`` as a python int (0 when empty)."""
    return max(int(values.max()), -int(values.min())) if len(values) else 0


def exact_sums(values: np.ndarray, gids: np.ndarray,
               num_groups: int) -> np.ndarray:
    """Per-group sums of ``values`` (``gids[i]`` is value ``i``'s group).

    Floats accumulate through ``np.bincount`` in array order: each group's
    sum is the left-to-right sum of its values.  Int sums are exact: in
    float64 while ``max |v| × len(values)`` stays below 2**53, in int64
    below 2**63, and as python ints in an object array beyond.
    """
    if values.dtype == np.bool_:
        values = values.astype(np.int64)
    if values.dtype == np.float64:
        # (bincount of nothing comes back int64)
        return np.bincount(gids, weights=values, minlength=num_groups
                           ).astype(np.float64, copy=False)
    bound = (_abs_bound(values) * len(values) if values.dtype != object
             else 2 ** 63)
    if bound < 2 ** 53:
        return np.bincount(gids, weights=values,
                           minlength=num_groups).astype(np.int64)
    dtype = np.int64 if bound < 2 ** 63 else object
    out = np.zeros(num_groups, dtype=dtype)
    np.add.at(out, gids, values.astype(dtype))
    return out


def _means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``sums / counts``, rounded as python's ``/`` rounds it."""
    counts = np.maximum(counts, 1)
    if sums.dtype == np.float64 or (
            sums.dtype == np.int64 and _abs_bound(sums) < 2 ** 53):
        return sums / counts
    return np.array([s / c for s, c in zip(sums.tolist(), counts.tolist())],
                    dtype=np.float64)


def _column(dtype: str, values: np.ndarray, null: np.ndarray) -> Column:
    """A result column: sentinels in null slots, and python ints back to
    int64 storage when they fit."""
    if values.dtype == object and dtype != "str":
        return Column.build([None if n else v for v, n in
                             zip(values.tolist(), null.tolist())], dtype)
    if null.any():
        values = values.copy()
        values[null] = SENTINELS[dtype]
    return Column(dtype, values, null)


class Groups(NamedTuple):
    """One GROUP BY's rows in dense groups: ``order`` sorts the rows by
    group id stably (input order survives within a group),
    ``sorted_gids`` are the ids in that order, and ``appearance`` lists
    the ids in output order."""

    order: np.ndarray
    sorted_gids: np.ndarray
    num_groups: int
    appearance: np.ndarray

    def non_null(self, col: Column | None):
        """``(gids, values)`` of the non-null rows in group order (every
        row, and no values, for ``col=None``)."""
        if col is None:
            return self.sorted_gids, None
        if not col.mask.any():
            return self.sorted_gids, col.values[self.order]
        valid = ~col.mask[self.order]
        return self.sorted_gids[valid], col.values[self.order[valid]]

    def counts(self, gids: np.ndarray) -> np.ndarray:
        """Per-group ``gids`` occurrences, in output order."""
        return np.bincount(gids, minlength=self.num_groups)[self.appearance]


# -- retractable fold states ---------------------------------------------------


class _CountState:
    """A count under signed multiplicities, beside a running sum that
    resets when the count returns to zero (so cancelled float residue
    never outlives its values)."""

    __slots__ = ("n", "total")

    def __init__(self) -> None:
        self.n = 0
        self.total: Any = 0

    def fold(self, v: Any, w: int) -> None:
        """Add ``w`` copies (negative: retractions) of non-null ``v``."""
        self.n += w

    def add(self, n: int, total: Any) -> None:
        """Add a :meth:`AggregateFunction.delta` group."""
        self.n += n
        self.total += total
        if not self.n:
            self.total = 0

    def value(self) -> Any:
        return self.n


class _SumState(_CountState):
    __slots__ = ()

    def fold(self, v: Any, w: int) -> None:
        self.add(w, v * w)

    def value(self) -> Any:
        return self.total if self.n > 0 else None


class _AvgState(_SumState):
    __slots__ = ()

    def value(self) -> Any:
        return self.total / self.n if self.n > 0 else None


def _nan_wins(pick):
    """``pick`` (``max`` / ``min``) of a non-empty collection, except that
    a NaN wins, as in the batch kernel's ``np.maximum`` / ``np.minimum``."""
    return staticmethod(lambda values: next(
        (v for v in values if v != v), None) or pick(values))


#: The key every NaN is counted under in an :class:`_Extreme` map.
_NAN = float("nan")


class _Extreme:
    """One group's max state (``min`` in :class:`_Min`): the net
    multiplicity of each distinct value, and ``pick(net)`` cached.

    ``max`` folds over the dict's insertion order and a new value lands
    at its end, so adding one is one fold step on the cache.  Removing a
    key changes the result only if it *was* the result (``0.0`` and
    ``-0.0`` share a key): that marks the cache stale, and the next
    :meth:`value` rescans, as every read does while the map holds a NaN
    (all counted under :data:`_NAN`).  So :meth:`value` is exactly
    ``pick(net)``, signed zeros included."""

    __slots__ = ("net", "best", "stale")

    pick = _nan_wins(max)
    beats = staticmethod(operator.gt)

    def __init__(self) -> None:
        self.net: dict[Any, int] = {}
        self.best: Any = None
        self.stale = False

    def fold(self, v: Any, w: int) -> None:
        if v != v:
            v = _NAN
            self.stale = True
        net = self.net
        old = net.get(v, 0)
        new = old + w
        if new:
            net[v] = new
            if not (old or self.stale) and (
                    self.best is None or self.beats(v, self.best)):
                self.best = v
        else:
            del net[v]
            if v == self.best:
                self.stale = True

    def value(self) -> Any:
        """``pick(net)`` (``None`` when empty), rescanning when stale."""
        if self.stale:
            metrics.counter("ivm.group.extreme_rescans").inc()
            net = self.net
            self.best = self.pick(net) if net else None
            self.stale = _NAN in net
        return self.best


class _Min(_Extreme):
    __slots__ = ()

    pick = _nan_wins(min)
    beats = staticmethod(operator.lt)


# -- the functions -------------------------------------------------------------


class AggregateFunction:
    """One aggregate's definition: ``dtype(arg)``, the output dtype over
    an argument dtype (``None`` for ``count_star``); ``accepts(dtype)``,
    whether a column of ``dtype`` can carry arguments; ``reduce(values)``,
    the null-skipping row reduce; ``segment(col, groups)``, that reduce
    over every group at once; ``partials``, computed per partition and
    combined by their own ``merge`` functions, then ``finalize``;
    ``state()``, a fold state (``fold(v, w)``, ``value()``).  A ``linear``
    (group-valued) function's ``delta(col, weights, gids, num_groups)``
    pre-aggregates a weighted delta into the ``(n, total)`` lists its
    states ``add``."""

    name: str
    takes_column = True
    linear = True
    partials: tuple[str, ...]
    merge: str | None = None

    def accepts(self, dtype: str) -> bool:
        return True

    def finalize(self, merged: list[Column]) -> Column:
        return merged[0]


class _Count(AggregateFunction):
    name = "count"
    partials = ("count",)
    merge = "sum"
    state = _CountState

    def dtype(self, arg):
        return "int"

    def reduce(self, values):
        return sum(v is not None for v in values)

    def segment(self, col, groups):
        counts = groups.counts(groups.non_null(col)[0])
        return Column("int", counts, np.zeros(len(counts), dtype=bool))

    def delta(self, col, weights, gids, num_groups):
        if col is not None:
            weights, gids = weights[~col.mask], gids[~col.mask]
        return exact_sums(weights, gids, num_groups).tolist(), \
            [0] * num_groups


class _CountStar(_Count):
    """``COUNT(*)``: rows, NULL or not (the engines pass no column)."""

    name = "count_star"
    takes_column = False
    partials = ("count_star",)


class _Sum(AggregateFunction):
    name = "sum"
    partials = ("sum",)
    merge = "sum"
    state = _SumState

    def accepts(self, dtype):
        return dtype in ("int", "float", "bool")

    def dtype(self, arg):
        return "float" if arg == "float" else "int"

    def reduce(self, values):
        present = [v for v in values if v is not None]
        return fold_left(operator.add, present, 0) if present else None

    def segment(self, col, groups):
        gids, values = groups.non_null(col)
        sums = exact_sums(values, gids, groups.num_groups)
        return _column(self.dtype(col.dtype), sums[groups.appearance],
                       groups.counts(gids) == 0)

    def delta(self, col, weights, gids, num_groups):
        present = ~col.mask
        w, g = weights[present], gids[present]
        values = col.values[present]
        if values.dtype == np.bool_:
            values = values.astype(np.int64)
        if values.dtype == object or (values.dtype == np.int64 and
                                      _abs_bound(values) * _abs_bound(w)
                                      >= 2 ** 63):
            values, w = values.astype(object), w.astype(object)
        return (exact_sums(w, g, num_groups).tolist(),
                exact_sums(values * w, g, num_groups).tolist())


class _Avg(_Sum):
    """``sum / count``: it computes, merges and folds as that pair."""

    name = "avg"
    partials = ("sum", "count")
    merge = None
    state = _AvgState

    def dtype(self, arg):
        return "float"

    def reduce(self, values):
        total = SUM.reduce(values)
        return None if total is None else total / COUNT.reduce(values)

    def segment(self, col, groups):
        return self.finalize([SUM.segment(col, groups),
                              COUNT.segment(col, groups)])

    def finalize(self, merged):
        sums, counts = merged
        return _column("float", _means(sums.values, counts.values),
                       sums.mask | (counts.values == 0))


class _Max(AggregateFunction):
    name = "max"
    linear = False
    partials = ("max",)
    merge = "max"
    state = _Extreme
    ufunc = np.maximum

    def dtype(self, arg):
        return arg

    def reduce(self, values):
        present = [v for v in values if v is not None]
        return self.state.pick(present) if present else None

    def segment(self, col, groups):
        gids, values = groups.non_null(col)
        out = np.full(groups.num_groups, SENTINELS[col.dtype],
                      dtype=col.values.dtype)
        null = np.ones(groups.num_groups, dtype=bool)
        if len(gids):
            starts = np.flatnonzero(np.r_[True, gids[1:] != gids[:-1]])
            out[gids[starts]] = self.ufunc.reduceat(values, starts)
            null[gids[starts]] = False
        order = groups.appearance
        return _column(col.dtype, out[order], null[order])


class _MinFunction(_Max):
    name = "min"
    partials = ("min",)
    merge = "min"
    state = _Min
    ufunc = np.minimum


COUNT, SUM = _Count(), _Sum()

#: Every aggregate, by name.
AGGREGATES: dict[str, AggregateFunction] = {
    fn.name: fn for fn in (COUNT, _CountStar(), SUM, _Avg(),
                           _MinFunction(), _Max())
}


def lookup(name: str) -> AggregateFunction:
    """The aggregate called ``name``; :class:`SchemaError` if none is."""
    if name not in AGGREGATES:
        raise SchemaError(
            f"unknown aggregate {name!r}; options: {sorted(AGGREGATES)}")
    return AGGREGATES[name]


def check_argument(fn: AggregateFunction, dtype: str, what: str) -> None:
    """:class:`SchemaError` unless ``fn`` (called as ``what``) accepts an
    argument of ``dtype``."""
    if not fn.accepts(dtype):
        raise SchemaError(
            f"{what}: {fn.name} does not accept a {dtype} argument")


def output_fields(schema: Schema, keys: Sequence[str],
                  aggregates: Sequence[tuple[str, str | None, str]]
                  ) -> list[Field]:
    """GROUP BY output fields: the keys', then one per ``(function,
    column, output name)`` spec (``count_star``'s column is ``None``);
    every engine's plan-time check (:class:`SchemaError`)."""
    fields = [schema.field(k) for k in keys]
    for name, col, out in aggregates:
        fn = lookup(name)
        arg = schema.dtype_of(col) if fn.takes_column else None
        check_argument(fn, arg, f"{name}({col or '*'})")
        fields.append(Field(out, fn.dtype(arg)))
    return fields
