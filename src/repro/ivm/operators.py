"""Incremental twins of the vectorized relational kernels.

Each node consumes a ``changes`` map (:class:`~repro.ivm.view.StreamTable`
-> :class:`~repro.ivm.zset.ZSet`) and returns the delta of its output —
the DBSP construction (SNIPPETS.md Snippet 3):

* **Linear** operators (filter, project, union) commute with addition, so
  their incremental form is just the batch kernel applied to the delta.
* **Stateful** operators follow the chain rule.  Join is bilinear:
  ``Δ(A ⋈ B) = ΔA ⋈ B_old + A_new ⋈ ΔB``, so each side keeps a
  :class:`Trace` — its accumulated input, indexed by join key — and a
  delta probes the *other* side's trace instead of replaying history.
  Group-by folds each delta row into running per-group aggregate state
  (count/sum accumulators, net value multiplicities plus a cached extreme
  for min/max) and emits retraction/assertion pairs against its last
  output — O(delta); only a min/max whose extreme was retracted rescans
  its group's values.  Distinct tracks net multiplicities and emits only
  presence flips.

The batch kernels on :class:`~repro.table.Table` are the semantics —
``incremental(deltas) == batch(final_state)`` is property-tested for every
operator (tests/test_ivm_properties.py).  Float aggregation caveat: sums
re-accumulate in trace order, so float results match batch bit-for-bit
only on dyadic-grid data (docs/ivm.md).
"""

from __future__ import annotations

import operator
from typing import Any, Sequence

import numpy as np

from repro.errors import IvmError
from repro.obs import metrics
from repro.table import Field, Schema, Table
from repro.ivm.zset import ZSet

#: Aggregate functions the incremental group-by supports.  The first five
#: mirror ``Table.group_by``; ``count_star`` counts net row multiplicity
#: (SQL ``COUNT(*)``), which the batch kernel expresses as ``count`` over a
#: non-null column.
GROUP_AGGREGATES = ("count", "sum", "min", "max", "avg", "count_star")

#: A trace is compacted (consolidated + re-indexed) when its physical
#: entry count exceeds twice the entry count after the last compaction —
#: amortized O(1) per appended row, and cancelled inserts/deletes never
#: accumulate more than a constant factor of garbage.
_COMPACT_GROWTH = 2
_COMPACT_FLOOR = 64

#: Delta size at which the group-by fold switches from row-at-a-time to
#: the vectorized bucket path (numpy per-group count/sum, one python merge
#: step per touched group instead of per row).
_BULK_FOLD_MIN = 64


def _key_tuples(table: Table, key_names: Sequence[str]) -> list[tuple[Any, ...]]:
    """Python key tuple per row (``None`` elements mark nulls)."""
    cols = [table.column(name) for name in key_names]
    return list(zip(*cols)) if cols else [()] * table.num_rows


def _keys_of(table: Table, key_names: Sequence[str]) -> list[Any]:
    """Hashable key per row: the bare value for single-column keys (no
    tuple boxing on the hot path), a tuple otherwise."""
    if len(key_names) == 1:
        return table.column(key_names[0])
    return _key_tuples(table, key_names)


def _any_null(table: Table, key_names: Sequence[str]) -> np.ndarray:
    out = np.zeros(table.num_rows, dtype=bool)
    for name in key_names:
        out |= table.null_mask(name)
    return out


class Trace:
    """An operator's accumulated input: append-only Z-set parts plus a key
    index.

    ``index`` maps a key (the bare value for single-column keys, a tuple
    otherwise) to the positions carrying it in the *concatenated* trace,
    so a delta row finds its matches with one dict lookup followed by a
    vectorized gather.  :meth:`update` appends the delta as a pending part
    and indexes its keys at their offsets — O(delta), no copy of the
    accumulated rows.  The parts are concatenated, in one pass, only when
    something reads :attr:`zset`: a probe from the other join side, or
    compaction.  A join whose other side never changes therefore never
    copies this side's state on a push.  Consolidation garbage (cancelled
    ±w pairs) is bounded by periodic compaction.

    ``skip_null_keys=True`` (joins) drops null-keyed rows entirely — they
    can never match, per SQL equality.  ``False`` (group-by) indexes them
    like any other key: null group keys bucket together.
    """

    __slots__ = ("_parts", "_len", "key_names", "skip_null_keys", "index",
                 "_compacted_len")

    def __init__(self, schema: Schema, key_names: Sequence[str], *,
                 skip_null_keys: bool):
        self._parts = [ZSet.empty(schema)]
        self._len = 0
        self.key_names = list(key_names)
        self.skip_null_keys = skip_null_keys
        self.index: dict[Any, list[int]] = {}
        self._compacted_len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def zset(self) -> ZSet:
        """The whole trace as one Z-set (concatenates pending parts)."""
        if len(self._parts) > 1:
            self._parts = [ZSet.concat(self._parts)]
            metrics.counter("ivm.trace.concats").inc()
        return self._parts[0]

    def describe(self) -> str:
        """Rows kept at the last compaction + rows appended since."""
        return (f"{self._compacted_len} consolidated + "
                f"{self._len - self._compacted_len} pending rows")

    def update(self, delta: ZSet) -> None:
        if len(delta) == 0:
            return
        if self.skip_null_keys:
            nulls = _any_null(delta.payload, self.key_names)
            if nulls.any():
                delta = delta.compress(~nulls)
                if len(delta) == 0:
                    return
        start = self._len
        if start:
            self._parts.append(delta)
        else:
            self._parts = [delta]
        self._len += len(delta)
        setdefault = self.index.setdefault
        for offset, key in enumerate(_keys_of(delta.payload,
                                              self.key_names)):
            setdefault(key, []).append(start + offset)
        metrics.counter("ivm.trace.rows").inc(len(delta))
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        n = self._len
        if n <= _COMPACT_FLOOR or n <= _COMPACT_GROWTH * self._compacted_len:
            return
        flat = self.zset.consolidate()
        # Record the post-compaction size even when nothing cancelled, so
        # the next attempt waits for another 2x of growth (no quadratic
        # re-consolidation on cancel-free streams).
        self._parts = [flat]
        self._len = self._compacted_len = len(flat)
        if len(flat) < n:
            self.index = {}
            for pos, key in enumerate(_keys_of(flat.payload,
                                               self.key_names)):
                self.index.setdefault(key, []).append(pos)
        metrics.counter("ivm.trace.compactions").inc()


class Node:
    """A compiled view-plan operator.

    Subclasses set ``schema`` (output schema, known at construction) and
    ``streams`` (the :class:`StreamTable` leaves below this node), and
    implement :meth:`delta`.  Stateful nodes carry traces, so a node
    instance belongs to exactly one materialized view.
    """

    schema: Schema
    streams: frozenset

    def delta(self, changes: dict) -> ZSet:
        """Output delta for one batch of input deltas.

        ``changes`` maps streams to the Z-set just pushed at them; streams
        absent from the map contributed nothing this round.  Calling
        ``delta`` advances the node's internal traces — each batch must be
        fed exactly once, in push order.
        """
        raise NotImplementedError

    def inputs(self) -> tuple["Node", ...]:
        """Child nodes, in plan order."""
        return (self.input,)

    def describe(self) -> str:
        """One line of :meth:`MaterializedView.explain`: the operator and
        the size of any state it keeps."""
        raise NotImplementedError

    def _empty(self) -> ZSet:
        return ZSet.empty(self.schema)


class ScanNode(Node):
    """Leaf: the delta of a stream is whatever was pushed at it."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.schema = stream.schema
        self.streams = frozenset([stream])

    def delta(self, changes: dict) -> ZSet:
        found = changes.get(self.stream)
        return found if found is not None else self._empty()

    def inputs(self) -> tuple[Node, ...]:
        return ()

    def describe(self) -> str:
        return f"scan {self.stream.name}"


class FilterNode(Node):
    """Linear: ``filter(ΔI)``.  ``predicate`` is a vectorized callable
    ``Table -> bool mask`` (SQL views pass :class:`repro.sql.expr.WhereMask`)."""

    def __init__(self, input_node: Node, predicate) -> None:
        self.input = input_node
        self.predicate = predicate
        self.schema = input_node.schema
        self.streams = input_node.streams

    def _mask(self, table: Table) -> np.ndarray:
        mask = np.asarray(self.predicate(table), dtype=bool)
        if mask.shape != (table.num_rows,):
            raise IvmError(
                f"filter predicate returned shape {mask.shape} for "
                f"{table.num_rows} rows"
            )
        return mask

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d) == 0:
            return d
        return d.compress(self._mask(d.payload))

    def describe(self) -> str:
        return "filter"


class ProjectNode(Node):
    """Linear: ``project(ΔI)`` with optional column renames.

    Projection can collapse distinct inputs onto one output row; the
    weights simply add at the next consolidation, which is exactly bag
    projection.
    """

    def __init__(self, input_node: Node, names: Sequence[str],
                 rename: dict[str, str] | None = None) -> None:
        self.input = input_node
        self.names = list(names)
        self.rename_map = dict(rename or {})
        schema = input_node.schema.project(self.names)
        if self.rename_map:
            schema = schema.rename(self.rename_map)
        self.schema = schema
        self.streams = input_node.streams

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d) == 0:
            return self._empty()
        out = d.project(self.names)
        if self.rename_map:
            out = out.rename(self.rename_map)
        return out

    def describe(self) -> str:
        names = [name if name not in self.rename_map
                 else f"{name} AS {self.rename_map[name]}"
                 for name in self.names]
        return f"project {', '.join(names)}"


class UnionNode(Node):
    """Linear: ``ΔA + ΔB`` (bag union, ``UNION ALL``)."""

    def __init__(self, left: Node, right: Node) -> None:
        if left.schema != right.schema:
            raise IvmError(
                f"union needs identical schemas: {left.schema} vs "
                f"{right.schema}"
            )
        self.left = left
        self.right = right
        self.schema = left.schema
        self.streams = left.streams | right.streams

    def delta(self, changes: dict) -> ZSet:
        dl = self.left.delta(changes)
        dr = self.right.delta(changes)
        if len(dl) == 0:
            return dr
        if len(dr) == 0:
            return dl
        return dl + dr

    def inputs(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return "union all"


class JoinNode(Node):
    """Bilinear inner equi-join via the chain rule.

    ``Δ(A ⋈ B) = ΔA ⋈ B_old + A_new ⋈ ΔB`` — each side keeps a key-indexed
    :class:`Trace`; the delta's rows look up matching trace positions by
    key and both payloads are gathered vectorized.  Output weights are the
    products of the matched pair's weights, which makes retractions
    compose for free (``-1 × +1 = -1``).  Null keys never match and are
    never stored.  Output column layout (key dedup, ``suffix`` for
    clashes) reuses :meth:`Table.join_indices`' plan, so a seeded view is
    column-identical to ``left.join(right, on)``.
    """

    def __init__(self, left: Node, right: Node,
                 on: Sequence[tuple[str, str]] | str,
                 suffix: str = "_r") -> None:
        self.left = left
        self.right = right
        pairs = [(on, on)] if isinstance(on, str) else [(l, r) for l, r in on]
        self.left_key_names = [l for l, _ in pairs]
        self.right_key_names = [r for _, r in pairs]
        # Empty-probe the batch planner for the output schema and the
        # right-side columns the output keeps (shared keys dedup'd).
        _lt, _rt, out_schema, kept_right_idx = Table.empty(
            left.schema
        ).join_indices(Table.empty(right.schema), pairs, "inner", suffix)
        self.schema = out_schema
        self.kept_right_idx = list(kept_right_idx)
        self.streams = left.streams | right.streams
        self._left_trace = Trace(left.schema, self.left_key_names,
                                 skip_null_keys=True)
        self._right_trace = Trace(right.schema, self.right_key_names,
                                  skip_null_keys=True)

    def delta(self, changes: dict) -> ZSet:
        dl = self.left.delta(changes)
        dr = self.right.delta(changes)
        parts: list[ZSet] = []
        if len(dl):
            # ΔA ⋈ B_old: right trace not yet advanced.
            parts.append(self._probe(dl, self._right_trace,
                                     delta_on_left=True))
            self._left_trace.update(dl)
        if len(dr):
            # A_new ⋈ ΔB: left trace already includes ΔA.
            parts.append(self._probe(dr, self._left_trace,
                                     delta_on_left=False))
            self._right_trace.update(dr)
        parts = [p for p in parts if len(p)]
        if not parts:
            return self._empty()
        return ZSet.concat(parts)

    def inputs(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        on = ", ".join(f"{l} = {r}" for l, r in zip(self.left_key_names,
                                                     self.right_key_names))
        return (f"join {on} (left trace: {self._left_trace.describe()}; "
                f"right trace: {self._right_trace.describe()})")

    def _probe(self, delta: ZSet, trace: Trace, *,
               delta_on_left: bool) -> ZSet:
        key_names = (self.left_key_names if delta_on_left
                     else self.right_key_names)
        d_idx: list[int] = []
        t_idx: list[int] = []
        nulls = _any_null(delta.payload, key_names).tolist()
        index_get = trace.index.get
        for i, key in enumerate(_keys_of(delta.payload, key_names)):
            if nulls[i]:
                continue
            hits = index_get(key)
            if hits:
                d_idx.extend([i] * len(hits))
                t_idx.extend(hits)
        if not d_idx:
            return self._empty()
        dz = delta.take(np.asarray(d_idx, dtype=np.intp))
        tz = trace.zset.take(np.asarray(t_idx, dtype=np.intp))
        lz, rz = (dz, tz) if delta_on_left else (tz, dz)
        cols = tuple(lz.payload.columns()) + tuple(
            rz.payload.columns()[j] for j in self.kept_right_idx
        )
        payload = Table.from_columns(self.schema, cols)
        return ZSet(payload, lz.weights * rz.weights)


class _Extreme:
    """One group's min/max state: the net multiplicity of each distinct
    value, plus the cached result of ``max(net)`` (``min`` in
    :class:`_Min`).

    ``max`` is a left fold over the dict's insertion order: keep the
    running value, replace it when ``v > running``.  A value new to the
    map is appended at the end of that order, so adding it is one fold
    step on the cache.  A changed multiplicity moves no key.  Removing a
    key changes the result only when it *was* the result (distinct keys
    never compare equal, and ``0.0``/``-0.0`` share a key); that marks the
    cache stale and the next :meth:`value` rescans.  A NaN, which compares
    false both ways, breaks that argument, so while the map may hold a
    value not equal to itself every read rescans.  :meth:`value` therefore
    always equals ``max(net)`` exactly — including which of ``0.0`` and
    ``-0.0`` it returns and every NaN order effect.
    """

    __slots__ = ("net", "best", "stale", "nan")

    pick = staticmethod(max)
    beats = staticmethod(operator.gt)

    def __init__(self) -> None:
        self.net: dict[Any, int] = {}
        self.best: Any = None
        self.stale = False
        self.nan = False

    def fold(self, v: Any, w: int) -> None:
        """Add ``w`` copies (negative: retractions) of non-null ``v``."""
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
        if v != v:
            self.nan = self.stale = True

    def value(self) -> Any:
        """``max(net)`` (``None`` when empty), rescanning only when stale."""
        if self.stale:
            metrics.counter("ivm.group.extreme_rescans").inc()
            net = self.net
            self.best = self.pick(net) if net else None
            if self.nan:
                self.nan = any(k != k for k in net)
            self.stale = self.nan
        return self.best


class _Min(_Extreme):
    __slots__ = ()

    pick = staticmethod(min)
    beats = staticmethod(operator.lt)


class GroupByNode(Node):
    """Incremental group-by over running per-group aggregate state.

    No trace: the node folds every delta row directly into a small state
    record per live group — net row multiplicity, plus per aggregate a
    null-skipping count, an exact running sum, or (for min/max, which are
    not subtractable) a net-multiplicity map over the group's values with
    its current extreme cached beside it (:class:`_Extreme`).  A batch
    therefore costs O(delta rows x aggregates) to absorb plus O(touched
    groups) to emit, independent of both table size and group sizes —
    except that a min/max whose extreme was retracted rescans that
    group's distinct values once (``ivm.group.extreme_rescans``).

    For each key the delta touches, the node emits ``(old_row, -1),
    (new_row, +1)`` against its cached last output — the standard DBSP
    retraction pattern.

    Aggregate semantics mirror ``Table.group_by``: nulls are skipped,
    empty (all-null) aggregates yield null, ``count`` counts non-null
    values, int sums stay exact python ints, ``avg`` divides the
    null-skipping sum by the null-skipping count.  ``count_star`` counts
    net multiplicity (no batch-kernel twin; used by SQL ``COUNT(*)``).
    Float sums accumulate in arrival order, so they match batch
    bit-for-bit only on dyadic-grid data (docs/ivm.md); a group whose net
    multiplicity returns to zero drops its state entirely, so cancelled
    float residue can never leak into a reborn group.
    """

    def __init__(self, input_node: Node, keys: Sequence[str],
                 aggregates: Sequence[tuple[str, str | None, str]]) -> None:
        self.input = input_node
        self.keys = list(keys)
        schema = input_node.schema
        out_fields = [schema.field(k) for k in self.keys]
        self._aggs: list[tuple[str, str | None, str]] = []
        for fn, col, out in aggregates:
            if fn not in GROUP_AGGREGATES:
                raise IvmError(
                    f"unknown aggregate {fn!r}; options: "
                    f"{sorted(GROUP_AGGREGATES)}"
                )
            if fn in ("count", "count_star"):
                dtype = "int"
            elif fn in ("sum", "min", "max"):
                dtype = schema.dtype_of(col)
            else:
                dtype = "float"
            out_fields.append(Field(out, dtype))
            self._aggs.append((fn, col, out))
        self.schema = Schema(out_fields)
        self.streams = input_node.streams
        # key tuple -> [net_rows, state_0, state_1, ...] with one state
        # slot per aggregate: None for count_star (derived from net_rows),
        # int for count, [count, acc] for sum/avg, an _Extreme for
        # min/max.
        self._groups: dict[tuple[Any, ...], list[Any]] = {}
        self._out_cache: dict[tuple[Any, ...], tuple[Any, ...]] = {}

    def _fresh_state(self) -> list[Any]:
        state: list[Any] = [0]
        for fn, _col, _out in self._aggs:
            if fn == "count_star":
                state.append(None)
            elif fn == "count":
                state.append(0)
            elif fn in ("sum", "avg"):
                state.append([0, 0])
            else:
                state.append(_Min() if fn == "min" else _Extreme())
        return state

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d) == 0:
            return self._empty()
        if len(d) >= _BULK_FOLD_MIN and self.keys:
            affected = self._fold_bulk(d)
        else:
            affected = self._fold_rows(d)
        metrics.counter("ivm.group.delta_rows").inc(len(d))
        metrics.counter("ivm.group.touched").inc(len(affected))
        rows: list[tuple[Any, ...]] = []
        weights: list[int] = []
        for key in affected:
            old_row = self._out_cache.get(key)
            new_row = self._group_row(key)
            if old_row == new_row:
                continue
            if old_row is not None:
                rows.append(old_row)
                weights.append(-1)
            if new_row is not None:
                rows.append(new_row)
                weights.append(1)
                self._out_cache[key] = new_row
            else:
                self._out_cache.pop(key, None)
        if not rows:
            return self._empty()
        out_payload = Table.from_rows(rows, schema=self.schema)
        return ZSet(out_payload, np.asarray(weights, dtype=np.int64))

    def _fold_rows(self, d: ZSet) -> dict[tuple[Any, ...], None]:
        """Row-at-a-time fold; exact for every dtype, best for small deltas."""
        payload = d.payload
        keys = _key_tuples(payload, self.keys)
        dweights = d.weights.tolist()
        # (state slot, kind, column values) per aggregate that carries state
        folds = [
            (slot, fn, payload.column(col))
            for slot, (fn, col, _out) in enumerate(self._aggs, start=1)
            if fn != "count_star"
        ]
        groups = self._groups
        affected: dict[tuple[Any, ...], None] = {}
        for i, key in enumerate(keys):
            wi = dweights[i]
            state = groups.get(key)
            if state is None:
                state = groups[key] = self._fresh_state()
            state[0] += wi
            affected[key] = None
            for slot, fn, values in folds:
                v = values[i]
                if v is None:
                    continue
                if fn == "count":
                    state[slot] += wi
                elif fn in ("sum", "avg"):
                    acc = state[slot]
                    acc[0] += wi
                    acc[1] += v * wi
                    if acc[0] == 0:
                        acc[1] = 0  # all values retracted: drop residue
                else:
                    state[slot].fold(v, wi)
        return affected

    def _fold_bulk(self, d: ZSet) -> dict[tuple[Any, ...], None]:
        """Vectorized fold for large deltas: bucket count/sum per distinct
        key with numpy, then merge one python step per *touched group*
        instead of per row.  min/max folds stay row-at-a-time (they update
        a per-value map), but ride on the same group resolution.

        Bucket sums accumulate in row order, so this path is value-exact
        with :meth:`_fold_rows` on ints and on dyadic-grid floats — the
        same caveat batch equivalence already carries (docs/ivm.md).
        """
        payload = d.payload
        w = d.weights
        codes = payload.project(self.keys).row_codes()
        _uniq, first, inv = np.unique(codes, return_index=True,
                                      return_inverse=True)
        n_groups = len(first)
        net = np.zeros(n_groups, dtype=np.int64)
        np.add.at(net, inv, w)
        bucket: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        minmax: list[tuple[int, str, list[Any]]] = []
        for slot, (fn, col, _out) in enumerate(self._aggs, start=1):
            if fn == "count_star":
                continue
            if fn in ("min", "max"):
                minmax.append((slot, fn, payload.column(col)))
                continue
            present = ~payload.null_mask(col)
            gids = inv[present]
            cnt = np.zeros(n_groups, dtype=np.int64)
            np.add.at(cnt, gids, w[present])
            sums = None
            if fn in ("sum", "avg"):
                vals = payload.column_array(col)[present]
                sums = np.zeros(n_groups, dtype=vals.dtype)
                np.add.at(sums, gids, vals * w[present])
            bucket[slot] = (cnt, sums)
        groups = self._groups
        affected: dict[tuple[Any, ...], None] = {}
        key_cols = [payload.column(k) for k in self.keys]
        gstates: list[list[Any]] = [None] * n_groups  # type: ignore[list-item]
        for g in np.argsort(first, kind="stable").tolist():
            fi = int(first[g])
            key = tuple(col[fi] for col in key_cols)
            state = groups.get(key)
            if state is None:
                state = groups[key] = self._fresh_state()
            state[0] += int(net[g])
            affected[key] = None
            gstates[g] = state
            for slot, (cnt, sums) in bucket.items():
                if sums is None:
                    state[slot] += int(cnt[g])
                else:
                    acc = state[slot]
                    acc[0] += int(cnt[g])
                    acc[1] += sums[g].item()
                    if acc[0] == 0:
                        acc[1] = 0  # all values retracted: drop residue
        if minmax:
            dweights = w.tolist()
            ginv = inv.tolist()
            for slot, _fn, values in minmax:
                folds = [gstate[slot].fold for gstate in gstates]
                for v, g, wi in zip(values, ginv, dweights):
                    if v is not None:
                        folds[g](v, wi)
        return affected

    def _group_row(self, key: tuple[Any, ...]) -> tuple[Any, ...] | None:
        """Current output row from running state; ``None`` = group gone."""
        state = self._groups.get(key)
        if state is None:
            return None
        total = state[0]
        if total <= 0:
            # Net multiplicity zero: the group is gone and its state must
            # go with it (float accumulators would otherwise carry residue
            # into a later rebirth of the same key).
            del self._groups[key]
            return None
        row: list[Any] = list(key)
        for slot, (fn, _col, _out) in enumerate(self._aggs, start=1):
            if fn == "count_star":
                row.append(total)
            elif fn == "count":
                row.append(state[slot])
            elif fn in ("sum", "avg"):
                count, acc = state[slot]
                if count <= 0:
                    row.append(None)
                elif fn == "sum":
                    row.append(acc)
                else:
                    row.append(acc / count)
            else:
                # min/max over values with net multiplicity > 0: valid
                # because the upstream state is a true multiset.
                row.append(state[slot].value())
        return tuple(row)

    def describe(self) -> str:
        aggs = ", ".join(f"{fn}({col or '*'}) AS {out}"
                         for fn, col, out in self._aggs)
        return (f"group_by {', '.join(self.keys)}: {aggs} "
                f"({len(self._groups)} live groups)")


class DistinctNode(Node):
    """Incremental distinct: emit a row only when its presence flips.

    Net multiplicities live in a dict keyed by full row tuple; a delta
    entry that moves a row across the zero boundary emits ``+1`` / ``-1``,
    everything else is absorbed silently (the DBSP ``distinct`` is the one
    non-linear unary operator, but its state is just this counter map).
    """

    def __init__(self, input_node: Node) -> None:
        self.input = input_node
        self.schema = input_node.schema
        self.streams = input_node.streams
        self._net: dict[tuple[Any, ...], int] = {}

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d) == 0:
            return self._empty()
        rows: list[tuple[Any, ...]] = []
        weights: list[int] = []
        for row, w in d.consolidate().entries():
            if not w:
                continue
            old = self._net.get(row, 0)
            new = old + w
            if new:
                self._net[row] = new
            else:
                self._net.pop(row, None)
            if old <= 0 < new:
                rows.append(row)
                weights.append(1)
            elif new <= 0 < old:
                rows.append(row)
                weights.append(-1)
        if not rows:
            return self._empty()
        payload = Table.from_rows(rows, schema=self.schema)
        return ZSet(payload, np.asarray(weights, dtype=np.int64))

    def describe(self) -> str:
        return f"distinct ({len(self._net)} live rows)"
