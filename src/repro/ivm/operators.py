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
  Group-by folds each delta row into the running per-group fold states
  of :mod:`repro.table.aggregate` (count/sum accumulators, net value
  multiplicities plus a cached extreme for min/max) and emits
  retraction/assertion pairs against its last output — O(delta); only a
  min/max whose extreme was retracted rescans its group's values.
  Distinct tracks net multiplicities and emits only presence flips.

The batch kernels on :class:`~repro.table.Table` are the semantics —
``incremental(deltas) == batch(final_state)`` is property-tested for every
operator (tests/test_ivm_properties.py).  Float aggregation caveat: sums
re-accumulate in trace order, so float results match batch bit-for-bit
only on dyadic-grid data (docs/ivm.md).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import IvmError, SchemaError
from repro.obs import metrics
from repro.table import HashIndex, Schema, Table, hash_rows
from repro.table.aggregate import AGGREGATES, exact_sums, lookup, output_fields
from repro.ivm.zset import ZSet

#: Aggregate functions the incremental group-by supports: all of the
#: aggregate algebra's (:mod:`repro.table.aggregate`).
GROUP_AGGREGATES = tuple(AGGREGATES)

#: A trace is compacted (consolidated + re-indexed) when its physical
#: entry count exceeds twice the entry count after the last compaction —
#: amortized O(1) per appended row, and cancelled inserts/deletes never
#: accumulate more than a constant factor of garbage.
_COMPACT_GROWTH = 2
_COMPACT_FLOOR = 64

#: Delta size from which the group-by resolves rows to groups through
#: numpy row codes instead of a python dict.
_BULK_FOLD_MIN = 64


def _key_tuples(table: Table, key_names: Sequence[str]) -> list[tuple[Any, ...]]:
    """Python key tuple per row (``None`` elements mark nulls)."""
    cols = [table.column(name) for name in key_names]
    return list(zip(*cols)) if cols else [()] * table.num_rows


def _any_null(table: Table, key_names: Sequence[str]) -> np.ndarray:
    out = np.zeros(table.num_rows, dtype=bool)
    for name in key_names:
        out |= table.null_mask(name)
    return out


class Trace:
    """An operator's accumulated input: append-only Z-set parts plus a
    key index.

    The index is a :class:`~repro.table.HashIndex` over the key hashes,
    holding positions in the *concatenated* trace, so a delta finds its
    matches with ``searchsorted`` and a vectorized gather, confirmed by
    exact key equality.  :meth:`update` appends the delta as a pending
    part and indexes its keys at their offsets — O(delta), no copy of the
    accumulated rows.  The parts are concatenated, in one pass, only when
    something reads :attr:`zset`: a probe from the other join side, or
    compaction.  A join whose other side never changes therefore never
    copies this side's state on a push.  Consolidation garbage (cancelled
    ±w pairs) is bounded by periodic compaction, which rebuilds the index
    with one argsort when rows were dropped.

    Null-keyed rows are never stored: they can never match, per SQL
    equality.
    """

    __slots__ = ("_parts", "_index", "_len", "key_names", "_compacted_len")

    def __init__(self, schema: Schema, key_names: Sequence[str]):
        self._parts = [ZSet.empty(schema)]
        self._index = HashIndex.build(np.empty(0, np.uint64))
        self._len = 0
        self.key_names = list(key_names)
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

    def probe(self, delta: ZSet, key_names: Sequence[str]
              ) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``(delta row, trace row)`` whose keys (``key_names`` in
        the delta, :attr:`key_names` here) are equal; a null key equals
        nothing here, since the trace stores none."""
        if not self._len:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        keys = delta.payload.project(key_names).columns()
        return self._index.probe(
            hash_rows(keys), keys,
            self.zset.payload.project(self.key_names).columns())

    def _key_hashes(self, part: ZSet) -> np.ndarray:
        return hash_rows(part.payload.project(self.key_names).columns())

    def update(self, delta: ZSet) -> None:
        if len(delta) == 0:
            return
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
        self._index = self._index.insert(
            self._key_hashes(delta), np.arange(start, start + len(delta)))
        self._len += len(delta)
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
            self._index = HashIndex.build(self._key_hashes(flat))
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
        self._left_trace = Trace(left.schema, self.left_key_names)
        self._right_trace = Trace(right.schema, self.right_key_names)

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
        d_idx, t_idx = trace.probe(delta, self.left_key_names
                                   if delta_on_left else self.right_key_names)
        if not len(d_idx):
            return self._empty()
        dz = delta.take(d_idx)
        tz = trace.zset.take(t_idx)
        lz, rz = (dz, tz) if delta_on_left else (tz, dz)
        cols = tuple(lz.payload.columns()) + tuple(
            rz.payload.columns()[j] for j in self.kept_right_idx
        )
        payload = Table.from_columns(self.schema, cols)
        return ZSet(payload, lz.weights * rz.weights)


class GroupByNode(Node):
    """Incremental group-by over running per-group aggregate state.

    No trace: the node folds every delta row directly into a small state
    record per live group — net row multiplicity, plus per aggregate the
    retractable fold state of the aggregate algebra
    (:mod:`repro.table.aggregate`; docs/table.md, "Aggregate semantics").
    A batch therefore costs O(delta rows x aggregates) to absorb plus
    O(touched groups) to emit, independent of both table size and group
    sizes — except that a min/max whose extreme was retracted rescans
    that group's distinct values once (``ivm.group.extreme_rescans``).

    For each key the delta touches, the node emits ``(old_row, -1),
    (new_row, +1)`` against its cached last output — the standard DBSP
    retraction pattern.  A group whose net multiplicity returns to zero
    drops its state, so cancelled float residue never leaks into a reborn
    group.
    """

    def __init__(self, input_node: Node, keys: Sequence[str],
                 aggregates: Sequence[tuple[str, str | None, str]]) -> None:
        self.input = input_node
        self.keys = list(keys)
        self._aggs = [tuple(spec) for spec in aggregates]
        try:
            fields = output_fields(input_node.schema, self.keys, self._aggs)
        except SchemaError as exc:
            raise IvmError(str(exc)) from exc
        self.schema = Schema(fields)
        self._fns = [lookup(fn) for fn, _col, _out in self._aggs]
        self.streams = input_node.streams
        # key tuple -> [net_rows, state_0, state_1, ...] with one fold
        # state per aggregate.
        self._groups: dict[tuple[Any, ...], list[Any]] = {}
        self._out_cache: dict[tuple[Any, ...], tuple[Any, ...]] = {}

    def _fresh_state(self) -> list[Any]:
        return [0] + [fn.state() for fn in self._fns]

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d) == 0:
            return self._empty()
        affected = self._fold(d)
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

    def _fold(self, d: ZSet) -> list[tuple[Any, ...]]:
        """Fold a delta into the group states; returns the touched keys.

        Rows resolve to groups once (numpy row codes for large deltas, a
        dict for small ones).  Linear aggregates pre-aggregate the delta
        per group and add it in one step per touched group; min/max fold
        row at a time.  Delta sums add in row order (docs/ivm.md, the
        float caveat)."""
        payload, w = d.payload, d.weights
        if len(d) >= _BULK_FOLD_MIN and self.keys:
            codes = payload.project(self.keys).row_codes()
            _uniq, first, inv = np.unique(codes, return_index=True,
                                          return_inverse=True)
            rows = np.argsort(first, kind="stable")
            key_cols = [payload.column(k) for k in self.keys]
            keys = [tuple(col[i] for col in key_cols)
                    for i in first[rows].tolist()]
            inv = np.argsort(rows)[inv]         # ids in appearance order
        else:
            ids: dict[tuple[Any, ...], int] = {}
            inv = np.array([ids.setdefault(key, len(ids)) for key
                            in _key_tuples(payload, self.keys)], np.int64)
            keys = list(ids)
        groups = self._groups
        states = []
        for key, net in zip(keys, exact_sums(w, inv, len(keys)).tolist()):
            state = groups.get(key)
            if state is None:
                state = groups[key] = self._fresh_state()
            state[0] += net
            states.append(state)
        for slot, (fn, (_name, name, _out)) in enumerate(
                zip(self._fns, self._aggs), start=1):
            col = (payload.columns()[payload.schema.index_of(name)]
                   if fn.takes_column else None)
            if fn.linear:
                for state, n, total in zip(
                        states, *fn.delta(col, w, inv, len(keys))):
                    state[slot].add(n, total)
                continue
            folds = [state[slot].fold for state in states]
            for v, g, wi in zip(col.to_pylist(), inv.tolist(), w.tolist()):
                if v is not None:
                    folds[g](v, wi)
        return keys

    def _group_row(self, key: tuple[Any, ...]) -> tuple[Any, ...] | None:
        """Current output row from running state; ``None`` = group gone."""
        state = self._groups.get(key)
        if state is None:
            return None
        if state[0] <= 0:
            # Net multiplicity zero: the group is gone and its state must
            # go with it (float accumulators would otherwise carry residue
            # into a later rebirth of the same key).
            del self._groups[key]
            return None
        return key + tuple(fold.value() for fold in state[1:])

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
