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
* :meth:`Node.output` reads a node's whole output from the state that
  holds it; a view whose tree holds none is rooted at an
  :class:`IntegrateNode`, DBSP's integrator.

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
from repro.table import Column, HashIndex, Schema, Table, hash_rows
from repro.table.aggregate import AGGREGATES, lookup, output_fields
from repro.ivm.zset import Ledger, ZSet

#: Aggregate functions the incremental group-by supports: all of the
#: aggregate algebra's (:mod:`repro.table.aggregate`).
GROUP_AGGREGATES = tuple(AGGREGATES)

#: A trace is compacted (consolidated + re-indexed) when its physical
#: entry count exceeds twice the entry count after the last compaction —
#: amortized O(1) per appended row, and cancelled inserts/deletes never
#: accumulate more than a constant factor of garbage.
_COMPACT_GROWTH = 2
_COMPACT_FLOOR = 64


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

    def probe(self, keys: Sequence[Column], hashes: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``(delta row, trace row)`` whose keys are equal, for a
        delta's key columns ``keys`` and their row ``hashes``; a null key
        equals nothing here, since the trace stores none."""
        if not self._len:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        return self._index.probe(
            hashes, keys, self.zset.payload.project(self.key_names).columns())

    def update(self, delta: ZSet, keys: Sequence[Column],
               hashes: np.ndarray) -> None:
        """Append ``delta``, whose key columns are ``keys``, hashing to
        ``hashes``."""
        if len(delta) == 0:
            return
        nulls = np.any([col.mask for col in keys], axis=0)
        if nulls.any():
            delta, hashes = delta.compress(~nulls), hashes[~nulls]
            if len(delta) == 0:
                return
        start = self._len
        self._parts = [*self._parts, delta] if start else [delta]
        self._index = self._index.insert(
            hashes, np.arange(start, start + len(delta)))
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
            self._index = HashIndex.build(hash_rows(
                flat.payload.project(self.key_names).columns()))
        metrics.counter("ivm.trace.compactions").inc()


class Node:
    """A compiled view-plan operator.

    Subclasses set ``schema`` (output schema, known at construction) and
    ``streams`` (the :class:`StreamTable` leaves below this node), and
    implement :meth:`delta` (and :meth:`output` where state holds it).
    Stateful nodes carry state, so a node belongs to exactly one view.
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

    def output(self) -> ZSet | None:
        """The whole output (nonnegative weights), from the state that holds
        it; None where none does: a scan, a join, linear nodes over them."""
        return None

    def inputs(self) -> tuple["Node", ...]:
        """Child nodes, in plan order."""
        return (self.input,)

    def describe(self) -> str:
        """One line of :meth:`MaterializedView.explain`: the operator and
        the size of any state it keeps."""
        raise NotImplementedError

    def _empty(self) -> ZSet:
        return ZSet.empty(self.schema)


class _LinearNode(Node):
    """A linear operator: it commutes with integration, I(Q(Δ)) = Q(I(Δ)),
    so the one map :meth:`_apply` takes the inputs' deltas to this node's
    delta and the inputs' outputs to its output."""

    def _apply(self, *zsets: ZSet) -> ZSet:
        raise NotImplementedError

    def delta(self, changes: dict) -> ZSet:
        return self._apply(*(node.delta(changes) for node in self.inputs()))

    def output(self) -> ZSet | None:
        outs = [node.output() for node in self.inputs()]
        return None if None in outs else self._apply(*outs)


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


class FilterNode(_LinearNode):
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

    def _apply(self, z: ZSet) -> ZSet:
        if len(z) == 0:
            return z
        return z.compress(self._mask(z.payload))

    def describe(self) -> str:
        return "filter"


class ProjectNode(_LinearNode):
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

    def _apply(self, z: ZSet) -> ZSet:
        if len(z) == 0:
            return self._empty()
        out = z.project(self.names)
        if self.rename_map:
            out = out.rename(self.rename_map)
        return out

    def describe(self) -> str:
        names = [name if name not in self.rename_map
                 else f"{name} AS {self.rename_map[name]}"
                 for name in self.names]
        return f"project {', '.join(names)}"


class UnionNode(_LinearNode):
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

    def _apply(self, left: ZSet, right: ZSet) -> ZSet:
        if len(left) == 0:
            return right
        if len(right) == 0:
            return left
        return left + right

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
        # ΔA ⋈ B_old, then A_new ⋈ ΔB: the right trace has not advanced
        # when ΔA probes it, and the left one includes ΔA when ΔB probes.
        sides = ((self.left, self._left_trace, self._right_trace, True),
                 (self.right, self._right_trace, self._left_trace, False))
        parts = []
        for node, own, other, on_left in sides:
            d = node.delta(changes)
            if len(d):
                parts.append(self._advance(d, own, other, on_left))
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

    def _advance(self, delta: ZSet, own: Trace, other: Trace,
                 delta_on_left: bool) -> ZSet:
        """Probe ``other`` with one side's ``delta``, then append the delta
        to that side's trace ``own``; its keys are hashed once, for both."""
        keys = delta.payload.project(own.key_names).columns()
        hashes = hash_rows(keys)
        d_idx, t_idx = other.probe(keys, hashes)
        own.update(delta, keys, hashes)
        if not len(d_idx):
            return self._empty()
        dz = delta.take(d_idx)
        tz = other.zset.take(t_idx)
        lz, rz = (dz, tz) if delta_on_left else (tz, dz)
        cols = tuple(lz.payload.columns()) + tuple(
            rz.payload.columns()[j] for j in self.kept_right_idx
        )
        payload = Table.from_columns(self.schema, cols)
        return ZSet(payload, lz.weights * rz.weights)


class GroupByNode(Node):
    """Incremental group-by over running per-group aggregate state.

    No trace: the groups are a :class:`~repro.ivm.zset.Ledger` over the
    key columns, whose weight is each group's net row count, and each
    live group's slot holds the retractable fold state of every aggregate
    (:mod:`repro.table.aggregate`; docs/table.md, "Aggregate semantics")
    plus the row it last emitted.  A batch therefore costs O(delta rows x
    aggregates) to absorb plus O(touched groups) to emit, independent of
    both table size and group sizes — except that a min/max whose extreme
    was retracted rescans that group's distinct values once
    (``ivm.group.extreme_rescans``).

    For each group the delta touches, the node emits ``(old_row, -1),
    (new_row, +1)`` against its last output — the standard DBSP
    retraction pattern.  A group whose weight returns to zero drops its
    fold states, and one that comes back starts from fresh ones, so
    cancelled float residue never leaks into a reborn group.
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
        self._groups = Ledger(input_node.schema.project(self.keys),
                              "group_by")
        # Per group slot: [fold state per aggregate..., row last emitted],
        # or None once the group's weight is zero.
        self._slots: list[list[Any] | None] = []

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d) == 0:
            return self._empty()
        payload, w = d.payload, d.weights
        slot, touched, old, new = self._groups.add(
            payload.project(self.keys).columns(), w)
        slots = self._slots
        slots += [None] * (len(self._groups) - len(slots))
        for g in touched[old == 0].tolist():
            slots[g] = [fn.state() for fn in self._fns] + [None]
        stored = slot >= 0
        if not stored.all():
            # Rows of unseen groups that netted to zero: no group to fold.
            payload, w, slot = payload.filter(stored), w[stored], slot[stored]
        entries = [slots[g] for g in touched.tolist()]
        self._fold(payload, w, np.searchsorted(touched, slot), entries)
        metrics.counter("ivm.group.delta_rows").inc(len(d))
        metrics.counter("ivm.group.touched").inc(len(touched))
        keys = [c.to_pylist() for c in self._groups.columns(touched)]
        keys = list(zip(*keys)) if keys else [()] * len(touched)
        rows: list[tuple[Any, ...]] = []
        weights: list[int] = []
        for g, entry, key, alive in zip(touched.tolist(), entries, keys,
                                        (new > 0).tolist()):
            new_row = (key + tuple(fold.value() for fold in entry[:-1])
                       if alive else None)
            if entry[-1] != new_row:
                for row, sign in ((entry[-1], -1), (new_row, 1)):
                    if row is not None:
                        rows.append(row)
                        weights.append(sign)
                entry[-1] = new_row
            if not alive:
                slots[g] = None
        if self._groups.compact():
            self._slots = [entry for entry in slots if entry is not None]
        return ZSet(Table.from_rows(rows, schema=self.schema), weights)

    def _fold(self, payload: Table, w: np.ndarray, gids: np.ndarray,
              states: list[list[Any]]) -> None:
        """Fold each row ``i`` into its group's fold states,
        ``states[gids[i]]``.  Linear aggregates pre-aggregate the rows per
        group and add in one step per group; min/max fold row at a time.
        Sums add in row order (docs/ivm.md, the float caveat)."""
        for i, (fn, (_name, name, _out)) in enumerate(
                zip(self._fns, self._aggs)):
            col = (payload.columns()[payload.schema.index_of(name)]
                   if fn.takes_column else None)
            if fn.linear:
                for state, n, total in zip(
                        states, *fn.delta(col, w, gids, len(states))):
                    state[i].add(n, total)
                continue
            folds = [state[i].fold for state in states]
            for v, g, wi in zip(col.to_pylist(), gids.tolist(), w.tolist()):
                if v is not None:
                    folds[g](v, wi)

    def output(self) -> ZSet:
        """Each live group's last emitted row, at weight 1: the keys from
        the group ledger, the aggregates from the rows (trusted)."""
        live = [g for g, entry in enumerate(self._slots) if entry is not None]
        cols = self._groups.columns(np.array(live, np.int64))
        cols += [Column.build([self._slots[g][-1][i] for g in live], f.dtype)
                 for i, f in enumerate(self.schema) if i >= len(self.keys)]
        return ZSet.from_table(Table.from_columns(self.schema, cols))

    def describe(self) -> str:
        aggs = ", ".join(f"{fn}({col or '*'}) AS {out}"
                         for fn, col, out in self._aggs)
        return (f"group_by {', '.join(self.keys)}: {aggs} "
                f"({self._groups.live} live groups)")


class DistinctNode(Node):
    """Incremental distinct: emit a row only when its presence flips.

    Net multiplicities live in a :class:`~repro.ivm.zset.Ledger` over full
    rows; a row whose weight leaves zero emits ``+1``, one whose weight
    returns to zero emits ``-1``, and everything else is absorbed silently
    (the DBSP ``distinct`` is the one non-linear unary operator, but its
    state is just this ledger).
    """

    def __init__(self, input_node: Node) -> None:
        self.input = input_node
        self.schema = input_node.schema
        self.streams = input_node.streams
        self._rows = Ledger(self.schema, "distinct")

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d) == 0:
            return self._empty()
        _slot, touched, old, new = self._rows.add(d.payload.columns(),
                                                  d.weights)
        flips = (old == 0) != (new == 0)
        out = ZSet(Table.from_columns(self.schema,
                                      self._rows.columns(touched[flips])),
                   np.where(new[flips] > 0, 1, -1))
        self._rows.compact()
        return out

    def output(self) -> ZSet:
        """The live rows, at weight 1."""
        return ZSet.from_table(self._rows.zset().payload)

    def describe(self) -> str:
        return f"distinct ({self._rows.live} live rows)"


class IntegrateNode(Node):
    """DBSP's integrator: the running sum of its input's deltas, in a
    :class:`~repro.ivm.zset.Ledger`.  A view is rooted here only when its
    tree holds no output of its own (docs/ivm.md, "Reading a view")."""

    def __init__(self, input_node: Node) -> None:
        self.input = input_node
        self.schema = input_node.schema
        self.streams = input_node.streams
        self._rows = Ledger(self.schema, "integrate")

    def delta(self, changes: dict) -> ZSet:
        d = self.input.delta(changes)
        if len(d):
            self._rows.add(d.payload.columns(), d.weights)
            self._rows.compact()
        return d

    def output(self) -> ZSet:
        return self._rows.zset()

    def describe(self) -> str:
        return f"integrate ({self._rows.live} live rows)"
