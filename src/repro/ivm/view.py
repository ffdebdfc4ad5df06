"""Stream tables and materialized views.

A :class:`StreamTable` is a continuously-mutating table: its net state is
a Z-set, kept consolidated as a ledger of distinct rows, weights and a
row-hash index (docs/ivm.md, "State on arrays"), and
:meth:`~StreamTable.insert_rows` / :meth:`~StreamTable.delete_rows`
push ``(row, ±1)`` deltas through every :class:`MaterializedView`
registered over it.  A view is a compiled tree of
:mod:`~repro.ivm.operators` nodes; each push advances the tree by one
delta and appends the output delta to the view's pending parts, so the
cost of an update is proportional to the delta (plus touched groups),
never to the base table.  Reading :meth:`MaterializedView.table`
consolidates lazily and caches.

Views are *composed*, not queried: build one with the fluent
:class:`ViewBuilder` (``stream.view().filter(...).join(...).group_by(...)
.materialize()``) or from SQL via
:meth:`repro.sql.Database.create_view`.  The builder holds an immutable
spec tree, so the same recipe can be materialized repeatedly — every
materialization compiles fresh stateful nodes and seeds them from the
streams' current states.

Chaos: every push crosses the ``ivm.push`` fault point *before* any state
mutates, so an injected fault leaves stream and views untouched
(tests/test_ivm_chaos assert exactly this).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import IvmError
from repro.obs import metrics
from repro.obs.instrument import timed
from repro.resilience import faults
from repro.table import NUMPY_DTYPES, Column, HashIndex, Schema, Table, hash_rows
from repro.table.hashing import distinct_rows
from repro.ivm.operators import (
    DistinctNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    Node,
    ProjectNode,
    ScanNode,
    UnionNode,
)
from repro.ivm.zset import Delta, ZSet

#: Named chaos injection point crossed at the top of every delta push.
PUSH_POINT = "ivm.push"


class StreamTable:
    """A mutable table that feeds materialized views.

    Construct from a :class:`~repro.table.Table` (initial state) or a
    schema (empty stream).  The net state is always a true multiset —
    deleting rows that are not present raises
    :class:`~repro.errors.IvmError` before anything mutates.

    Physically the state is a ledger in structure-of-arrays form: the
    distinct rows seen so far (column buffers in first-appearance order,
    appended with amortized doubling), a mutable int64 weight per row, and
    a :class:`~repro.table.HashIndex` over the rows' content hashes.  A
    push hashes the delta, finds the stored rows it touches (confirmed by
    exact equality), adds the net weights in place and appends the unseen
    rows — O(delta) work, amortized.  Rows whose weight falls to zero stay
    until they are half the physical rows, when one compress drops them
    all, so a stream holds at most about twice its distinct live rows plus
    one push.
    """

    def __init__(self, data: Table | Schema | Sequence[tuple[str, str]],
                 name: str = "stream") -> None:
        table = data if isinstance(data, Table) else Table.empty(data)
        self.name = name
        self._schema = table.schema
        self._values = [np.empty(0, NUMPY_DTYPES[f.dtype])
                        for f in self._schema]
        self._masks = [np.empty(0, bool) for _ in self._schema]
        self._weights = np.empty(0, np.int64)
        self._n = 0
        self._zeros = 0
        self._index = HashIndex.build(np.empty(0, np.uint64))
        self._absorb(ZSet.from_table(table))
        self._net = table.num_rows
        self._views: list["MaterializedView"] = []
        self._snapshot: Table | None = None

    def _payload(self) -> Table:
        """Every physical row, zero weights included (views of the
        buffers: appends write past them, and nothing rewrites a row)."""
        n = self._n
        return Table.from_columns(self._schema, [
            Column(f.dtype, v[:n], m[:n])
            for f, v, m in zip(self._schema, self._values, self._masks)])

    @property
    def _state(self) -> ZSet:
        """The net state: the rows of nonzero weight."""
        weights = self._weights[:self._n]
        if not self._zeros:
            return ZSet(self._payload(), weights.copy())
        keep = weights != 0
        return ZSet(self._payload().filter(keep), weights[keep])

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        """Net row count (duplicates weighted)."""
        return self._net

    @property
    def physical_rows(self) -> int:
        """Rows the ledger holds, zero-weight rows not yet compressed
        included."""
        return self._n

    def __repr__(self) -> str:
        return (f"StreamTable({self.name!r}, rows={self.num_rows}, "
                f"views={len(self._views)})")

    def snapshot(self) -> Table:
        """The current state as a plain table (cached until the next push)."""
        if self._snapshot is None:
            self._snapshot = self._state.expand()
        return self._snapshot

    # -- mutation ---------------------------------------------------------

    def _conform(self, table: Table) -> Table:
        if table.schema != self.schema:
            raise IvmError(
                f"table schema {table.schema} does not match stream "
                f"{self.name!r} schema {self.schema}"
            )
        return table

    def insert(self, table: Table) -> None:
        self.push(Delta.inserts(self._conform(table)))

    def delete(self, table: Table) -> None:
        self.push(Delta.deletes(self._conform(table)))

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        self.insert(Table.from_rows([tuple(r) for r in rows],
                                    schema=self.schema))

    def delete_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        self.delete(Table.from_rows([tuple(r) for r in rows],
                                    schema=self.schema))

    def push(self, delta: ZSet) -> None:
        """Apply one delta batch: validate, advance state, notify views.

        Cost is O(delta), amortized: the ledger update never
        re-consolidates the accumulated state (see the class docstring).

        The state transition is atomic with respect to failure *before*
        it: the ``ivm.push`` fault point and the negative-multiplicity
        check both fire before state or any view mutates.  View
        notification itself is sequential; a view whose operator raises
        mid-apply leaves earlier views advanced (documented, not hidden —
        operator errors indicate bugs, not data conditions).
        """
        if delta.schema != self.schema:
            raise IvmError(
                f"delta schema {delta.schema} does not match stream "
                f"{self.name!r} schema {self.schema}"
            )
        with timed("ivm.push.seconds", span_name="ivm.push",
                   stream=self.name, entries=len(delta)) as s:
            faults.point(PUSH_POINT)
            self._absorb(delta)
            self._net += int(delta.weights.sum())
            self._snapshot = None
            metrics.counter("ivm.pushes").inc()
            metrics.counter("ivm.delta_rows").inc(len(delta))
            for view in list(self._views):
                view._apply(self, delta)
            s.set(state_rows=self._net)

    def _absorb(self, delta: ZSet) -> None:
        """Add ``delta`` to the ledger, or raise before mutating anything
        when a row's weight would go negative."""
        if len(delta) == 0:
            return
        columns = delta.payload.columns()
        weights = delta.weights
        hashes = hash_rows(columns)
        found, slot = self._index.probe(hashes, columns,
                                        self._payload().columns())
        # Stored rows the delta touches, with their new weights.
        slots, which = np.unique(slot, return_inverse=True)
        touched = np.zeros(len(slots), np.int64)
        np.add.at(touched, which, weights[found])
        old = self._weights[slots]
        touched += old
        # Unseen rows, grouped by content.
        fresh = np.ones(len(delta), bool)
        fresh[found] = False
        fresh = np.flatnonzero(fresh)
        if len(fresh) < len(delta):
            columns = [col.take(fresh) for col in columns]
        heads, group = distinct_rows(hashes[fresh], columns)
        added = np.zeros(len(heads), np.int64)
        np.add.at(added, group, weights[fresh])
        bad = int((touched < 0).sum() + (added < 0).sum())
        if bad:
            raise IvmError(
                f"push would leave {bad} rows of stream {self.name!r} "
                f"with negative multiplicity (deleting absent rows?)"
            )
        self._weights[slots] = touched
        self._zeros += int((touched == 0).sum() - (old == 0).sum())
        heads = heads[added > 0]
        if len(heads):
            self._append([col.take(heads) for col in columns],
                          added[added > 0], hashes[fresh[heads]])
        if 2 * self._zeros >= self._n > 0:
            self._compress()

    def _append(self, columns: list[Column], weights: np.ndarray,
                hashes: np.ndarray) -> None:
        n, k = self._n, len(weights)
        if n + k > len(self._weights):
            cap = max(2 * n, n + k)
            self._values = [_grown(v, n, cap) for v in self._values]
            self._masks = [_grown(m, n, cap) for m in self._masks]
            self._weights = _grown(self._weights, n, cap)
        for j, col in enumerate(columns):
            if col.values.dtype == object != self._values[j].dtype:
                # An oversized int moves the column to object storage.
                self._values[j] = self._values[j].astype(object)
            self._values[j][n:n + k] = col.values
            self._masks[j][n:n + k] = col.mask
        self._weights[n:n + k] = weights
        self._index = self._index.insert(hashes, np.arange(n, n + k))
        self._n = n + k

    def _compress(self) -> None:
        """Drop the zero-weight rows (buffers shrink to the live rows)."""
        keep = self._weights[:self._n] != 0
        self._values = [v[:self._n][keep] for v in self._values]
        self._masks = [m[:self._n][keep] for m in self._masks]
        self._weights = self._weights[:self._n][keep]
        self._index = self._index.keep(keep)
        self._n = len(self._weights)
        self._zeros = 0
        metrics.counter("ivm.stream.compactions").inc()

    # -- view construction ------------------------------------------------

    def view(self) -> "ViewBuilder":
        """Start a view definition rooted at this stream."""
        return ViewBuilder(_Spec("scan", (self,), ()))

    def _register(self, view: "MaterializedView") -> None:
        self._views.append(view)

    def _unregister(self, view: "MaterializedView") -> None:
        if view in self._views:
            self._views.remove(view)


def _grown(buffer: np.ndarray, n: int, capacity: int) -> np.ndarray:
    """A ``capacity``-sized buffer holding ``buffer[:n]``."""
    out = np.empty(capacity, buffer.dtype)
    out[:n] = buffer[:n]
    return out


class _Spec:
    """One immutable node of a view recipe: kind, args, child specs."""

    __slots__ = ("kind", "args", "inputs")

    def __init__(self, kind: str, args: tuple, inputs: tuple):
        self.kind = kind
        self.args = args
        self.inputs = inputs

    def build(self) -> Node:
        children = [child.build() for child in self.inputs]
        if self.kind == "scan":
            return ScanNode(self.args[0])
        if self.kind == "filter":
            return FilterNode(children[0], self.args[0])
        if self.kind == "project":
            return ProjectNode(children[0], self.args[0], self.args[1])
        if self.kind == "union":
            return UnionNode(children[0], children[1])
        if self.kind == "join":
            return JoinNode(children[0], children[1], self.args[0],
                            self.args[1])
        if self.kind == "group_by":
            return GroupByNode(children[0], self.args[0], self.args[1])
        if self.kind == "distinct":
            return DistinctNode(children[0])
        raise IvmError(f"unknown view operator {self.kind!r}")


class ViewBuilder:
    """Fluent, immutable view recipe over one or more streams.

    Every method returns a new builder; :meth:`materialize` compiles the
    recipe into fresh operator nodes, seeds them from the current stream
    states, and registers the view for future pushes.
    """

    def __init__(self, spec: _Spec) -> None:
        self._spec = spec

    def filter(self, predicate) -> "ViewBuilder":
        """Keep rows where ``predicate`` holds — a vectorized callable
        ``Table -> bool mask``."""
        return ViewBuilder(_Spec("filter", (predicate,), (self._spec,)))

    def project(self, names: Sequence[str],
                rename: dict[str, str] | None = None) -> "ViewBuilder":
        return ViewBuilder(
            _Spec("project", (list(names), dict(rename or {})), (self._spec,))
        )

    def join(self, other: "ViewBuilder | StreamTable",
             on: Sequence[tuple[str, str]] | str,
             suffix: str = "_r") -> "ViewBuilder":
        other_spec = (other.view()._spec if isinstance(other, StreamTable)
                      else other._spec)
        return ViewBuilder(
            _Spec("join", (on, suffix), (self._spec, other_spec))
        )

    def union(self, other: "ViewBuilder | StreamTable") -> "ViewBuilder":
        other_spec = (other.view()._spec if isinstance(other, StreamTable)
                      else other._spec)
        return ViewBuilder(_Spec("union", (), (self._spec, other_spec)))

    def group_by(self, keys: Sequence[str],
                 aggregates: Sequence[tuple[str, str | None, str]],
                 ) -> "ViewBuilder":
        return ViewBuilder(
            _Spec("group_by", (list(keys), list(aggregates)), (self._spec,))
        )

    def distinct(self) -> "ViewBuilder":
        return ViewBuilder(_Spec("distinct", (), (self._spec,)))

    def materialize(self, name: str = "view", *,
                    order_by: tuple[str, bool] | None = None,
                    limit: int | None = None) -> "MaterializedView":
        return MaterializedView(name, self._spec.build(),
                                order_by=order_by, limit=limit)


class MaterializedView:
    """An always-fresh query result maintained by deltas.

    Holds the root operator node and the accumulated output as a list of
    pending Z-set parts: applying a push appends one part (delta-sized
    work), and :meth:`table` consolidates lazily so a burst of pushes pays
    consolidation once.  ``order_by``/``limit`` are read-time decorations
    (SQL views use them); the maintained state is always the full
    unordered result.
    """

    def __init__(self, name: str, root: Node, *,
                 order_by: tuple[str, bool] | None = None,
                 limit: int | None = None) -> None:
        self.name = name
        self.root = root
        self.order_by = order_by
        self.limit = limit
        self._parts: list[ZSet] = []
        self._output: ZSet | None = None
        self._table: Table | None = None
        self._last_push: tuple[int, int] | None = None
        streams = sorted(root.streams, key=lambda s: s.name)
        seed = {stream: stream._state for stream in streams}
        self._parts.append(root.delta(seed))
        for stream in streams:
            stream._register(self)

    @property
    def schema(self) -> Schema:
        return self.root.schema

    def __repr__(self) -> str:
        return f"MaterializedView({self.name!r}, schema={self.schema!r})"

    def _apply(self, stream: StreamTable, delta: ZSet) -> None:
        with timed("ivm.view.apply.seconds", span_name="ivm.view.apply",
                   view=self.name) as s:
            out = self.root.delta({stream: delta})
            if len(out):
                self._parts.append(out)
                self._output = None
                self._table = None
            self._last_push = (len(delta), len(out))
            metrics.counter("ivm.views.applies").inc()
            metrics.counter("ivm.views.rows_emitted").inc(len(out))
            s.set(rows_out=len(out))

    def output(self) -> ZSet:
        """The maintained result as a consolidated Z-set."""
        if self._output is None or len(self._parts) > 1:
            flat = ZSet.concat(self._parts).consolidate()
            self._parts = [flat]
            self._output = flat
        return self._output

    def table(self) -> Table:
        """The maintained result as a plain table (cached until the next
        delta), with any ``order_by``/``limit`` read options applied."""
        if self._table is None:
            out = self.output().expand()
            if self.order_by is not None:
                col, descending = self.order_by
                out = out.order_by(col, descending=descending)
            if self.limit is not None:
                out = out.limit(self.limit)
            self._table = out
        return self._table

    def explain(self) -> str:
        """Text rendering of the operator tree and its state: each join
        trace's consolidated and pending rows, each group-by's live
        groups, and the delta rows in and out of the last push."""
        if self._last_push is None:
            push = "no push yet"
        else:
            push = "last push: %d delta rows in, %d out" % self._last_push
        lines = [f"view {self.name} ({push})"]

        def walk(node: Node, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.inputs():
                walk(child, depth + 1)

        walk(self.root, 1)
        return "\n".join(lines)

    def detach(self) -> None:
        """Stop maintaining this view (streams drop their reference)."""
        for stream in self.root.streams:
            stream._unregister(self)
