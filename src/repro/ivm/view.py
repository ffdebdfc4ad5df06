"""Stream tables and materialized views.

A :class:`StreamTable` is a continuously-mutating table: its net state is
a Z-set, kept consolidated in a :class:`~repro.ivm.zset.Ledger` (docs/ivm.md,
"State on arrays"), and :meth:`~StreamTable.insert_rows` /
:meth:`~StreamTable.delete_rows` push ``(row, ±1)`` deltas through every
:class:`MaterializedView` registered over it.  A view is a compiled tree
of :mod:`~repro.ivm.operators` nodes; each push advances the tree by one
delta and adds the output delta to the view's own ledger, so the cost of
an update is proportional to the delta (plus touched groups), never to
the base table.  Reading :meth:`MaterializedView.table` caches until the
next change.

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

from repro.errors import IvmError
from repro.obs import metrics
from repro.obs.instrument import timed
from repro.resilience import faults
from repro.table import Schema, Table
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
from repro.ivm.zset import Delta, Ledger, ZSet

#: Named chaos injection point crossed at the top of every delta push.
PUSH_POINT = "ivm.push"


class StreamTable:
    """A mutable table that feeds materialized views.

    Construct from a :class:`~repro.table.Table` (initial state) or a
    schema (empty stream).  The net state is always a true multiset —
    deleting rows that are not present raises
    :class:`~repro.errors.IvmError` before anything mutates.

    The state is a :class:`~repro.ivm.zset.Ledger` of the distinct rows
    seen so far: a push nets the delta against the stored weights in
    place and appends the unseen rows — O(delta) work, amortized — and
    rows whose weight falls to zero stay until they are half the physical
    rows, when one compress drops them all, so a stream holds at most
    about twice its distinct live rows plus one push.
    """

    def __init__(self, data: Table | Schema | Sequence[tuple[str, str]],
                 name: str = "stream") -> None:
        table = data if isinstance(data, Table) else Table.empty(data)
        self.name = name
        self._rows = Ledger(table.schema, f"stream {name!r}")
        self._absorb(ZSet.from_table(table))
        self._net = table.num_rows
        self._views: list["MaterializedView"] = []
        self._snapshot: Table | None = None

    @property
    def schema(self) -> Schema:
        return self._rows.schema

    @property
    def num_rows(self) -> int:
        """Net row count (duplicates weighted)."""
        return self._net

    @property
    def physical_rows(self) -> int:
        """Rows the ledger holds, zero-weight rows not yet compressed
        included."""
        return len(self._rows)

    def __repr__(self) -> str:
        return (f"StreamTable({self.name!r}, rows={self.num_rows}, "
                f"views={len(self._views)})")

    def snapshot(self) -> Table:
        """The current state as a plain table (cached until the next push)."""
        if self._snapshot is None:
            self._snapshot = self._rows.zset().expand()
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
        self._rows.add(delta.payload.columns(), delta.weights)
        if self._rows.compact():
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

    Holds the root operator node and the result as a
    :class:`~repro.ivm.zset.Ledger`: applying a push adds the root's
    output delta to it (delta-sized work), and :meth:`table` reads its
    nonzero rows, cached until the next change.  ``order_by``/``limit``
    are read-time decorations (SQL views use them); the maintained state
    is always the full unordered result.
    """

    def __init__(self, name: str, root: Node, *,
                 order_by: tuple[str, bool] | None = None,
                 limit: int | None = None) -> None:
        self.name = name
        self.root = root
        self.order_by = order_by
        self.limit = limit
        self._rows = Ledger(root.schema, f"view {name!r}")
        self._table: Table | None = None
        self._last_push: tuple[int, int] | None = None
        streams = sorted(root.streams, key=lambda s: s.name)
        self._absorb(root.delta({stream: stream._rows.zset()
                                 for stream in streams}))
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
                self._absorb(out)
                self._table = None
            self._last_push = (len(delta), len(out))
            metrics.counter("ivm.views.applies").inc()
            metrics.counter("ivm.views.rows_emitted").inc(len(out))
            s.set(rows_out=len(out))

    def _absorb(self, out: ZSet) -> None:
        self._rows.add(out.payload.columns(), out.weights)
        self._rows.compact()

    def output(self) -> ZSet:
        """The maintained result as a consolidated Z-set."""
        return self._rows.zset()

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
