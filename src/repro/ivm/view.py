"""Stream tables and materialized views.

A :class:`StreamTable` is a continuously-mutating table: its net state is
a Z-set, kept consolidated in a :class:`~repro.ivm.zset.Ledger` (docs/ivm.md,
"State on arrays"), and :meth:`~StreamTable.insert_rows` /
:meth:`~StreamTable.delete_rows` push ``(row, ±1)`` deltas through every
:class:`MaterializedView` registered over it.  A view is one tree of
:mod:`~repro.ivm.operators` nodes; each push advances it by one delta, so
the cost of an update is proportional to the delta (plus touched
groups), never to the base table, and a read takes the output from the
node state that holds it.  Reading :meth:`MaterializedView.table` caches
until the next change.

Views are *composed*, not queried: build one with the fluent
:class:`ViewBuilder` (``stream.view().filter(...).join(...).group_by(...)
.materialize()``) or from SQL via
:meth:`repro.sql.Database.create_view`.  Each builder holds a function
that builds its fresh node tree, so the same recipe can be materialized
repeatedly — every materialization builds fresh stateful nodes and seeds
them from the streams' current states.

Chaos: every push crosses the ``ivm.push`` fault point *before* any state
mutates, so an injected fault leaves stream and views untouched
(tests/test_ivm_chaos assert exactly this).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import IvmError
from repro.obs import metrics
from repro.obs.instrument import timed
from repro.resilience import faults
from repro.table import Schema, Table
from repro.ivm.operators import (
    DistinctNode,
    FilterNode,
    GroupByNode,
    IntegrateNode,
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

    def insert(self, table: Table) -> None:
        self.push(Delta.inserts(table))

    def delete(self, table: Table) -> None:
        self.push(Delta.deletes(table))

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        self.insert(Table.from_rows(rows, schema=self.schema))

    def delete_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        self.delete(Table.from_rows(rows, schema=self.schema))

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
        return ViewBuilder(lambda: ScanNode(self))

    def _register(self, view: "MaterializedView") -> None:
        self._views.append(view)

    def _unregister(self, view: "MaterializedView") -> None:
        if view in self._views:
            self._views.remove(view)


class ViewBuilder:
    """Fluent, immutable view recipe over one or more streams.

    Every method returns a new builder; :meth:`materialize` builds the
    recipe into fresh operator nodes, seeds them from the current stream
    states, and registers the view for future pushes.
    """

    def __init__(self, build: Callable[[], Node]) -> None:
        self._build = build

    def filter(self, predicate) -> "ViewBuilder":
        """Keep rows where ``predicate`` holds — a vectorized callable
        ``Table -> bool mask``."""
        return ViewBuilder(lambda: FilterNode(self._build(), predicate))

    def project(self, names: Sequence[str],
                rename: dict[str, str] | None = None) -> "ViewBuilder":
        names, rename = list(names), dict(rename or {})
        return ViewBuilder(lambda: ProjectNode(self._build(), names, rename))

    def join(self, other: "ViewBuilder | StreamTable",
             on: Sequence[tuple[str, str]] | str,
             suffix: str = "_r") -> "ViewBuilder":
        right = other.view() if isinstance(other, StreamTable) else other
        return ViewBuilder(lambda: JoinNode(self._build(), right._build(), on,
                                            suffix))

    def union(self, other: "ViewBuilder | StreamTable") -> "ViewBuilder":
        right = other.view() if isinstance(other, StreamTable) else other
        return ViewBuilder(lambda: UnionNode(self._build(), right._build()))

    def group_by(self, keys: Sequence[str],
                 aggregates: Sequence[tuple[str, str | None, str]],
                 ) -> "ViewBuilder":
        keys, aggregates = list(keys), list(aggregates)
        return ViewBuilder(
            lambda: GroupByNode(self._build(), keys, aggregates))

    def distinct(self) -> "ViewBuilder":
        return ViewBuilder(lambda: DistinctNode(self._build()))

    def materialize(self, name: str = "view", *,
                    order_by: tuple[str, bool] | None = None,
                    limit: int | None = None) -> "MaterializedView":
        return MaterializedView(name, self._build(),
                                order_by=order_by, limit=limit)


class MaterializedView:
    """An always-fresh query result maintained by deltas.

    Holds only its root node: a push advances the tree by one delta
    (delta-sized work), and :meth:`table` reads the root's
    :meth:`~repro.ivm.operators.Node.output`, cached until the next
    change.  ``order_by``/``limit`` are read-time decorations (SQL views
    use them); the maintained state is always the full unordered result.
    """

    def __init__(self, name: str, root: Node, *,
                 order_by: tuple[str, bool] | None = None,
                 limit: int | None = None) -> None:
        self.name = name
        self.root = root if root.output() is not None else IntegrateNode(root)
        self.order_by = order_by
        self.limit = limit
        self._table: Table | None = None
        self._last_push: tuple[int, int] | None = None
        streams = sorted(root.streams, key=lambda s: s.name)
        self.root.delta({stream: stream._rows.zset() for stream in streams})
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
                self._table = None
            self._last_push = (len(delta), len(out))
            metrics.counter("ivm.views.applies").inc()
            metrics.counter("ivm.views.rows_emitted").inc(len(out))
            s.set(rows_out=len(out))

    def table(self) -> Table:
        """The maintained result as a plain table (cached until the next
        delta), with any ``order_by``/``limit`` read options applied."""
        if self._table is None:
            out = self.root.output().expand()
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
