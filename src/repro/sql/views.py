"""Compile parsed SELECT statements into incrementally-maintained views.

:meth:`repro.sql.Database.create_view` lands here: a :class:`Query` over
registered :class:`~repro.ivm.StreamTable`s is lowered through the same
logical-plan front end the batch executor uses
(:func:`repro.sql.plan.compile_query`) and the plan is walked into a
:class:`~repro.ivm.ViewBuilder` recipe — scan → join* → filter →
(group-by → project | project) — materialized with ORDER BY / LIMIT as
read-time options.  The batch executor over stream snapshots is the
semantics; ``db.query(sql)`` and ``db.create_view(...).table()`` are
property-tested equal row-for-row.  Because both sides share one plan
vocabulary, :meth:`~repro.sql.Database.create_view` also registers the
view's plan fingerprint so the optimizer substitutes the maintained view
into matching ad-hoc queries.

Supported subset (anything else raises :class:`~repro.errors.IvmError`
at ``create_view`` time, never at push time):

* FROM / INNER JOIN over registered streams only
* WHERE clauses the vectorized evaluator accepts (no aggregates)
* SELECT of plain columns (with aliases), or GROUP BY with
  count/sum/min/max/avg/COUNT(*) over plain columns — global aggregates
  without GROUP BY are rejected (an empty incremental group cannot emit
  the ``COUNT(*) = 0`` row batch SQL produces)
* ORDER BY / LIMIT, applied when the view is read

Aggregate values and output dtypes come from the aggregate algebra
(:mod:`repro.table.aggregate`) on both sides, so a view and the batch
query agree on schema as well as rows.
"""

from __future__ import annotations

from repro.errors import IvmError, ParseError
from repro.ivm import MaterializedView, StreamTable, ViewBuilder
from repro.sql.ast import ColumnRef, Literal, Query
from repro.sql.expr import AggregateItems, WhereMask, where_mask
from repro.sql.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Node,
    Project,
    Scan,
    Sort,
    compile_query,
    describe,
    output_schema,
)
from repro.table import Table


class _StreamCatalog:
    """Schema catalog over the database's registered streams — what
    :func:`compile_query` resolves names against for view definitions."""

    __slots__ = ("view_name", "streams")

    def __init__(self, view_name: str, streams: dict[str, StreamTable]):
        self.view_name = view_name
        self.streams = streams

    def schema_of(self, table_name: str):
        if table_name not in self.streams:
            raise IvmError(
                f"view {self.view_name!r} references {table_name!r}, which "
                f"is not a registered stream; available: "
                f"{sorted(self.streams)}"
            )
        return self.streams[table_name].schema


def compile_view(name: str, query: Query,
                 streams: dict[str, StreamTable]) -> MaterializedView:
    """Build and seed a materialized view for ``query`` over ``streams``."""
    catalog = _StreamCatalog(name, streams)
    try:
        plan = compile_query(query, catalog)
    except ParseError as exc:
        # Plan-time SELECT-list validation mirrors the batch oracle;
        # surface it under the view-compilation error type.
        raise IvmError(f"view {name!r}: {exc}") from exc

    # Peel read-time options: LIMIT caps the top, and the Sort node (above
    # an Aggregate, or below the Project for plain queries) becomes the
    # view's ORDER BY — applied on read, over the output columns.
    limit: int | None = None
    order_by: tuple[str, bool] | None = None
    if isinstance(plan, Limit):
        limit, plan = plan.n, plan.child
    if isinstance(plan, Sort):
        order_by, plan = (plan.column, plan.descending), plan.child
    elif isinstance(plan, Project) and isinstance(plan.child, Sort):
        order_by = (plan.child.column, plan.child.descending)
        plan = Project(plan.child.child, plan.items)

    builder = _compile_node(name, plan, streams, catalog)
    view = builder.materialize(name, order_by=order_by, limit=limit)
    if order_by is not None and order_by[0] not in view.schema:
        view.detach()
        raise IvmError(
            f"view {name!r}: ORDER BY column {order_by[0]!r} is not "
            f"in the view output {view.schema.names}"
        )
    return view


def _compile_node(name: str, node: Node, streams: dict[str, StreamTable],
                  catalog: _StreamCatalog) -> ViewBuilder:
    """Walk a logical plan into a ViewBuilder recipe."""
    if isinstance(node, Scan):
        return streams[node.table].view()
    if isinstance(node, Join):
        if not isinstance(node.right, Scan):
            raise IvmError(
                f"view {name!r}: unsupported join input "
                f"{describe(node.right)}"
            )
        builder = _compile_node(name, node.left, streams, catalog)
        return builder.join(streams[node.table],
                            on=[(node.left_col, node.right_col)])
    if isinstance(node, Filter):
        builder = _compile_node(name, node.child, streams, catalog)
        # Vectorizability is structural (no aggregate nodes), so probing
        # the empty input schema decides it once, at creation — and
        # surfaces unknown-column errors before any state exists.
        probe = Table.empty(output_schema(node.child, catalog))
        if where_mask(node.predicate, probe) is None:
            raise IvmError(
                f"view {name!r}: WHERE clause is not vectorizable; "
                f"materialized views require vectorized predicates"
            )
        return builder.filter(WhereMask(node.predicate))
    if isinstance(node, Aggregate):
        builder = _compile_node(name, node.child, streams, catalog)
        return _compile_grouped(name, node, builder, catalog)
    if isinstance(node, Project):
        builder = _compile_node(name, node.child, streams, catalog)
        return _compile_projection(name, node, builder)
    raise IvmError(
        f"view {name!r}: unsupported plan node {describe(node)}"
    )


def _compile_grouped(name: str, node: Aggregate, builder: ViewBuilder,
                     catalog: _StreamCatalog) -> ViewBuilder:
    if not node.group_by:
        raise IvmError(
            f"view {name!r}: aggregates without GROUP BY are not "
            f"supported in materialized views (an empty group cannot "
            f"emit the zero row incrementally)"
        )
    keys = list(node.group_by)
    plan = AggregateItems(list(node.items), keys,
                          output_schema(node.child, catalog))
    if plan.computed:
        raise IvmError(
            f"view {name!r}: aggregates over expressions are not "
            f"supported in materialized views"
        )
    if any(isinstance(source, Literal) for source, _ in plan.outputs):
        raise IvmError(
            f"view {name!r}: unsupported SELECT expression in "
            f"aggregate query"
        )
    builder = builder.group_by(keys, plan.specs)
    return builder.project(
        [source for source, _ in plan.outputs],
        {source: final for source, final in plan.outputs if source != final})


def _compile_projection(name: str, node: Project,
                        builder: ViewBuilder) -> ViewBuilder:
    names: list[str] = []
    rename: dict[str, str] = {}
    for item in node.items:
        expr = item.expr
        if not isinstance(expr, ColumnRef):
            raise IvmError(
                f"view {name!r}: only plain column projections are "
                f"supported in materialized views"
            )
        names.append(expr.name)
        final = item.alias or expr.name
        if final != expr.name:
            rename[expr.name] = final
    return builder.project(names, rename)
