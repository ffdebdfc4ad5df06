"""Compile parsed SELECT statements into incrementally-maintained views.

:meth:`repro.sql.Database.create_view` lands here: a :class:`Query` over
registered :class:`~repro.ivm.StreamTable`s is lowered through the same
logical-plan front end the batch executor uses
(:func:`repro.sql.plan.compile_query`), optimized without join
reordering (filters pushed below joins, scans pruned), and walked into a
:class:`~repro.ivm.ViewBuilder` recipe — scans, filters and joins whose
inputs are narrowed to the columns used above them, then (group-by →
project | project) — materialized with ORDER BY / LIMIT as read-time
options.  The batch executor over stream snapshots is the
semantics; ``db.query(sql)`` and ``db.create_view(...).table()`` are
property-tested equal row-for-row.  Because both sides share one plan
vocabulary, :meth:`~repro.sql.Database.create_view` also registers the
view's plan fingerprint so the optimizer substitutes the maintained view
into matching ad-hoc queries.

Supported subset (anything else raises :class:`~repro.errors.IvmError`
at ``create_view`` time, never at push time):

* FROM / INNER JOIN over registered streams only
* any WHERE clause the planner admits (no aggregates)
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
from repro.sql.expr import AggregateItems, WhereMask, expr_columns
from repro.sql.optimizer import optimize
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
    output_names,
    output_schema,
)


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
    # Filters below joins and pruned scans keep the join traces small.
    plan, _notes, _stats = optimize(plan, catalog, reorder=False)

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

    builder = _compile_node(name, plan, None, streams, catalog)
    view = builder.materialize(name, order_by=order_by, limit=limit)
    if order_by is not None and order_by[0] not in view.schema:
        view.detach()
        raise IvmError(
            f"view {name!r}: ORDER BY column {order_by[0]!r} is not "
            f"in the view output {view.schema.names}"
        )
    return view


def _compile_node(name: str, node: Node, required: set[str] | None,
                  streams: dict[str, StreamTable],
                  catalog: _StreamCatalog) -> ViewBuilder:
    """Walk an optimized logical plan into a ViewBuilder recipe.

    ``required`` is the set of ``node``'s output columns the plan above
    reads (None = all): each join input is narrowed to it, so a join
    trace keeps only the columns something uses.
    """
    if isinstance(node, Scan):
        builder = streams[node.table].view()
        if node.columns is None:
            return builder
        return builder.project(list(node.columns))
    if isinstance(node, Join):
        # Right-side columns take the plan's output names before the
        # join, as the batch executor does, so names stay the plan's even
        # when pruning dropped the left column they collided with.
        renames = dict(node.renames)
        left_req = right_req = None
        if required is not None:
            left_names = set(output_names(node.left, catalog))
            inverse = {out: src for src, out in node.renames}
            left_req = {r for r in required if r in left_names}
            right_req = {inverse[r] for r in required if r in inverse}
        left = _join_input(name, node.left, left_req, node.left_col, {},
                           streams, catalog)
        right = _join_input(name, node.right, right_req, node.right_col,
                            renames, streams, catalog)
        return left.join(right, on=[
            (node.left_col, renames.get(node.right_col, node.right_col))])
    if isinstance(node, Filter):
        # compile_query already rejected aggregates and unknown columns
        # in the predicate, before any state exists.
        child_req = (None if required is None
                     else required | expr_columns(node.predicate))
        builder = _compile_node(name, node.child, child_req, streams,
                                catalog)
        return builder.filter(WhereMask(node.predicate))
    if isinstance(node, Aggregate):
        child_req = set(node.group_by)
        for item in node.items:
            child_req |= expr_columns(item.expr)
        builder = _compile_node(name, node.child, child_req, streams,
                                catalog)
        return _compile_grouped(name, node, builder, catalog)
    if isinstance(node, Project):
        child_req = set()
        for item in node.items:
            child_req |= expr_columns(item.expr)
        builder = _compile_node(name, node.child, child_req, streams,
                                catalog)
        return _compile_projection(name, node, builder)
    raise IvmError(
        f"view {name!r}: unsupported plan node {describe(node)}"
    )


def _join_input(name: str, node: Node, required: set[str] | None,
                key: str, renames: dict[str, str],
                streams: dict[str, StreamTable],
                catalog: _StreamCatalog) -> ViewBuilder:
    """One join input, narrowed to its key and the ``required`` columns,
    with ``renames`` applied."""
    if required is not None:
        required = required | {key}
    if isinstance(node, Scan):
        node = Scan(node.table)     # one projection prunes and renames
    builder = _compile_node(name, node, required, streams, catalog)
    names = output_names(node, catalog)
    keep = [n for n in names if required is None or n in required]
    rename = {src: out for src, out in renames.items()
              if src != out and src in keep}
    if keep == names and not rename:
        return builder
    return builder.project(keep, rename)


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
