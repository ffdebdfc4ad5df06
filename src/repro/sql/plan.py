"""Logical plan IR for the SQL engine.

:func:`compile_query` lowers a parsed :class:`~repro.sql.ast.Query` into a
tree of relational nodes — ``Scan → Join* → Filter? → (Aggregate | Sort? →
Project?) → Limit?`` — that the optimizer (:mod:`repro.sql.optimizer`)
rewrites and the physical planner (:mod:`repro.sql.physical`) binds to an
execution backend.  The incremental view compiler
(:mod:`repro.sql.views`) lowers through the same function, so ad-hoc
queries and materialized views share one front end (and one plan
fingerprint vocabulary, which is what makes view substitution possible).

Join output naming is resolved *at compile time*: each :class:`Join` node
carries the ``(source, output)`` rename pairs for the right side's kept
columns, computed against the full catalog schemas.  Optimizer rules that
drop columns later can therefore never change which names collide — the
suffixing decision is frozen before any rewrite runs, exactly matching
what the naive executor's ``Table.join`` would have produced.

Nodes are immutable; rewrites build new trees and share unchanged
subtrees.  :func:`plan_key` renders a canonical structural fingerprint
used to match a query prefix against registered materialized views.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import SchemaError
from repro.sql.ast import ColumnRef, Expr, FuncCall, Query, SelectItem
from repro.sql.expr import (
    AggregateItems,
    default_name,
    expr_columns,
    render_expr,
)
from repro.table.schema import Schema

__all__ = [
    "Aggregate",
    "Filter",
    "Join",
    "Limit",
    "Node",
    "Project",
    "Scan",
    "Sort",
    "ViewScan",
    "compile_query",
    "output_names",
    "output_schema",
    "plan_key",
    "render_plan",
]


@dataclass(frozen=True)
class Scan:
    """Read a base table/stream.  ``columns=None`` means all columns;
    projection pruning narrows it to the referenced subset."""

    table: str
    columns: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ViewScan:
    """Read an existing materialized view whose plan fingerprint matched
    this subtree (installed by the optimizer's view-substitution rule)."""

    name: str


@dataclass(frozen=True)
class Filter:
    child: "Node"
    predicate: Expr


@dataclass(frozen=True)
class Join:
    """Inner equi-join.  ``renames`` maps each kept right-side column to
    its output name (suffix collisions resolved at compile time); the
    right join key is absent when both key names coincide — ``Table.join``
    drops it."""

    left: "Node"
    right: "Node"
    table: str
    left_col: str
    right_col: str
    renames: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Aggregate:
    child: "Node"
    group_by: tuple[str, ...]
    items: tuple[SelectItem, ...] = field(hash=False)


@dataclass(frozen=True)
class Project:
    child: "Node"
    items: tuple[SelectItem, ...] = field(hash=False)


@dataclass(frozen=True)
class Sort:
    child: "Node"
    column: str
    descending: bool = False


@dataclass(frozen=True)
class Limit:
    child: "Node"
    n: int = 0


Node = Any  # union of the dataclasses above


def compile_query(query: Query, catalog) -> Node:
    """Lower a parsed query to a logical plan.

    ``catalog`` needs one method: ``schema_of(name) -> Schema`` (the
    :class:`~repro.sql.engine.Database` provides it for tables, streams,
    and views alike).
    """
    node: Node = Scan(query.table)
    names = list(catalog.schema_of(query.table).names)
    for join in query.joins:
        right_names = catalog.schema_of(join.table).names
        if join.right_col not in right_names:
            raise SchemaError(f"no column {join.right_col!r} in row")
        taken = set(names)
        renames = []
        for col in right_names:
            if col == join.right_col and join.left_col == join.right_col:
                continue                 # Table.join drops the duplicate key
            out = col + "_r" if col in taken else col
            renames.append((col, out))
        node = Join(node, Scan(join.table), join.table,
                    join.left_col, join.right_col, tuple(renames))
        names += [out for _, out in renames]
    if query.where is not None:
        node = Filter(node, query.where)
    if query.group_by or any(isinstance(i.expr, FuncCall) for i in query.select):
        # The row oracle's SELECT-list checks, at plan time, so they
        # surface even on empty inputs.
        AggregateItems(list(query.select), list(query.group_by), Schema([]))
        node = Aggregate(node, tuple(query.group_by), tuple(query.select))
        if query.order_by is not None:
            node = Sort(node, *query.order_by)
    else:
        if query.order_by is not None:
            node = Sort(node, *query.order_by)
        if not query.select_star:
            node = Project(node, tuple(query.select))
    if query.limit is not None:
        node = Limit(node, query.limit)
    return node


# -- schema derivation ---------------------------------------------------------


def output_names(node: Node, catalog) -> list[str]:
    """Column names a node produces, in order."""
    if isinstance(node, Scan):
        if node.columns is not None:
            return list(node.columns)
        return list(catalog.schema_of(node.table).names)
    if isinstance(node, ViewScan):
        return list(catalog.schema_of(node.name).names)
    if isinstance(node, (Filter, Sort, Limit)):
        return output_names(node.child, catalog)
    if isinstance(node, (Project, Aggregate)):
        return [item.alias or default_name(item.expr) for item in node.items]
    if isinstance(node, Join):
        child = set(output_names(node.right, catalog))
        return (output_names(node.left, catalog)
                + [out for src, out in node.renames if src in child])
    raise TypeError(f"unknown plan node {node!r}")


def output_schema(node: Node, catalog) -> Schema:
    """Typed output schema for the node subset whose dtypes are derivable
    without evaluating expressions (scans, joins, filters, sort/limit, and
    plain-column projections) — what the view compiler needs to probe
    vectorizability against an empty table."""
    if isinstance(node, Scan):
        schema = catalog.schema_of(node.table)
        if node.columns is None:
            return schema
        return schema.project(list(node.columns))
    if isinstance(node, ViewScan):
        return catalog.schema_of(node.name)
    if isinstance(node, (Filter, Sort, Limit)):
        return output_schema(node.child, catalog)
    if isinstance(node, Join):
        left = output_schema(node.left, catalog)
        right = output_schema(node.right, catalog)
        renames = dict(node.renames)
        fields = [(f.name, f.dtype) for f in left]
        fields += [(renames[f.name], f.dtype) for f in right
                   if f.name in renames]
        return Schema(fields)
    if isinstance(node, Project):
        child = output_schema(node.child, catalog)
        fields = []
        for item in node.items:
            if not isinstance(item.expr, ColumnRef):
                raise SchemaError(
                    "output_schema: computed projection has no static dtype"
                )
            fields.append((item.alias or item.expr.name,
                           child.dtype_of(item.expr.name)))
        return Schema(fields)
    raise SchemaError(f"output_schema: unsupported node {type(node).__name__}")


# -- rendering / fingerprints --------------------------------------------------


def describe(node: Node) -> str:
    """One-line description of a node (shared by plan rendering and the
    per-rule rewrite annotations)."""
    if isinstance(node, Scan):
        cols = f" cols=[{', '.join(node.columns)}]" if node.columns else ""
        return f"scan {node.table}{cols}"
    if isinstance(node, ViewScan):
        return f"scan view {node.name}"
    if isinstance(node, Filter):
        return f"filter {render_expr(node.predicate)}"
    if isinstance(node, Join):
        return f"join {node.table} on {node.left_col} = {node.right_col}"
    if isinstance(node, Aggregate):
        by = ", ".join(node.group_by) if node.group_by else "<all>"
        names = ", ".join(i.alias or default_name(i.expr) for i in node.items)
        return f"aggregate by {by} [{names}]"
    if isinstance(node, Project):
        names = ", ".join(i.alias or default_name(i.expr) for i in node.items)
        return f"project [{names}]"
    if isinstance(node, Sort):
        return f"sort {node.column} {'desc' if node.descending else 'asc'}"
    if isinstance(node, Limit):
        return f"limit {node.n}"
    return repr(node)


def render_plan(node: Node, indent: int = 0) -> str:
    """Indented tree rendering (joins nest both inputs)."""
    pad = "  " * indent
    line = pad + describe(node)
    if isinstance(node, Join):
        return "\n".join([line,
                          render_plan(node.left, indent + 1),
                          render_plan(node.right, indent + 1)])
    child = getattr(node, "child", None)
    if child is not None:
        return "\n".join([line, render_plan(child, indent + 1)])
    return line


def plan_key(node: Node) -> str:
    """Canonical structural fingerprint for view matching.

    Computed over the plan *after* constant folding and predicate pushdown
    but before pruning/reordering (see :func:`repro.sql.optimizer.optimize`),
    so a view's stored key and an ad-hoc query's subtree keys agree
    whenever they describe the same computation.
    """
    if isinstance(node, Scan):
        return f"scan({node.table})"     # pruning runs after substitution
    if isinstance(node, ViewScan):
        return f"view({node.name})"
    if isinstance(node, Filter):
        return f"filter({plan_key(node.child)},{node.predicate!r})"
    if isinstance(node, Join):
        return (f"join({plan_key(node.left)},{plan_key(node.right)},"
                f"{node.left_col}={node.right_col})")
    if isinstance(node, Aggregate):
        items = ";".join(f"{i.expr!r} as {i.alias or default_name(i.expr)}"
                         for i in node.items)
        return f"agg({plan_key(node.child)},by={','.join(node.group_by)},{items})"
    if isinstance(node, Project):
        items = ";".join(f"{i.expr!r} as {i.alias or default_name(i.expr)}"
                         for i in node.items)
        return f"project({plan_key(node.child)},{items})"
    if isinstance(node, Sort):
        return f"sort({plan_key(node.child)},{node.column},{node.descending})"
    if isinstance(node, Limit):
        return f"limit({plan_key(node.child)},{node.n})"
    raise TypeError(f"unknown plan node {node!r}")


def replace_child(node: Node, child: Node) -> Node:
    """A copy of a single-input node with its input replaced."""
    return replace(node, child=child)


def referenced_columns(node: Node) -> set[str]:
    """Input columns a single node itself references (not its subtree)."""
    if isinstance(node, Filter):
        return expr_columns(node.predicate)
    if isinstance(node, Sort):
        return {node.column}
    if isinstance(node, (Project, Aggregate)):
        out: set[str] = set(getattr(node, "group_by", ()))
        for item in node.items:
            out |= expr_columns(item.expr)
        return out
    if isinstance(node, Join):
        return {node.left_col, node.right_col}
    return set()
