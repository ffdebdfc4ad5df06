"""Physical planner: bind optimized logical plans to execution backends.

Each logical node becomes a :class:`PhysicalNode` bound to one of three
backends:

* **columnar** — the single-table vectorized kernels
  (:meth:`~repro.table.Table.filter` under a compiled mask,
  :meth:`~repro.table.Table.join` with compile-time renames,
  :meth:`~repro.table.Table.group_by` over vectorized argument
  columns).  The planner rejects what they cannot run, so there is no
  row-at-a-time fallback.  A filter
  straight over a plain table scan with a numeric ``col = literal``
  conjunct binds ``columnar[index]``: it probes the column's key index
  (:meth:`~repro.table.Table.lookup`) and masks only the matched rows.
* **shard** — :mod:`repro.shard` morsel kernels when the scanned source is
  a :class:`~repro.shard.PartitionedTable`: per-shard filter (keeps the
  partitioning), broadcast join, and partition-aligned group-by.  Only
  strategies that provably preserve the single-table kernels' byte-exact
  output are used; anything else materializes first.
* **view** — a :class:`~repro.sql.plan.ViewScan` installed by the
  optimizer's view-substitution rule reads an existing
  :class:`~repro.ivm.MaterializedView` instead of recomputing its prefix.

Execution emits the same ``sql.<stage>`` spans and EXPLAIN ANALYZE plan
records as the naive executor, so observability output is identical
modulo the extra per-table scan entries.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Callable

import numpy as np

from repro.obs import tracing
from repro.sql.ast import BinaryOp, ColumnRef, Expr, Literal
from repro.sql.expr import (
    AggregateItems,
    WhereMask,
    default_name,
    project_column,
    project_items,
    where_mask,
)
from repro.sql.optimizer import split_conjuncts
from repro.sql.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Node,
    Project,
    Scan,
    Sort,
    ViewScan,
    describe,
    output_schema,
)
from repro.table import Table
from repro.table.schema import Schema

__all__ = ["PhysicalNode", "PhysicalPlan", "bind"]


class PhysicalNode:
    """One bound operator: a runner plus the logical node it runs, whose
    one-line ``detail`` is rendered only when asked for."""

    __slots__ = ("op", "node", "backend", "children", "runner")

    def __init__(self, op: str, node: Node, backend: str,
                 children: list["PhysicalNode"],
                 runner: Callable[[Any], Any]):
        self.op = op
        self.node = node
        self.backend = backend
        self.children = children
        self.runner = runner

    @property
    def detail(self) -> str:
        return describe(self.node)

    def run(self, record) -> Any:
        return self.runner(record)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.detail} [{self.backend}]"]
        lines += [child.render(indent + 1) for child in self.children]
        return "\n".join(lines)


class PhysicalPlan:
    def __init__(self, root: PhysicalNode):
        self.root = root

    def execute(self, plan_record: list[dict[str, Any]] | None = None) -> Table:
        """Run the bound plan; ``plan_record`` collects EXPLAIN ANALYZE
        stage entries in execution order."""

        def record(stage: str, span, rows_in: int, rows_out: int,
                   **extra: Any) -> None:
            if plan_record is None:
                return
            entry: dict[str, Any] = {
                "stage": stage, "rows_in": rows_in, "rows_out": rows_out,
            }
            if span is not None:
                entry["seconds"] = span.duration
            entry.update(extra)
            plan_record.append(entry)

        return _materialize(self.root.run(record))

    def render(self) -> str:
        return self.root.render()


def _materialize(result: Any) -> Table:
    if isinstance(result, Table):
        return result
    return result.to_table()            # PartitionedTable


def bind(node: Node, db, pmap=None) -> PhysicalPlan:
    """Bind an optimized logical plan against ``db``.

    ``db`` is the :class:`~repro.sql.engine.Database` (also the catalog);
    ``pmap`` an optional :class:`~repro.par.BaseMap` forwarded to the
    shard kernels.
    """
    return PhysicalPlan(_bind(node, db, pmap))


def _bind(node: Node, db, pmap) -> PhysicalNode:
    if isinstance(node, Scan):
        return _bind_scan(node, db)
    if isinstance(node, ViewScan):
        return _bind_view_scan(node, db)
    if isinstance(node, Filter):
        return _bind_filter(node, db, pmap)
    if isinstance(node, Join):
        return _bind_join(node, db, pmap)
    if isinstance(node, Aggregate):
        return _bind_aggregate(node, db, pmap)
    if isinstance(node, Sort):
        return _bind_sort(node, db, pmap)
    if isinstance(node, Project):
        return _bind_project(node, db, pmap)
    if isinstance(node, Limit):
        return _bind_limit(node, db, pmap)
    raise TypeError(f"unknown plan node {node!r}")


# -- scans --------------------------------------------------------------------


def _bind_scan(node: Scan, db) -> PhysicalNode:
    sharded = db.is_partitioned(node.table)
    backend = "shard" if sharded else "columnar"

    def run(record):
        source = db.scan_source(node.table)
        if node.columns is not None:
            cols = list(node.columns)
            if isinstance(source, Table):
                source = source.project(cols)
            else:
                source = source.map_shards(lambda t: t.project(cols))
        rows = source.num_rows
        record("scan", None, rows, rows, table=node.table)
        return source

    return PhysicalNode("scan", node, backend, [], run)


def _bind_view_scan(node: ViewScan, db) -> PhysicalNode:
    def run(record):
        table = db.view(node.name).table()
        record("scan", None, table.num_rows, table.num_rows,
               table=f"view:{node.name}")
        return table

    return PhysicalNode("scan", node, "view", [], run)


# -- filter -------------------------------------------------------------------


def _bind_filter(node: Filter, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)
    probe = (_index_probe(node.predicate, output_schema(node.child, db))
             if isinstance(node.child, Scan)
             and not db.is_partitioned(node.child.table) else None)
    if probe is not None:
        backend = "columnar[index]"
    elif db.plan_is_partitioned(node.child):
        backend = "shard"
    else:
        backend = "columnar[vectorized]"

    def run(record):
        source = child.run(record)
        rows_in = source.num_rows
        extra: dict[str, Any] = {}
        with tracing.span("sql.where") as s:
            if probe is not None:
                key, value, rest = probe
                out = source.lookup(key, value)
                rows_in = out.num_rows          # rows the probe examined
                if rest is not None:
                    out = out.filter(where_mask(rest, out))
                extra["index"] = key
            elif not isinstance(source, Table):
                from repro.shard import kernels as shard_kernels

                out: Any = shard_kernels.filter(
                    source, WhereMask(node.predicate), pmap)
            else:
                out = source.filter(where_mask(node.predicate, source))
            selectivity = out.num_rows / rows_in if rows_in else None
            s.set(rows_out=out.num_rows, **extra)
        record("where", s, rows_in, out.num_rows,
               selectivity=selectivity, **extra)
        return out

    return PhysicalNode("where", node, backend, [child], run)


def _index_probe(predicate: Expr, schema: Schema
                 ) -> tuple[str, Any, Expr | None] | None:
    """``(column, value, rest)`` for the first top-level ``col = literal``
    conjunct a key index answers exactly like the mask would — an int or
    float column against an int64 / float literal (not bool) — with
    ``rest`` the other conjuncts ANDed (None when there are none)."""
    conjuncts = split_conjuncts(predicate)
    for i, conjunct in enumerate(conjuncts):
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            continue
        for ref, lit in ((conjunct.left, conjunct.right),
                         (conjunct.right, conjunct.left)):
            if (isinstance(ref, ColumnRef) and isinstance(lit, Literal)
                    and type(lit.value) in (int, float)
                    and np.asarray(lit.value).dtype.kind in "if"
                    and ref.name in schema
                    and schema.dtype_of(ref.name) in ("int", "float")):
                rest = conjuncts[:i] + conjuncts[i + 1:]
                return ref.name, lit.value, (
                    reduce(lambda a, b: BinaryOp("and", a, b), rest)
                    if rest else None)
    return None


# -- join ---------------------------------------------------------------------


def _bind_join(node: Join, db, pmap) -> PhysicalNode:
    left = _bind(node.left, db, pmap)
    right = _bind(node.right, db, pmap)
    left_sharded = db.plan_is_partitioned(node.left)
    backend = "shard[broadcast]|columnar" if left_sharded else "columnar"
    renames = dict(node.renames)
    right_key = renames.get(node.right_col, node.right_col)

    def run(record):
        from repro.shard.kernels import BROADCAST_LIMIT

        left_out = left.run(record)
        right_table = _materialize(right.run(record))
        mapping = {src: out for src, out in node.renames
                   if src != out and src in right_table.schema}
        if mapping:
            right_table = right_table.rename(mapping)
        rows_in = left_out.num_rows
        on = [(node.left_col, right_key)]
        with tracing.span("sql.join", table=node.table) as s:
            if (not isinstance(left_out, Table)
                    and right_table.num_rows <= BROADCAST_LIMIT):
                from repro.shard import kernels as shard_kernels

                out = shard_kernels.join(left_out, right_table, on=on,
                                         pmap=pmap)
            else:
                out = _materialize(left_out).join(right_table, on=on)
            s.set(rows_out=out.num_rows)
        record("join", s, rows_in, out.num_rows, table=node.table,
               on=f"{node.left_col}={node.right_col}")
        return out

    return PhysicalNode("join", node, backend, [left, right], run)


# -- aggregate ----------------------------------------------------------------


def _bind_aggregate(node: Aggregate, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)
    group_by = list(node.group_by)
    plan = AggregateItems(list(node.items), group_by,
                          output_schema(node.child, db))
    keys = db.plan_partition_keys(node.child)
    sharded = (not plan.computed and keys is not None
               and set(keys) <= set(group_by))
    backend = "shard[partition-aligned]" if sharded else "columnar[group_by]"
    by = ",".join(group_by) or "<all>"

    def run(record):
        source = child.run(record)
        rows_in = source.num_rows
        with tracing.span("sql.aggregate") as s:
            if (sharded and not isinstance(source, Table)
                    and source.num_rows > 0):
                from repro.shard import kernels as shard_kernels

                grouped = shard_kernels.group_by(source, group_by,
                                                 plan.specs, pmap)
            else:
                grouped = plan.arguments(
                    _materialize(source), project_column
                ).group_by(group_by, plan.specs)
            out = plan.finish(grouped)
            s.set(rows_out=out.num_rows)
        record("aggregate", s, rows_in, out.num_rows, by=by)
        return out

    return PhysicalNode("aggregate", node, backend, [child], run)


# -- sort / project / limit ---------------------------------------------------


def _bind_sort(node: Sort, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)

    def run(record):
        table = _materialize(child.run(record))
        with tracing.span("sql.sort", by=node.column) as s:
            out = table.order_by(node.column, descending=node.descending)
        record("sort", s, table.num_rows, out.num_rows, by=node.column)
        return out

    return PhysicalNode("sort", node, "columnar", [child], run)


def _bind_project(node: Project, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)
    refs = [item.expr.name if isinstance(item.expr, ColumnRef) else None
            for item in node.items]
    finals = [item.alias or default_name(item.expr) for item in node.items]
    plain = (all(r is not None for r in refs)
             and len(set(refs)) == len(refs)
             and len(set(finals)) == len(finals))
    backend = f"columnar[{'zero-copy' if plain else 'vectorized'}]"

    def run(record):
        table = _materialize(child.run(record))
        rows_in = table.num_rows
        with tracing.span("sql.project") as s:
            if plain and all(r in table.schema for r in refs):
                out = table.project(refs)
                mapping = {r: f for r, f in zip(refs, finals) if r != f}
                if mapping:
                    out = out.rename(mapping)
            else:
                out = project_items(list(node.items), table)
            s.set(columns=out.num_columns)
        record("project", s, rows_in, out.num_rows, columns=out.num_columns)
        return out

    return PhysicalNode("project", node, backend, [child], run)


def _bind_limit(node: Limit, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)

    def run(record):
        table = _materialize(child.run(record))
        rows_in = table.num_rows
        with tracing.span("sql.limit", limit=node.n) as s:
            out = table.limit(node.n)
        record("limit", s, rows_in, out.num_rows, limit=node.n)
        return out

    return PhysicalNode("limit", node, "columnar", [child], run)
