"""Physical planner: bind optimized logical plans to execution backends.

Each logical node becomes a :class:`PhysicalNode` bound to one of three
backends:

* **columnar** — the single-table vectorized kernels
  (:meth:`~repro.table.Table.filter` under a compiled mask,
  :meth:`~repro.table.Table.join` with compile-time renames,
  :meth:`~repro.table.Table.group_by` for simple aggregates) with the
  row-at-a-time evaluators as fallback for opaque expressions.  A filter
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
from repro.sql.ast import BinaryOp, ColumnRef, Expr, FuncCall, Literal
from repro.sql.expr import (
    WhereMask,
    aggregate_rows,
    default_name,
    eval_row,
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
from repro.table import Column, Table
from repro.table.schema import Schema

__all__ = ["PhysicalNode", "PhysicalPlan", "bind"]


class PhysicalNode:
    """One bound operator: a runner plus rendering metadata."""

    __slots__ = ("op", "detail", "backend", "children", "runner")

    def __init__(self, op: str, detail: str, backend: str,
                 children: list["PhysicalNode"],
                 runner: Callable[[Any], Any]):
        self.op = op
        self.detail = detail
        self.backend = backend
        self.children = children
        self.runner = runner

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

    return PhysicalNode("scan", describe(node), backend, [], run)


def _bind_view_scan(node: ViewScan, db) -> PhysicalNode:
    def run(record):
        table = db.view(node.name).table()
        record("scan", None, table.num_rows, table.num_rows,
               table=f"view:{node.name}")
        return table

    return PhysicalNode("scan", describe(node), "view", [], run)


# -- filter -------------------------------------------------------------------


def _bind_filter(node: Filter, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)
    schema = output_schema(node.child, db)
    vectorized = where_mask(node.predicate, Table.empty(schema)) is not None
    probe = (_index_probe(node.predicate, schema)
             if vectorized and isinstance(node.child, Scan)
             and not db.is_partitioned(node.child.table) else None)
    if probe is not None:
        backend = "columnar[index]"
    elif db.plan_is_partitioned(node.child) and vectorized:
        backend = "shard"
    else:
        backend = f"columnar[{'vectorized' if vectorized else 'rows'}]"

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
            elif not isinstance(source, Table) and vectorized:
                from repro.shard import kernels as shard_kernels

                out: Any = shard_kernels.filter(
                    source, WhereMask(node.predicate), pmap)
            else:
                table = _materialize(source)
                if vectorized:
                    out = table.filter(where_mask(node.predicate, table))
                else:
                    out = table.select(
                        lambda row: bool(eval_row(node.predicate, row))
                    )
            selectivity = out.num_rows / rows_in if rows_in else None
            s.set(rows_out=out.num_rows, vectorized=vectorized, **extra)
        record("where", s, rows_in, out.num_rows,
               selectivity=selectivity, vectorized=vectorized, **extra)
        return out

    return PhysicalNode("where", describe(node), backend, [child], run)


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

    return PhysicalNode("join", describe(node), backend, [left, right], run)


# -- aggregate ----------------------------------------------------------------


def _bind_aggregate(node: Aggregate, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)
    schema = output_schema(node.child, db)
    simple = _aggregate_plan(node, schema)
    sharded = (simple is not None and simple.shardable
               and db.plan_partition_keys(node.child) is not None
               and set(db.plan_partition_keys(node.child))
               <= set(node.group_by))
    if sharded:
        backend = "shard[partition-aligned]"
    else:
        backend = ("columnar[group_by]" if simple is not None
                   else "columnar[rows]")
    by = ",".join(node.group_by) or "<all>"

    def run(record):
        source = child.run(record)
        rows_in = source.num_rows
        with tracing.span("sql.aggregate") as s:
            if (sharded and not isinstance(source, Table)
                    and source.num_rows > 0):
                from repro.shard import kernels as shard_kernels

                grouped = shard_kernels.group_by(
                    source, list(node.group_by), simple.specs, pmap)
                out = simple.finish(grouped)
                vectorized = True
            else:
                table = _materialize(source)
                out, vectorized = _run_aggregate(node, simple, table)
            s.set(rows_out=out.num_rows)
        record("aggregate", s, rows_in, out.num_rows, by=by,
               vectorized=vectorized)
        return out

    return PhysicalNode("aggregate", describe(node), backend, [child], run)


class _AggregatePlan:
    """A vectorizable aggregate: group_by specs plus output assembly."""

    __slots__ = ("specs", "sources", "group_by", "star_slots",
                 "computed", "shardable", "sources_and_finals")

    def __init__(self, group_by):
        self.group_by = list(group_by)
        self.specs: list[tuple[str, str, str]] = []
        self.sources: list[str] = []     # grouped-table column per item
        self.computed: list[tuple[str, Expr]] = []  # helper columns to add
        self.star_slots: list[str] = []
        self.shardable = True
        self.sources_and_finals: list[tuple[str, str]] = []

    def finish(self, grouped: Table) -> Table:
        """Reassemble the grouped output in SELECT order with final names."""
        fields = []
        columns = []
        for src, final in self.sources_and_finals:
            dtype = grouped.schema.dtype_of(src)
            fields.append((final, dtype))
            columns.append(Column(dtype, grouped.column_array(src),
                                  grouped.null_mask(src)))
        return Table.from_columns(Schema(fields), columns)


def _aggregate_plan(node: Aggregate, schema: Schema) -> _AggregatePlan | None:
    """Compile SELECT items to ``Table.group_by`` specs, or None when the
    row-at-a-time oracle must run (literal items, opaque expressions,
    sum/avg over non-numeric columns)."""
    plan = _AggregatePlan(node.group_by)
    finals = []
    for i, item in enumerate(node.items):
        expr = item.expr
        final = item.alias or default_name(expr)
        finals.append(final)
        if isinstance(expr, ColumnRef):
            if expr.name not in node.group_by:
                return None              # oracle raises the ParseError
            plan.sources.append(expr.name)
            continue
        if not isinstance(expr, FuncCall):
            return None                  # literals etc.: keep oracle semantics
        slot = f"__a{i}"
        if expr.argument == "*":
            if expr.name != "count":
                return None
            star = "__star"
            plan.star_slots.append(star)
            plan.specs.append(("count", star, slot))
            plan.sources.append(slot)
            plan.shardable = False       # needs the injected ones column
            continue
        arg = expr.argument
        if isinstance(arg, ColumnRef) and arg.name in schema:
            arg_name, arg_dtype = arg.name, schema.dtype_of(arg.name)
        else:
            arg_name = f"__arg{i}"
            plan.computed.append((arg_name, arg))
            arg_dtype = None             # checked when the column is built
            plan.shardable = False
        if expr.name in ("sum", "avg") and arg_dtype not in (None, "int",
                                                             "float"):
            return None
        plan.specs.append((expr.name, arg_name, slot))
        plan.sources.append(slot)
    plan.sources_and_finals = list(zip(plan.sources, finals))
    return plan


def _run_aggregate(node: Aggregate, simple: _AggregatePlan | None,
                   table: Table) -> tuple[Table, bool]:
    items = list(node.items)
    group_by = list(node.group_by)
    if simple is None or (table.num_rows == 0 and not group_by):
        # Global aggregate over zero rows still emits one row (COUNT = 0):
        # only the row oracle produces it.
        return aggregate_rows(items, group_by, table), False
    work = table
    extra_fields = []
    extra_cols = []
    n = table.num_rows
    if simple.star_slots:
        ones = Column("int", np.ones(n, dtype=np.int64),
                      np.zeros(n, dtype=bool))
        for star in dict.fromkeys(simple.star_slots):
            extra_fields.append((star, "int"))
            extra_cols.append(ones)
    for arg_name, expr in simple.computed:
        col = project_column(expr, work)
        if col is None:
            return aggregate_rows(items, group_by, table), False
        fn = next(f for f, c, _ in simple.specs if c == arg_name)
        if fn in ("sum", "avg") and col.dtype not in ("int", "float"):
            return aggregate_rows(items, group_by, table), False
        extra_fields.append((arg_name, col.dtype))
        extra_cols.append(col)
    if extra_cols:
        fields = [(f.name, f.dtype) for f in work.schema] + extra_fields
        work = Table.from_columns(
            Schema(fields), list(work.columns()) + extra_cols)
    grouped = work.group_by(group_by, simple.specs)
    return simple.finish(grouped), True


# -- sort / project / limit ---------------------------------------------------


def _bind_sort(node: Sort, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)

    def run(record):
        table = _materialize(child.run(record))
        with tracing.span("sql.sort", by=node.column) as s:
            out = table.order_by(node.column, descending=node.descending)
        record("sort", s, table.num_rows, out.num_rows, by=node.column)
        return out

    return PhysicalNode("sort", describe(node), "columnar", [child], run)


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

    return PhysicalNode("project", describe(node), backend, [child], run)


def _bind_limit(node: Limit, db, pmap) -> PhysicalNode:
    child = _bind(node.child, db, pmap)

    def run(record):
        table = _materialize(child.run(record))
        rows_in = table.num_rows
        with tracing.span("sql.limit", limit=node.n) as s:
            out = table.limit(node.n)
        record("limit", s, rows_in, out.num_rows, limit=node.n)
        return out

    return PhysicalNode("limit", describe(node), "columnar", [child], run)
