"""Execution of parsed SQL queries against :class:`~repro.table.Table`s.

Semantics follow SQL where it matters for the library: three-valued
logic (a comparison with NULL is NULL, and WHERE keeps only TRUE rows),
aggregates skip NULLs, COUNT(*) counts rows.

Queries run through three layers: :func:`repro.sql.plan.compile_query`
lowers the parsed AST to a logical plan, :func:`repro.sql.optimizer.optimize`
rewrites it (constant folding, predicate pushdown, materialized-view
substitution, projection pruning, stats-driven join reordering), and
:func:`repro.sql.physical.bind` binds each node to an execution backend —
single-table columnar kernels, :mod:`repro.shard` morsel kernels for
partitioned sources, or an existing incremental view.  The original
fixed-order AST interpreter survives as :func:`execute_naive`, the
equivalence oracle behind ``optimizer=False``.

:meth:`Database.query` on the optimizer path goes through a template plan
cache (:mod:`repro.sql.plancache`): a statement that differs from an
earlier one only in its literals skips parse, compile and optimize, and
is only bound and executed.  ``explain``, ``create_view`` and
``optimizer=False`` stay uncached.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SchemaError
from repro.obs import metrics, tracing
from repro.sql import plan as plan_ir
from repro.sql.ast import Query
from repro.sql.expr import (
    aggregate_rows,
    default_name,
    has_aggregate,
    project_items,
    where_mask,
)
from repro.sql.optimizer import optimize
from repro.sql.parser import parse_sql, tokenize
from repro.sql.physical import bind
from repro.sql.plancache import PlanCache, Template, template_key
from repro.table import Table
from repro.table.schema import Schema


class Database:
    """A named collection of tables with a ``query`` entry point.

    Three namespaces share one name space: plain tables (:meth:`register`,
    which also accepts :class:`~repro.shard.PartitionedTable`), mutable
    streams (:meth:`register_stream`), and incrementally-maintained views
    (:meth:`create_view`).  :meth:`table` resolves any of them to a
    :class:`~repro.table.Table`, so ``query()`` reads streams (current
    snapshot) and views (always fresh, delta-maintained) exactly like
    static tables.

    ``optimizer=False`` pins every query to the naive fixed-order
    executor (:func:`execute_naive`); per-call
    ``query(sql, optimizer=...)`` overrides the default either way.
    ``pmap`` forwards a :class:`~repro.par.BaseMap` to the shard kernels
    when partitioned tables are queried.

    ``version`` counts catalog changes: :meth:`register`,
    :meth:`register_stream`, :meth:`create_view` and :meth:`drop_view`
    each bump it, so a query over plain tables answers the same for as
    long as the version holds (the serving result-cache key).  A version
    change also empties the template plan cache.
    """

    def __init__(self, tables: dict[str, Any] | None = None, *,
                 optimizer: bool = True, pmap: Any = None):
        self._tables: dict[str, Any] = {}
        self._materialized: dict[str, Table] = {}
        self._streams: dict[str, Any] = {}
        self._views: dict[str, Any] = {}
        self._view_keys: dict[str, str] = {}
        self._optimizer = optimizer
        self.pmap = pmap
        self.version = 0
        self._plans = PlanCache()
        for name, table in (tables or {}).items():
            self.register(name, table)

    def register(self, name: str, table: Any) -> None:
        """Register a :class:`Table` or a partitioned table under ``name``."""
        self._check_free(name, allow="table")
        self._tables[name] = table
        self._materialized.pop(name, None)
        self.version += 1

    def register_stream(self, name: str, source: Any):
        """Register a mutable stream table (see :mod:`repro.ivm`).

        ``source`` is a :class:`~repro.ivm.StreamTable`, or a
        :class:`~repro.table.Table` / schema to wrap in a fresh one.
        Returns the stream, whose ``insert_rows``/``delete_rows`` feed
        every view created over it.
        """
        from repro.ivm import StreamTable
        self._check_free(name)
        stream = (source if isinstance(source, StreamTable)
                  else StreamTable(source, name=name))
        self._streams[name] = stream
        self.version += 1
        return stream

    def stream(self, name: str):
        if name not in self._streams:
            raise SchemaError(
                f"no stream {name!r}; available: {sorted(self._streams)}"
            )
        return self._streams[name]

    def create_view(self, name: str, sql: str):
        """Create an incrementally-maintained view from a SELECT statement.

        The query must range over registered streams and stay inside the
        supported subset (:mod:`repro.sql.views`); the resulting
        :class:`~repro.ivm.MaterializedView` is registered under ``name``
        and updates itself on every stream push — ``query()`` against it
        never recomputes from scratch.  The view's logical-plan
        fingerprint is also recorded so the optimizer can substitute it
        into matching ad-hoc queries.
        """
        from repro.sql.views import compile_view
        self._check_free(name)
        query = parse_sql(sql)
        with tracing.span("sql.create_view", view=name, sql=sql.strip()):
            view = compile_view(name, query, self._streams)
        self._views[name] = view
        self.version += 1
        try:
            node, _ = optimize(plan_ir.compile_query(query, self), self,
                               prune=False, reorder=False)
            self._view_keys[plan_ir.plan_key(node)] = name
        except Exception:
            # Fingerprinting is best-effort: a view outside the plannable
            # subset simply never substitutes.
            pass
        return view

    def view(self, name: str):
        if name not in self._views:
            raise SchemaError(
                f"no view {name!r}; available: {sorted(self._views)}"
            )
        return self._views[name]

    def drop_view(self, name: str) -> None:
        self.view(name).detach()
        del self._views[name]
        self._view_keys = {key: view for key, view in self._view_keys.items()
                           if view != name}
        self.version += 1

    def _check_free(self, name: str, allow: str | None = None) -> None:
        """Names are unique across tables, streams, and views — except
        plain-table re-registration, which has always meant replacement."""
        taken = (
            ("table", self._tables), ("stream", self._streams),
            ("view", self._views),
        )
        for kind, names in taken:
            if name in names and kind != allow:
                raise SchemaError(
                    f"name {name!r} is already a registered {kind}"
                )

    def table(self, name: str) -> Table:
        if name in self._tables:
            source = self._tables[name]
            if isinstance(source, Table):
                return source
            cached = self._materialized.get(name)
            if cached is None:
                cached = self._materialized[name] = source.to_table()
            return cached
        if name in self._streams:
            return self._streams[name].snapshot()
        if name in self._views:
            return self._views[name].table()
        raise SchemaError(
            f"no table {name!r}; available: {self.table_names()}"
        )

    def table_names(self) -> list[str]:
        return sorted({*self._tables, *self._streams, *self._views})

    # -- catalog interface (logical planner / optimizer / physical) ------------

    def schema_of(self, name: str) -> Schema:
        """Schema of a table, stream, or view without materializing it."""
        for namespace in (self._tables, self._streams, self._views):
            if name in namespace:
                return namespace[name].schema
        raise SchemaError(
            f"no table {name!r}; available: {self.table_names()}"
        )

    def stats_of(self, name: str) -> dict[str, dict[str, Any]]:
        """Per-column statistics (memoized on the table)."""
        return self.table(name).stats()

    def is_static(self, name: str) -> bool:
        """Whether ``name`` is a registered table (plain or partitioned),
        which only :meth:`register` can change — unlike a stream or view."""
        return name in self._tables

    def is_partitioned(self, name: str) -> bool:
        source = self._tables.get(name)
        return source is not None and not isinstance(source, Table)

    def scan_source(self, name: str) -> Any:
        """What a Scan node reads: the raw partitioned table when one is
        registered (so shard kernels can run on it), else a plain table."""
        if name in self._tables:
            return self._tables[name]
        if name in self._streams:
            return self._streams[name].snapshot()
        if name in self._views:
            return self._views[name].table()
        raise SchemaError(
            f"no table {name!r}; available: {self.table_names()}"
        )

    def plan_is_partitioned(self, node: plan_ir.Node) -> bool:
        """Whether a plan subtree yields a partitioned table (per-shard
        filters preserve partitioning; everything else is conservative)."""
        if isinstance(node, plan_ir.Scan):
            return self.is_partitioned(node.table)
        if isinstance(node, plan_ir.Filter):
            return self.plan_is_partitioned(node.child)
        return False

    def plan_partition_keys(self, node: plan_ir.Node) -> tuple[str, ...] | None:
        """Partition keys of a subtree's output, or None when unknown —
        the guarantee behind the partition-aligned GROUP BY backend."""
        if isinstance(node, plan_ir.Scan):
            source = self._tables.get(node.table)
            if source is not None and not isinstance(source, Table):
                return tuple(source.partitioner.keys)
            return None
        if isinstance(node, plan_ir.Filter):
            return self.plan_partition_keys(node.child)
        return None

    # -- query / explain -------------------------------------------------------

    def query(self, sql: str, optimizer: bool | None = None) -> Table:
        """Parse and execute a SELECT statement.

        ``optimizer`` overrides the database default: ``False`` forces the
        naive fixed-order executor (the equivalence oracle), ``True`` the
        plan-based path, which reuses a cached template's plan when only
        the literals differ (:mod:`repro.sql.plancache`; the span's
        ``plan_cache`` attribute says ``hit``, ``miss`` or ``bypass``).
        """
        with tracing.span("sql.query", sql=sql.strip()) as s:
            if self._optimizer if optimizer is None else optimizer:
                status, node = self._plan(tokenize(sql))
                out = bind(node, self, self.pmap).execute()
            else:
                status = "bypass"
                out = execute_naive(parse_sql(sql), self)
            metrics.counter(f"sql.plan_cache.{status}").inc()
            s.set(rows_out=out.num_rows, plan_cache=status)
        return out

    def reads_static(self, tokens: list[tuple[str, str]]) -> bool:
        """Whether every table a statement reads is static
        (:meth:`is_static`), given its :func:`tokenize` stream and
        answered from the template plan cache; a new template is parsed,
        planned and cached, so a later :meth:`query` of it is a hit.
        Raises whatever :meth:`query` would raise while planning."""
        template, _values, _node = self._template(tokens)
        return template.static

    def _plan(self, tokens: list[tuple[str, str]]) -> tuple[str, plan_ir.Node]:
        """``(status, optimized plan)`` for a token stream; ``status`` says
        how the template cache served it: ``hit`` (no parse, compile or
        optimize), ``miss`` (planned and cached) or ``bypass`` (a template
        that may not be reused, planned again)."""
        template, values, node = self._template(tokens)
        if node is not None:
            return "miss", node
        if template.plan is not None:
            return "hit", template.instantiate(values)
        return "bypass", self._optimized(parse_sql(tokens))

    def _template(self, tokens: list[tuple[str, str]]
                  ) -> tuple[Template, list[Any], plan_ir.Node | None]:
        """``(template, slot values, plan)`` for a token stream: the cached
        template and no plan, or on a miss the new template and the plan
        made for these very tokens."""
        key, positions, values = template_key(tokens)
        version = self.version
        template = self._plans.get(key, version)
        if template is not None:
            return template, values, None
        query = parse_sql(tokens)
        node = self._optimized(query)
        static = all(self.is_static(name) for name in
                     [query.table, *(join.table for join in query.joins)])
        template = Template.build(query, node, positions, static)
        self._plans.put(key, version, template)
        return template, values, node

    def _optimized(self, query: Query) -> plan_ir.Node:
        node, _notes = optimize(plan_ir.compile_query(query, self), self,
                                view_keys=self._view_keys or None)
        return node

    def explain(self, sql: str, analyze: bool = False,
                optimizer: bool | None = None) -> str:
        """EXPLAIN: logical, optimized, and physical plans for ``sql``,
        with one annotation per applied rewrite rule.

        With ``analyze=True`` the query actually executes and each stage
        reports its measured rows in/out, selectivity and wall-clock time
        (the same numbers the ``sql.*`` / ``table.*`` spans carry), followed
        by the result's per-column statistics
        (:meth:`~repro.table.Table.stats` — null fractions and distinct
        counts, the inputs the cost-based join reorderer needs).

        Under ``optimizer=False`` the historic fixed-stage pipeline is
        described instead (the before/after views in docs/sql.md diff the
        two renderings).
        """
        query = parse_sql(sql)
        use_optimizer = self._optimizer if optimizer is None else optimizer
        lines = [f"sql: {sql.strip()}"]
        physical = None
        # The planner's checks reject a query on either engine.
        logical = plan_ir.compile_query(query, self)
        if use_optimizer:
            optimized, notes = optimize(logical, self,
                                        view_keys=self._view_keys or None)
            physical = bind(optimized, self, self.pmap)
            lines.append("logical plan:")
            lines += ["  " + row
                      for row in plan_ir.render_plan(logical).splitlines()]
            lines.append("rewrites:" if notes else "rewrites: (none)")
            lines += [f"  - {note}" for note in notes]
            lines.append("optimized plan:")
            lines += ["  " + row
                      for row in plan_ir.render_plan(optimized).splitlines()]
            lines.append("physical plan:")
            lines += ["  " + row for row in physical.render().splitlines()]
        else:
            lines.append("plan:")
            lines += [f"  -> {step}" for step in _describe(query, self)]
        if not analyze:
            return "\n".join(lines)
        plan: list[dict[str, Any]] = []
        # The stage times are read off the sql.* spans, so this trace is
        # recorded whatever the sample rate.
        with tracing.get_tracer().sampled_span("sql.explain",
                                               sql=sql.strip()):
            if physical is not None:
                result = physical.execute(plan)
            else:
                result = execute_naive(query, self, plan)
        lines.append("plan (analyzed):")
        for entry in plan:
            parts = [f"{entry['stage']}"]
            for key in ("table", "on", "index", "by",
                        "columns", "limit"):
                if key in entry:
                    parts.append(f"{key}={entry[key]}")
            parts.append(f"rows={entry['rows_in']}->{entry['rows_out']}")
            if entry.get("selectivity") is not None:
                parts.append(f"selectivity={entry['selectivity']:.4f}")
            if entry.get("seconds") is not None:
                parts.append(f"time={entry['seconds'] * 1e3:.3f}ms")
            lines.append("  -> " + " ".join(parts))
        lines.append(
            f"result: {result.num_rows} rows x {result.num_columns} columns"
        )
        lines.append(result.explain())
        return "\n".join(lines)


def _describe(query: Query, db: Database) -> list[str]:
    """Static stage descriptions for the naive fixed-order pipeline."""
    steps = []
    table = db.table(query.table)
    steps.append(f"scan {query.table} ({table.num_rows} rows)")
    for join in query.joins:
        right = db.table(join.table)
        steps.append(
            f"join {join.table} on {join.left_col}={join.right_col} "
            f"({right.num_rows} rows)"
        )
    if query.where is not None:
        steps.append("filter (WHERE)")
    if query.group_by or _has_aggregate(query):
        by = ", ".join(query.group_by) if query.group_by else "<all rows>"
        steps.append(f"aggregate by {by}")
    if query.order_by is not None:
        column, descending = query.order_by
        steps.append(f"sort by {column} {'desc' if descending else 'asc'}")
    if not query.select_star and not (query.group_by or _has_aggregate(query)):
        names = [item.alias or default_name(item.expr)
                 for item in query.select]
        steps.append(f"project [{', '.join(names)}]")
    if query.limit is not None:
        steps.append(f"limit {query.limit}")
    return steps


def execute_naive(query: Query, db: Database,
                  plan: list[dict[str, Any]] | None = None) -> Table:
    """The historic fixed-order AST interpreter (join → where → aggregate
    → project), kept as the optimizer's equivalence oracle: WHERE and
    projections run through ``eval_vec``, GROUP BY through the row
    oracle ``aggregate_rows``."""

    def record(stage: str, span: Any, rows_in: int, rows_out: int,
               **extra: Any) -> None:
        if plan is None:
            return
        entry: dict[str, Any] = {
            "stage": stage, "rows_in": rows_in, "rows_out": rows_out,
        }
        if span is not None:
            entry["seconds"] = span.duration
        entry.update(extra)
        plan.append(entry)

    table = db.table(query.table)
    record("scan", None, table.num_rows, table.num_rows, table=query.table)
    for join in query.joins:
        rows_in = table.num_rows
        right = db.table(join.table)
        with tracing.span("sql.join", table=join.table) as s:
            table = table.join(right, on=[(join.left_col, join.right_col)])
            s.set(rows_out=table.num_rows)
        record("join", s, rows_in, table.num_rows, table=join.table,
               on=f"{join.left_col}={join.right_col}")
    if query.where is not None:
        rows_in = table.num_rows
        with tracing.span("sql.where") as s:
            table = table.filter(where_mask(query.where, table))
            selectivity = table.num_rows / rows_in if rows_in else None
            s.set(rows_out=table.num_rows)
        record("where", s, rows_in, table.num_rows, selectivity=selectivity)
    if query.group_by or _has_aggregate(query):
        rows_in = table.num_rows
        with tracing.span("sql.aggregate") as s:
            table = aggregate_rows(list(query.select), list(query.group_by),
                                   table)
            s.set(rows_out=table.num_rows)
        record("aggregate", s, rows_in, table.num_rows,
               by=",".join(query.group_by) or "<all>")
        if query.order_by is not None:
            column, descending = query.order_by
            with tracing.span("sql.sort", by=column) as s:
                table = table.order_by(column, descending=descending)
            record("sort", s, table.num_rows, table.num_rows, by=column)
    else:
        # ORDER BY may reference source columns the projection drops, so
        # sort before projecting (standard SQL allows both).
        if query.order_by is not None:
            column, descending = query.order_by
            with tracing.span("sql.sort", by=column) as s:
                table = table.order_by(column, descending=descending)
            record("sort", s, table.num_rows, table.num_rows, by=column)
        if not query.select_star:
            rows_in = table.num_rows
            with tracing.span("sql.project") as s:
                table = project_items(list(query.select), table)
                s.set(columns=table.num_columns)
            record("project", s, rows_in, table.num_rows,
                   columns=table.num_columns)
    if query.limit is not None:
        rows_in = table.num_rows
        with tracing.span("sql.limit", limit=query.limit) as s:
            table = table.limit(query.limit)
        record("limit", s, rows_in, table.num_rows, limit=query.limit)
    return table


def _has_aggregate(query: Query) -> bool:
    return has_aggregate(query.select)
