"""Expression evaluation for the SQL engine — vectorized, with a row oracle.

Semantics follow SQL where it matters for the library: three-valued
logic (a comparison or arithmetic with a NULL operand is NULL, ``NOT
NULL`` is NULL, ``AND``/``OR`` are Kleene's), a WHERE clause keeps only
TRUE rows, aggregates skip NULLs, COUNT(*) counts rows.

:func:`eval_vec` is how the engine runs an expression: every node the
planner admits evaluates against the table's numpy column arrays and
null masks in one shot, to ``(values, mask)`` where ``values`` is a
numpy array of length num_rows (or a python scalar for literal-only
subtrees) and ``mask`` marks NULL results (``None`` = no nulls).  The
planner admits an aggregate call only as a top-level SELECT item of an
aggregate query (:func:`check_row_expr`, :class:`AggregateItems`), so a
misplaced one is a :class:`~repro.errors.ParseError` before anything
runs.  An expression's dtype is what :func:`eval_vec` yields over the
input schema (:func:`expr_dtype`), never a guess from the rows.
:func:`eval_row` and :func:`aggregate_rows` are the row-at-a-time
oracle behind ``execute_naive`` and the optimizer's constant folding.

This module is the shared bottom layer of the SQL stack: the logical
plan (:mod:`repro.sql.plan`), the optimizer (:mod:`repro.sql.optimizer`),
the physical executor (:mod:`repro.sql.physical`), the naive oracle
executor (:mod:`repro.sql.engine`) and the incremental view compiler
(:mod:`repro.sql.views`) all evaluate expressions through it, so the
optimized, sharded, incremental, and naive paths cannot drift apart.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ParseError, SchemaError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    SelectItem,
    UnaryOp,
)
from repro.table import Column, Table
from repro.table.aggregate import AGGREGATES, AggregateFunction, check_argument
from repro.table.schema import Schema, coerce, infer_dtype

__all__ = [
    "AggregateItems",
    "WhereMask",
    "aggregate_of",
    "aggregate_rows",
    "check_row_expr",
    "default_name",
    "eval_row",
    "eval_vec",
    "expr_columns",
    "expr_dtype",
    "has_aggregate",
    "project_column",
    "project_items",
    "render_expr",
    "rewrite_refs",
    "where_mask",
]


# -- structural utilities ------------------------------------------------------


def expr_columns(expr: Expr | str) -> set[str]:
    """The set of column names an expression references."""
    if isinstance(expr, ColumnRef):
        return {expr.name}
    if isinstance(expr, BinaryOp):
        return expr_columns(expr.left) | expr_columns(expr.right)
    if isinstance(expr, UnaryOp):
        return expr_columns(expr.operand)
    if isinstance(expr, FuncCall):
        return set() if expr.argument == "*" else expr_columns(expr.argument)
    return set()


def rewrite_refs(expr: Expr | str, mapping: dict[str, str]):
    """Rename every :class:`ColumnRef` through ``mapping`` (missing names
    pass through).  Nodes are immutable, so unchanged subtrees are shared."""
    if isinstance(expr, ColumnRef):
        new = mapping.get(expr.name, expr.name)
        return expr if new == expr.name else ColumnRef(new)
    if isinstance(expr, BinaryOp):
        left = rewrite_refs(expr.left, mapping)
        right = rewrite_refs(expr.right, mapping)
        if left is expr.left and right is expr.right:
            return expr
        return BinaryOp(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = rewrite_refs(expr.operand, mapping)
        return expr if operand is expr.operand else UnaryOp(expr.op, operand)
    if isinstance(expr, FuncCall):
        if expr.argument == "*":
            return expr
        arg = rewrite_refs(expr.argument, mapping)
        return expr if arg is expr.argument else FuncCall(expr.name, arg)
    return expr


def render_expr(expr: Expr | str) -> str:
    """SQL-ish text for an expression (EXPLAIN plan rendering)."""
    if isinstance(expr, Literal):
        if expr.value is None:
            return "null"
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            escaped = expr.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return f"(not {render_expr(expr.operand)})"
        if expr.op == "neg":
            return f"(-{render_expr(expr.operand)})"
        if expr.op == "isnull":
            return f"({render_expr(expr.operand)} is null)"
        return f"({expr.op} {render_expr(expr.operand)})"
    if isinstance(expr, BinaryOp):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, FuncCall):
        arg = "*" if expr.argument == "*" else render_expr(expr.argument)
        return f"{expr.name}({arg})"
    return repr(expr)


def default_name(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FuncCall):
        arg = (expr.argument if isinstance(expr.argument, str)
               else default_name(expr.argument))
        return f"{expr.name}_{arg}".replace("*", "all")
    return "expr"


def has_aggregate(items: list[SelectItem]) -> bool:
    return any(isinstance(item.expr, FuncCall) for item in items)


def _aggregate_in(expr: Expr | str) -> FuncCall | None:
    """The first aggregate call anywhere in ``expr``, or None."""
    if isinstance(expr, FuncCall):
        return expr
    if isinstance(expr, BinaryOp):
        return _aggregate_in(expr.left) or _aggregate_in(expr.right)
    if isinstance(expr, UnaryOp):
        return _aggregate_in(expr.operand)
    return None


def _misplaced(call: FuncCall) -> ParseError:
    return ParseError(f"aggregate {render_expr(call)} is allowed only as a "
                      f"top-level SELECT item of an aggregate query")


def check_row_expr(expr: Expr, names) -> None:
    """Reject, at plan time, a row expression :func:`eval_vec` cannot
    evaluate over columns ``names``: :class:`ParseError` for an aggregate
    call in it, :class:`SchemaError` for an unknown column."""
    call = _aggregate_in(expr)
    if call is not None:
        raise _misplaced(call)
    missing = expr_columns(expr) - set(names)
    if missing:
        raise SchemaError(f"no column {min(missing)!r} in row")


# -- row-at-a-time evaluation --------------------------------------------------


def eval_row(expr: Expr, row: dict[str, Any]) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        if expr.name not in row:
            raise SchemaError(f"no column {expr.name!r} in row")
        return row[expr.name]
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            value = eval_row(expr.operand, row)
            return None if value is None else not bool(value)
        if expr.op == "neg":
            value = eval_row(expr.operand, row)
            return -value if value is not None else None
        if expr.op == "isnull":
            return eval_row(expr.operand, row) is None
        raise ParseError(f"unknown unary op {expr.op}")
    if isinstance(expr, BinaryOp):
        if expr.op in ("and", "or"):
            # Kleene logic: a decisive operand (false for AND, true for
            # OR) settles the row; otherwise any NULL operand makes it NULL.
            decisive = expr.op == "or"
            left = eval_row(expr.left, row)
            if left is not None and bool(left) == decisive:
                return decisive
            right = eval_row(expr.right, row)
            if right is not None and bool(right) == decisive:
                return decisive
            return None if left is None or right is None else not decisive
        left = eval_row(expr.left, row)
        right = eval_row(expr.right, row)
        if left is None or right is None:
            return None
        if expr.op == "=":
            return left == right
        if expr.op == "<>":
            return left != right
        if expr.op == "<":
            return left < right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">":
            return left > right
        if expr.op == ">=":
            return left >= right
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right if right != 0 else None
        raise ParseError(f"unknown binary op {expr.op}")
    raise ParseError(f"cannot evaluate {expr!r}")


def aggregate_of(call: FuncCall) -> AggregateFunction:
    """The aggregate algebra's function for a SQL call: ``count(*)`` is
    ``count_star``, ``f(expr)`` the function named ``f``."""
    if call.argument == "*":
        if call.name != "count":
            raise ParseError(f"{call.name}(*) is not valid SQL")
        return AGGREGATES["count_star"]
    fn = AGGREGATES.get(call.name)
    if fn is None or not fn.takes_column:
        raise ParseError(f"unknown aggregate {call.name}")
    return fn


class AggregateItems:
    """An aggregate query's SELECT list over input ``schema``, as group-by
    ``specs`` (a computed argument reads helper column ``__arg<i>``,
    listed in ``computed``) and, per item, the grouped column or
    :class:`Literal` it outputs under its name; shared by the row oracle,
    the planner and the view compiler.

    Construction is the plan-time check: an item must be a GROUP BY
    column, a literal or an aggregate over a row expression
    (:class:`ParseError` otherwise); each key must exist and each
    aggregate accept its argument's dtype (:class:`SchemaError`)."""

    __slots__ = ("group_by", "specs", "computed", "outputs")

    def __init__(self, items: list[SelectItem], group_by: list[str],
                 schema: Schema):
        self.group_by = group_by
        self.specs: list[tuple[str, str | None, str]] = []
        self.computed: list[tuple[str, Expr]] = []
        self.outputs: list[tuple[str | Literal, str]] = []
        for key in group_by:
            schema.field(key)            # SchemaError for an unknown key
        for i, item in enumerate(items):
            expr = item.expr
            if isinstance(expr, ColumnRef):
                if expr.name not in group_by:
                    raise ParseError(f"column {expr.name!r} must appear "
                                     f"in GROUP BY or an aggregate")
                source = expr.name
            elif isinstance(expr, Literal):
                source = expr
            elif isinstance(expr, FuncCall):
                fn = aggregate_of(expr)
                arg = expr.argument if fn.takes_column else None
                if isinstance(arg, ColumnRef) and arg.name in schema:
                    arg, dtype = arg.name, schema.dtype_of(arg.name)
                elif arg is not None:
                    check_row_expr(arg, schema.names)
                    dtype = expr_dtype(arg, schema)
                    self.computed.append((f"__arg{i}", arg))
                    arg = f"__arg{i}"
                if arg is not None:
                    check_argument(fn, dtype, render_expr(expr))
                source = f"__agg{i}"
                self.specs.append((fn.name, arg, source))
            else:
                raise ParseError(
                    "unsupported expression in aggregate SELECT list")
            self.outputs.append((source, item.alias or default_name(expr)))

    def arguments(self, table: Table, column_of) -> Table:
        """``table`` plus the computed argument columns, each built by
        ``column_of(expr, table)``."""
        fields = [(f.name, f.dtype) for f in table.schema]
        columns = list(table.columns())
        for name, expr in self.computed:
            col = column_of(expr, table)
            fields.append((name, col.dtype))
            columns.append(col)
        return Table.from_columns(Schema(fields), columns)

    def finish(self, grouped: Table) -> Table:
        """The grouped output in SELECT order, under the items' names.  A
        global aggregate over no rows is still one row (COUNT = 0)."""
        if not self.group_by and not grouped.num_rows:
            grouped = Table.from_rows(
                [tuple(AGGREGATES[fn].reduce([]) for fn, _c, _s in self.specs)],
                schema=grouped.schema)
        fields, columns = [], []
        for source, name in self.outputs:
            if isinstance(source, Literal):
                dtype = infer_dtype([source.value])
                col = Column.build([source.value] * grouped.num_rows, dtype)
            else:
                col = grouped.columns()[grouped.schema.index_of(source)]
            fields.append((name, col.dtype))
            columns.append(col)
        return Table.from_columns(Schema(fields), columns)


def _row_column(expr: Expr, table: Table) -> Column:
    """``expr`` evaluated row by row, typed by :func:`expr_dtype`."""
    dtype = expr_dtype(expr, table.schema)
    return Column.build([coerce(eval_row(expr, row), dtype)
                         for row in table.row_dicts()], dtype)


def aggregate_rows(items: list[SelectItem], group_by: list[str],
                   table: Table) -> Table:
    """Row-at-a-time GROUP BY — the aggregate oracle: arguments evaluate
    row by row, and :meth:`Table.group_by_reference` reduces each group
    with the aggregate algebra's row reduce."""
    plan = AggregateItems(items, group_by, table.schema)
    return plan.finish(plan.arguments(table, _row_column)
                       .group_by_reference(group_by, plan.specs))


# -- projection ---------------------------------------------------------------


def project_items(items: list[SelectItem], table: Table) -> Table:
    columns = [project_column(item.expr, table) for item in items]
    schema = Schema((item.alias or default_name(item.expr), col.dtype)
                    for item, col in zip(items, columns))
    return Table.from_columns(schema, columns)


def project_column(expr: Expr, table: Table) -> Column:
    """One SELECT item as a trusted :class:`Column`.

    Its dtype depends on the schema alone: a source column keeps its
    dtype, a computed expression takes the numpy result dtype (an object
    result is ``str``), so empty inputs and all-NULL operands type it
    exactly as any other rows do.
    """
    values, mask = eval_vec(expr, table)
    n = table.num_rows
    if not isinstance(values, np.ndarray):     # scalar expression: broadcast
        if values is None:
            mask = np.ones(n, dtype=bool)
            values = np.full(n, None, dtype=object)
        else:
            values = np.full(
                n, values,
                dtype=object if isinstance(values, str) else None,
            )
    if mask is None:
        mask = np.zeros(n, dtype=bool)
    if isinstance(expr, ColumnRef):
        return Column(table.schema.dtype_of(expr.name), values, mask)
    if values.dtype == np.bool_:
        dtype = "bool"
    elif np.issubdtype(values.dtype, np.integer):
        dtype = "int"
    elif np.issubdtype(values.dtype, np.floating):
        dtype = "float"
    else:
        pylist = values.tolist()
        for i in np.flatnonzero(mask).tolist():
            pylist[i] = None
        return Column.build(pylist, "str")
    return Column(dtype, values, mask)


def expr_dtype(expr: Expr, schema: Schema) -> str:
    """The dtype :func:`project_column` gives ``expr`` over any table of
    ``schema`` (read off an empty one)."""
    return project_column(expr, Table.empty(schema)).dtype


# -- vectorized evaluation -----------------------------------------------------


def where_mask(expr: Expr, table: Table) -> np.ndarray:
    """WHERE clause as a boolean keep-mask (TRUE rows only; FALSE and NULL
    drop)."""
    return _logic(*eval_vec(expr, table), table.num_rows)[0]


class WhereMask:
    """:func:`where_mask` bound to one expression: the ``Table -> keep
    mask`` callable that shard filters, IVM filter nodes and dlt
    expectations run.  Picklable (the AST is frozen dataclasses all the
    way down), so it rides into forked shard workers."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def __call__(self, table: Table) -> np.ndarray:
        return where_mask(self.expr, table)


def _bools(values: Any, n: int) -> np.ndarray:
    """``bool()`` of every value as a fresh array (NULL slots are the
    caller's to mask)."""
    if not isinstance(values, np.ndarray):
        return np.full(n, bool(values))
    if values.dtype == object:
        return np.frompyfunc(bool, 1, 1)(values).astype(bool)
    return values.astype(bool)


def _logic(values: Any, mask: np.ndarray | None, n: int):
    """A condition operand as ``(true, null)``: the rows where it is TRUE,
    and its NULL mask (a NULL literal is NULL everywhere)."""
    if values is None:
        return np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    true = _bools(values, n)
    if mask is not None:
        true &= ~mask
    return true, mask


def _filled(values: Any, mask: np.ndarray | None) -> Any:
    """Replace masked object slots with '' so elementwise ops never touch
    None (numeric sentinels are already computable)."""
    if (isinstance(values, np.ndarray) and values.dtype == object
            and mask is not None and mask.any()):
        return np.where(mask, "", values)
    return values


def _combine_masks(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def eval_vec(expr: Expr, table: Table):
    """``expr`` over ``table`` as ``(values, mask)``; an aggregate call
    raises :class:`ParseError`.  Boolean results keep False in their NULL
    slots (the bool column sentinel), so a keep-mask is ``values & ~mask``
    at any depth."""
    n = table.num_rows
    if isinstance(expr, Literal):
        return expr.value, None
    if isinstance(expr, ColumnRef):
        if expr.name not in table.schema:
            raise SchemaError(f"no column {expr.name!r} in row")
        mask = table.null_mask(expr.name)
        return table.column_array(expr.name), (mask if mask.any() else None)
    if isinstance(expr, UnaryOp):
        values, mask = eval_vec(expr.operand, table)
        if expr.op == "not":
            true, null = _logic(values, mask, n)
            return (~true if null is None else ~(true | null)), null
        if expr.op == "neg":
            if values is None:
                return None, np.ones(n, dtype=bool)
            return -values, mask
        if expr.op == "isnull":
            if values is None:
                return np.ones(n, dtype=bool), None
            if not isinstance(values, np.ndarray):
                return np.zeros(n, dtype=bool), None
            return (mask.copy() if mask is not None
                    else np.zeros(n, dtype=bool)), None
        raise ParseError(f"unknown unary op {expr.op}")
    if isinstance(expr, BinaryOp):
        left = eval_vec(expr.left, table)
        right = eval_vec(expr.right, table)
        if expr.op in ("and", "or"):
            # Kleene logic: TRUE where both (AND) / either (OR) operand is
            # TRUE; NULL where no operand is decisive and one is NULL.
            lt, ln = _logic(*left, n)
            rt, rn = _logic(*right, n)
            null = _combine_masks(ln, rn)
            if expr.op == "and":
                true = lt & rt
                if null is not None:
                    null = (null & (lt if ln is None else lt | ln)
                            & (rt if rn is None else rt | rn))
            else:
                true = lt | rt
                if null is not None:
                    null = null & ~true
            return true, null
        lv, lm = left
        rv, rm = right
        compare = expr.op in ("=", "<>", "<", "<=", ">", ">=")
        if lv is None or rv is None:       # NULL literal operand: NULL
            return (np.zeros(n, dtype=bool if compare else float),
                    np.ones(n, dtype=bool))
        a, b = _filled(lv, lm), _filled(rv, rm)
        mask = _combine_masks(lm, rm)
        if compare:
            if expr.op == "=":
                res = a == b
            elif expr.op == "<>":
                res = a != b
            elif expr.op == "<":
                res = a < b
            elif expr.op == "<=":
                res = a <= b
            elif expr.op == ">":
                res = a > b
            else:
                res = a >= b
            res = np.broadcast_to(np.asarray(res, dtype=bool), (n,)).copy()
            if mask is not None:
                res &= ~mask
            return res, mask
        if expr.op == "+":
            return a + b, mask
        if expr.op == "-":
            return a - b, mask
        if expr.op == "*":
            return a * b, mask
        if expr.op == "/":
            b_arr = np.asarray(b)
            zero = b_arr == 0
            safe = np.where(zero, 1, b_arr) if np.any(zero) else b_arr
            res = np.asarray(a) / safe
            if np.any(zero):
                zmask = np.broadcast_to(
                    np.asarray(zero, dtype=bool), (n,)
                ).copy()
                mask = _combine_masks(mask, zmask)
            return res, mask
        raise ParseError(f"unknown binary op {expr.op}")
    if isinstance(expr, FuncCall):
        raise _misplaced(expr)
    raise ParseError(f"cannot evaluate {expr!r}")
