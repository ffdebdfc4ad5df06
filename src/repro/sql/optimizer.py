"""Rule-based optimizer over the logical plan IR.

:func:`optimize` runs a fixed rule pipeline and returns the rewritten
plan plus one human-readable annotation per applied rewrite (surfaced by
``Database.explain()``):

1. **constant folding** — literal-only subtrees collapse via the same
   row evaluator the naive executor uses (so ``1/0`` folds to NULL, not
   an error), and always-true filters disappear.
2. **predicate pushdown** — AND-conjuncts of every WHERE move through
   inner joins toward the side whose columns they reference (right-side
   refs rewritten through the join's compile-time renames) and below
   aggregates when they only touch group keys.
3. **view substitution** — a subtree whose :func:`~repro.sql.plan.plan_key`
   matches a registered materialized view becomes a :class:`ViewScan`;
   the keys are computed at this pipeline position on both sides, so
   fingerprints agree exactly.
4. **projection pruning** — scans narrow to the columns the rest of the
   plan references (always keeping join/sort keys and at least one
   column).
5. **join reordering** — a chain of inner joins re-orders
   most-selective-first, driven by ``Table.stats()`` distinct counts and
   null fractions.  Applied only when it provably preserves the naive
   executor's byte-identical output: every joined table's key is unique
   (so joins are semi-join filters with fanout ≤ 1), no suffix renames
   fire anywhere in the chain, and the original column order is restored
   by name when no Project/Aggregate ancestor would do it anyway.

Every rule preserves the naive executor's output *exactly* — same rows,
same row order, same column names — which is what the randomized
differential harness (tests/test_sql_differential.py) pins.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from typing import Any

from repro.sql.ast import BinaryOp, ColumnRef, Expr, FuncCall, Literal, SelectItem, UnaryOp
from repro.sql.expr import (
    eval_row,
    expr_columns,
    render_expr,
    rewrite_refs,
)
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
    output_names,
    plan_key,
)

__all__ = ["optimize", "split_conjuncts"]


def optimize(node: Node, catalog, *, view_keys: dict[str, str] | None = None,
             prune: bool = True, reorder: bool = True
             ) -> tuple[Node, list[str]]:
    """Run the rule pipeline; returns ``(plan, rewrite annotations)``.

    ``catalog`` provides ``schema_of(name)`` (always) and ``stats_of(name)``
    (only consulted when ``reorder`` is on).  The view compiler calls this
    with ``prune=False, reorder=False`` so stored view fingerprints and
    ad-hoc subtree fingerprints come from the same pipeline stage.
    """
    notes: list[str] = []
    node = _fold_node(node, notes)
    node = _push(node, [], catalog, notes)
    if view_keys:
        node = _substitute(node, view_keys, notes)
    if prune:
        node = _prune(node, None, catalog, notes)
    if reorder:
        node = _reorder(node, catalog, notes, covered=False)
    return node, notes


# -- constant folding ----------------------------------------------------------


def _is_literal(expr: Any) -> bool:
    return isinstance(expr, Literal)


def fold_expr(expr: Expr) -> Expr:
    """Collapse literal-only subtrees using the row evaluator, so folded
    semantics (NULL comparisons NULL, division by zero -> NULL) are the
    naive executor's by construction."""
    if isinstance(expr, (Literal, ColumnRef)):
        return expr
    if isinstance(expr, FuncCall):
        if expr.argument == "*":
            return expr
        arg = fold_expr(expr.argument)
        return expr if arg is expr.argument else FuncCall(expr.name, arg)
    if isinstance(expr, UnaryOp):
        operand = fold_expr(expr.operand)
        out = expr if operand is expr.operand else UnaryOp(expr.op, operand)
        if _is_literal(operand):
            return Literal(eval_row(out, {}))
        return out
    if isinstance(expr, BinaryOp):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        out = (expr if left is expr.left and right is expr.right
               else BinaryOp(expr.op, left, right))
        if _is_literal(left) and _is_literal(right):
            return Literal(eval_row(out, {}))
        return out
    return expr


def _fold_items(items: tuple[SelectItem, ...],
                notes: list[str]) -> tuple[SelectItem, ...]:
    folded = []
    changed = False
    for item in items:
        expr = fold_expr(item.expr)
        if expr is not item.expr:
            notes.append(
                f"constant_folding: {render_expr(item.expr)} "
                f"-> {render_expr(expr)}"
            )
            changed = True
            item = SelectItem(expr, item.alias)
        folded.append(item)
    return tuple(folded) if changed else items


def _fold_node(node: Node, notes: list[str]) -> Node:
    if isinstance(node, (Scan, ViewScan)):
        return node
    if isinstance(node, Join):
        return replace(node, left=_fold_node(node.left, notes),
                       right=_fold_node(node.right, notes))
    child = _fold_node(node.child, notes)
    if isinstance(node, Filter):
        pred = fold_expr(node.predicate)
        if pred is not node.predicate:
            notes.append(
                f"constant_folding: {render_expr(node.predicate)} "
                f"-> {render_expr(pred)}"
            )
        if isinstance(pred, Literal):
            if pred.value is not None and bool(pred.value):
                notes.append("constant_folding: removed always-true filter")
                return child
            # Always-false/NULL filters stay: they evaluate in O(n) as a
            # constant mask and keeping the node keeps EXPLAIN honest.
        return Filter(child, pred)
    if isinstance(node, (Project, Aggregate)):
        return replace(node, child=child, items=_fold_items(node.items, notes))
    return replace(node, child=child)


# -- predicate pushdown --------------------------------------------------------


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Top-level AND split (filtering by each conjunct in turn equals
    filtering by the conjunction: NULL and false both drop the row)."""
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _conjoin(conjuncts: list[Expr]) -> Expr:
    return reduce(lambda a, b: BinaryOp("and", a, b), conjuncts)


def _wrap(node: Node, pending: list[Expr]) -> Node:
    return Filter(node, _conjoin(pending)) if pending else node


def _push(node: Node, pending: list[Expr], catalog,
          notes: list[str]) -> Node:
    """Move ``pending`` conjuncts (referencing ``node``'s output names) as
    close to the leaves as possible; unplaceable ones wrap ``node``."""
    if isinstance(node, Filter):
        return _push(node.child, pending + split_conjuncts(node.predicate),
                     catalog, notes)
    if isinstance(node, Join):
        left_names = set(output_names(node.left, catalog))
        right_child = set(output_names(node.right, catalog))
        inverse = {out: src for src, out in node.renames
                   if src in right_child}
        left_p: list[Expr] = []
        right_p: list[Expr] = []
        keep: list[Expr] = []
        for conj in pending:
            refs = expr_columns(conj)
            if refs and refs <= left_names:
                left_p.append(conj)
                notes.append(
                    f"predicate_pushdown: {render_expr(conj)} below "
                    f"join {node.table} (left input)"
                )
            elif refs and all(r in inverse for r in refs):
                right_p.append(rewrite_refs(conj, inverse))
                notes.append(
                    f"predicate_pushdown: {render_expr(conj)} below "
                    f"join {node.table} (into {node.table})"
                )
            else:
                keep.append(conj)
        out = replace(node,
                      left=_push(node.left, left_p, catalog, notes),
                      right=_push(node.right, right_p, catalog, notes))
        return _wrap(out, keep)
    if isinstance(node, Aggregate):
        # A filter above an aggregate may move below it when it only
        # references group keys (same groups survive either way, in the
        # same first-appearance order).
        key_map = {}
        for item in node.items:
            if (isinstance(item.expr, ColumnRef)
                    and item.expr.name in node.group_by):
                key_map[item.alias or item.expr.name] = item.expr.name
        below: list[Expr] = []
        keep = []
        for conj in pending:
            refs = expr_columns(conj)
            if refs and all(r in key_map for r in refs):
                below.append(rewrite_refs(conj, key_map))
                notes.append(
                    f"predicate_pushdown: {render_expr(conj)} below aggregate"
                )
            else:
                keep.append(conj)
        out = replace(node, child=_push(node.child, below, catalog, notes))
        return _wrap(out, keep)
    if isinstance(node, (Scan, ViewScan)):
        return _wrap(node, pending)
    # Sort/Limit/Project: nothing ever compiles a filter above these, but
    # stay correct if one shows up — park it right here.
    return _wrap(replace(node, child=_push(node.child, [], catalog, notes)),
                 pending)


# -- view substitution ---------------------------------------------------------


def _substitute(node: Node, view_keys: dict[str, str],
                notes: list[str]) -> Node:
    """Top-down largest-prefix match of subtrees against registered view
    fingerprints."""
    key = plan_key(node)
    if key in view_keys:
        name = view_keys[key]
        notes.append(f"view_substitution: plan prefix -> view {name!r}")
        return ViewScan(name)
    if isinstance(node, Join):
        return replace(node,
                       left=_substitute(node.left, view_keys, notes),
                       right=_substitute(node.right, view_keys, notes))
    if isinstance(node, (Scan, ViewScan)):
        return node
    return replace(node, child=_substitute(node.child, view_keys, notes))


# -- projection pruning --------------------------------------------------------


def _prune(node: Node, required: set[str] | None, catalog,
           notes: list[str]) -> Node:
    """Narrow scans to ``required`` columns (None = all)."""
    if isinstance(node, Scan):
        names = catalog.schema_of(node.table).names
        if required is None:
            return node
        keep = [n for n in names if n in required]
        if keep == list(names):
            return node
        if not keep:
            # A table must keep at least one column to keep its row count
            # (COUNT(*) with no referenced columns).
            keep = [names[0]]
        notes.append(
            f"projection_pruning: scan {node.table} -> [{', '.join(keep)}]"
        )
        return Scan(node.table, tuple(keep))
    if isinstance(node, ViewScan):
        return node
    if isinstance(node, Filter):
        child_req = (None if required is None
                     else required | expr_columns(node.predicate))
        return Filter(_prune(node.child, child_req, catalog, notes),
                      node.predicate)
    if isinstance(node, Sort):
        child_req = None if required is None else required | {node.column}
        return replace(node, child=_prune(node.child, child_req, catalog,
                                          notes))
    if isinstance(node, Limit):
        return replace(node, child=_prune(node.child, required, catalog,
                                          notes))
    if isinstance(node, Project):
        child_req: set[str] = set()
        for item in node.items:
            child_req |= expr_columns(item.expr)
        return replace(node, child=_prune(node.child, child_req, catalog,
                                          notes))
    if isinstance(node, Aggregate):
        # Pure COUNT(*) leaves the set empty; scans keep one column anyway.
        child_req = set(node.group_by)
        for item in node.items:
            child_req |= expr_columns(item.expr)
        return replace(node, child=_prune(node.child, child_req, catalog,
                                          notes))
    if isinstance(node, Join):
        left_names = set(output_names(node.left, catalog))
        right_child = set(output_names(node.right, catalog))
        inverse = {out: src for src, out in node.renames
                   if src in right_child}
        if required is None:
            left_req: set[str] | None = None
            right_req: set[str] | None = None
        else:
            left_req = {r for r in required if r in left_names}
            left_req.add(node.left_col)
            right_req = {inverse[r] for r in required if r in inverse}
            right_req.add(node.right_col)
        return replace(node,
                       left=_prune(node.left, left_req, catalog, notes),
                       right=_prune(node.right, right_req, catalog, notes))
    raise TypeError(f"unknown plan node {node!r}")


# -- join reordering -----------------------------------------------------------


def _base_scan(node: Node) -> Scan | None:
    """The Scan under an optional Filter — the only right-input shapes the
    reorder rule accepts (what pushdown produces for base tables)."""
    if isinstance(node, Filter):
        node = node.child
    return node if isinstance(node, Scan) else None


def _unique_key(stats: dict, column: str) -> bool:
    st = stats.get(column)
    if st is None:
        return False
    return st["count"] > 0 and st["distinct"] == st["count"] - st["nulls"]


def _filter_selectivity(node: Node, stats: dict) -> float:
    """Estimated surviving fraction of the (optionally filtered) scan."""
    if not isinstance(node, Filter):
        return 1.0
    sel = 1.0
    for conj in split_conjuncts(node.predicate):
        sel *= _predicate_selectivity(conj, stats)
    return sel


def _predicate_selectivity(expr: Expr, stats: dict) -> float:
    """Textbook selectivity guesses from exact column statistics."""
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return (_predicate_selectivity(expr.left, stats)
                    * _predicate_selectivity(expr.right, stats))
        if expr.op == "or":
            return min(1.0, _predicate_selectivity(expr.left, stats)
                       + _predicate_selectivity(expr.right, stats))
        refs = sorted(expr_columns(expr))
        st = stats.get(refs[0]) if refs else None
        non_null = 1.0 - (st["null_fraction"] if st else 0.0)
        if expr.op == "=":
            distinct = max(st["distinct"], 1) if st else 10
            return non_null / distinct
        if expr.op == "<>":
            distinct = max(st["distinct"], 1) if st else 10
            return non_null * (1.0 - 1.0 / distinct)
        if expr.op in ("<", "<=", ">", ">="):
            return non_null / 3.0
        return 1.0 / 3.0
    if isinstance(expr, UnaryOp):
        if expr.op == "isnull":
            refs = sorted(expr_columns(expr))
            st = stats.get(refs[0]) if refs else None
            return st["null_fraction"] if st else 0.1
        if expr.op == "not":
            return 1.0 - _predicate_selectivity(expr.operand, stats)
    return 1.0 / 3.0


def _reorder(node: Node, catalog, notes: list[str], covered: bool) -> Node:
    """Reorder chains of inner joins most-selective-first.

    Only fires when byte-identical output is provable: all right-side
    join keys unique (fanout <= 1, so each join is a pure filter on the
    driving rows), no suffix renames anywhere in the chain, and right
    inputs are plain (optionally filtered) scans.  When no Project or
    Aggregate sits above the chain (SELECT *), a name-projection restores
    the original column order.
    """
    if isinstance(node, (Scan, ViewScan)):
        return node
    if isinstance(node, (Project, Aggregate)):
        return replace(node, child=_reorder(node.child, catalog, notes,
                                            covered=True))
    if not isinstance(node, Join):
        return replace(node, child=_reorder(node.child, catalog, notes,
                                            covered=covered))

    # Collect the left-deep chain of joins above a non-join base.
    units: list[Join] = []
    cursor: Node = node
    while isinstance(cursor, Join):
        units.append(cursor)
        cursor = cursor.left
    base = _reorder(cursor, catalog, notes, covered=covered)
    units.reverse()                      # innermost-first

    def bail() -> Node:
        out = base
        for unit in units:
            out = replace(unit, left=out,
                          right=_reorder(unit.right, catalog, notes,
                                         covered=covered))
        return out

    if len(units) < 2:
        return bail()
    for unit in units:
        scan = _base_scan(unit.right)
        if scan is None or scan.table != unit.table:
            return bail()
        if any(src != out for src, out in unit.renames):
            return bail()
        if not _unique_key(catalog.stats_of(unit.table), unit.right_col):
            return bail()

    ranked = sorted(
        range(len(units)),
        key=lambda i: (_filter_selectivity(units[i].right,
                                           catalog.stats_of(units[i].table)),
                       i),
    )
    # Greedy placement respecting key availability.
    available = set(output_names(base, catalog))
    placed: list[int] = []
    remaining = list(ranked)
    while remaining:
        pick = next((i for i in remaining
                     if units[i].left_col in available), None)
        if pick is None:
            return bail()                # key comes from an unplaced unit
        remaining.remove(pick)
        placed.append(pick)
        available |= {out for _, out in units[pick].renames}
    if placed == list(range(len(units))):
        return bail()

    original_names = output_names(node, catalog)
    out: Node = base
    for i in placed:
        out = replace(units[i], left=out)
    notes.append(
        "join_reorder: "
        + " -> ".join(units[i].table for i in placed)
        + " (most selective first)"
    )
    if not covered:
        # SELECT *: restore the original column order by name.
        out = Project(out, tuple(SelectItem(ColumnRef(n))
                                 for n in original_names))
        notes.append("join_reorder: added column-order-restoring projection")
    return out
