"""Template plan cache: a repeated query shape skips parse, compile and
optimize.

:meth:`~repro.sql.engine.Database.query` keys each statement on its token
stream with every number and string literal lifted into a typed slot
(``int`` in the int64 range, ``float`` or ``str``), so ``... WHERE oid = 7``
and ``... WHERE oid = 9`` share one template.  Three kinds of literal stay
in the key because the plan depends on them: a number after ``LIMIT``, an
int outside int64 (the index probe and the dtypes treat it differently),
and the keywords ``NULL``, ``TRUE`` and ``FALSE``.

A template stores the optimized logical plan together with the parser's
slot :class:`~repro.sql.ast.Literal` objects.  A hit rebuilds the plan
with the new values in place of those literals, matched by identity, and
the caller binds it afresh: binding reads literal values (the key-index
probe) and output names, and reads each stream's snapshot and each
view's table, so every push is visible to the next call.  A plan is
stored for reuse, over static tables, streams and views alike, unless

* the optimizer read the statistics of a stream or a view — the only
  way an optimized plan depends on data that changes without a catalog
  version bump (join reordering reads key uniqueness and selectivities;
  schemas, view fingerprints and partitioning change only through
  catalog calls, which bump the version), or
* a slot literal no longer appears, by identity, in the optimized plan —
  constant folding consumes slots (``oid = 1 + 2``), and so does a view
  substituted for a subtree that held one.

Such a template is stored as "do not reuse", with the reason
(:attr:`Template.verdict`, shown by ``Database.explain``).

The cache holds :data:`CAPACITY` templates, evicting first-in first-out,
and belongs to one catalog version: a lookup under a newer version clears
it.  It is safe under concurrent queries.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
    Query,
    SelectItem,
    UnaryOp,
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
)

__all__ = ["CAPACITY", "PlanCache", "Template", "template_key"]

#: Templates one database keeps (first in, first out).
CAPACITY = 256

_INT64_MAX = 2 ** 63 - 1
_LIMIT = ("keyword", "limit")
_INT, _FLOAT, _STR = ("slot", "int"), ("slot", "float"), ("slot", "str")


def template_key(tokens: list[tuple[str, str]]
                 ) -> tuple[tuple, list[int], list[Any]]:
    """``(key, positions, values)``: the token stream with each slot
    literal replaced by its type, and the slots' token positions and
    (unsigned) values in order."""
    key: list[Any] = []
    positions: list[int] = []
    values: list[Any] = []
    previous = None
    for pos, token in enumerate(tokens):
        kind, text = token
        slot = None
        if kind == "string":
            slot, value = _STR, text
        elif kind == "number" and previous != _LIMIT:
            if "." in text:
                slot, value = _FLOAT, float(text)
            else:
                value = int(text)
                if value <= _INT64_MAX:
                    slot = _INT
        if slot is None:
            key.append(token)
        else:
            key.append(slot)
            positions.append(pos)
            values.append(value)
        previous = token
    return tuple(key), positions, values


class Template:
    """One cached query shape.  ``static`` says whether every table it
    reads is static (the serving result cache's rule); ``plan`` is the
    optimized plan to reuse, or None when the template may not be reused,
    for the reason ``why``."""

    __slots__ = ("static", "plan", "slots", "why")

    def __init__(self, static: bool, plan: Node | None = None,
                 slots: tuple[tuple[Literal, bool], ...] = (),
                 why: str = ""):
        self.static = static
        self.plan = plan
        self.slots = slots
        self.why = why

    @classmethod
    def build(cls, query: Query, plan: Node, positions: list[int],
              static: bool, volatile_stats: list[str]) -> "Template":
        """The template for ``query`` (parsed from a stream whose slots sit
        at ``positions``) optimized to ``plan``; ``volatile_stats`` names
        each stream or view whose stats the optimizer read."""
        if volatile_stats:
            return cls(static, why="stats read from "
                       + ", ".join(volatile_stats))
        slots = tuple(query.literals[pos] for pos in positions)
        # A slot the optimizer consumed leaves the plan unchanged when
        # substituted.
        if any(_substitute(plan, {id(literal): Literal(literal.value)}) is plan
               for literal, _ in slots):
            return cls(static, why="a slot was folded or substituted away")
        return cls(static, plan, slots)

    @property
    def verdict(self) -> str:
        """``reusable``, or ``not reused (<why>)``."""
        return "reusable" if self.plan is not None else \
            f"not reused ({self.why})"

    def instantiate(self, values: list[Any]) -> Node:
        """The stored plan with ``values`` (from :func:`template_key`) in
        place of the slot literals."""
        fresh = {id(literal): Literal(-value if negated else value)
                 for (literal, negated), value in zip(self.slots, values)}
        return _substitute(self.plan, fresh)


class PlanCache:
    """Templates of one catalog version, keyed by :func:`template_key`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[tuple, Template] = {}
        self._version = -1

    def get(self, key: tuple, version: int) -> Template | None:
        with self._lock:
            if version > self._version:
                self._entries.clear()
                self._version = version
            if version != self._version:
                return None
            return self._entries.get(key)

    def put(self, key: tuple, version: int, template: Template) -> None:
        with self._lock:
            if version != self._version:
                return
            if key not in self._entries and len(self._entries) >= CAPACITY:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = template

    def __len__(self) -> int:
        return len(self._entries)


# -- substitution --------------------------------------------------------------


def _substitute(obj: Any, fresh: dict[int, Literal]) -> Any:
    """``obj`` with each literal whose id is in ``fresh`` swapped for its
    replacement.  Nodes are immutable, so unchanged parts are shared."""
    if isinstance(obj, Literal):
        return fresh.get(id(obj), obj)
    if isinstance(obj, (ColumnRef, Scan, ViewScan)):
        return obj
    if isinstance(obj, BinaryOp):
        left = _substitute(obj.left, fresh)
        right = _substitute(obj.right, fresh)
        if left is obj.left and right is obj.right:
            return obj
        return BinaryOp(obj.op, left, right)
    if isinstance(obj, UnaryOp):
        operand = _substitute(obj.operand, fresh)
        return obj if operand is obj.operand else UnaryOp(obj.op, operand)
    if isinstance(obj, FuncCall):
        if isinstance(obj.argument, str):
            return obj
        arg = _substitute(obj.argument, fresh)
        return obj if arg is obj.argument else FuncCall(obj.name, arg)
    if isinstance(obj, SelectItem):
        expr = _substitute(obj.expr, fresh)
        return obj if expr is obj.expr else SelectItem(expr, obj.alias)
    if isinstance(obj, Join):
        left = _substitute(obj.left, fresh)
        right = _substitute(obj.right, fresh)
        if left is obj.left and right is obj.right:
            return obj
        return Join(left, right, obj.table, obj.left_col, obj.right_col,
                    obj.renames)
    child = _substitute(obj.child, fresh)
    if isinstance(obj, Filter):
        predicate = _substitute(obj.predicate, fresh)
        if child is obj.child and predicate is obj.predicate:
            return obj
        return Filter(child, predicate)
    if isinstance(obj, (Project, Aggregate)):
        items = tuple(_substitute(item, fresh) for item in obj.items)
        if child is obj.child and all(
                new is old for new, old in zip(items, obj.items)):
            return obj
        if isinstance(obj, Project):
            return Project(child, items)
        return Aggregate(child, obj.group_by, items)
    if child is obj.child:
        return obj
    if isinstance(obj, Sort):
        return Sort(child, obj.column, obj.descending)
    return Limit(child, obj.n)
