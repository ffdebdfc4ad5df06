"""AST node types for the mini SQL engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column by name."""

    name: str


@dataclass(frozen=True)
class Literal:
    """A constant value (int, float, str, bool, or None)."""

    value: Any


@dataclass(frozen=True)
class BinaryOp:
    """Comparison / arithmetic / logical operator application."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    """NOT / negation."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class FuncCall:
    """Aggregate call like COUNT(*), SUM(price)."""

    name: str
    argument: Union["Expr", str]  # "*" only for COUNT(*)


Expr = Union[ColumnRef, Literal, BinaryOp, UnaryOp, FuncCall]


@dataclass
class SelectItem:
    """One item of the SELECT list with an optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass
class JoinClause:
    """An INNER JOIN with an equality condition."""

    table: str
    left_col: str
    right_col: str


@dataclass
class Query:
    """A parsed SELECT statement."""

    select: list[SelectItem]
    table: str
    joins: list[JoinClause] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[str] = field(default_factory=list)
    order_by: tuple[str, bool] | None = None  # (column, descending)
    limit: int | None = None
    select_star: bool = False
    #: Token position of each number / string literal -> the
    #: :class:`Literal` it parsed to, and whether a leading ``-`` negated
    #: it (the template plan cache substitutes through these).
    literals: dict[int, tuple[Literal, bool]] = field(
        default_factory=dict, compare=False, repr=False)
