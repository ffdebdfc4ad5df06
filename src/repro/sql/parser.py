"""Recursive-descent parser for the supported SQL subset.

Grammar (case-insensitive keywords)::

    query    := SELECT items FROM name join* [WHERE expr]
                [GROUP BY cols] [ORDER BY col [ASC|DESC]] [LIMIT n]
                (n a non-negative integer)
    join     := JOIN name ON col = col
    items    := '*' | item (',' item)*
    item     := expr [AS name]
    expr     := or-expression over comparisons, arithmetic, literals,
                column refs, and aggregate calls; comparisons include
                [NOT] IN (literal, ...) and [NOT] BETWEEN low AND high,
                desugared to =/<>/>=/<= chains with SQL three-valued
                NULL semantics

``-`` is always an operator token; a ``-`` directly before a number
parses as one negative literal, so ``a-1`` is a subtraction and
``oid = -5`` compares with the literal ``-5``.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    JoinClause,
    Literal,
    Query,
    SelectItem,
    UnaryOp,
)
from repro.table.aggregate import AGGREGATES as ALGEBRA

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.\d+|\d+)"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,|\.)"
    r"|(?P<word>[A-Za-z_][A-Za-z_0-9]*)"
    r")"
)

KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "as",
    "and", "or", "not", "join", "on", "asc", "desc", "null", "is",
    "true", "false", "in", "between",
}

#: Function names that parse as aggregate calls: the aggregate algebra's
#: functions over a column (``count_star`` is spelled ``count(*)``).
AGGREGATES = frozenset(name for name, fn in ALGEBRA.items()
                       if fn.takes_column)


def tokenize(sql: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    for match in _TOKEN_RE.finditer(sql):
        if match.start() != pos:         # skipped text no token matches
            break
        pos = match.end()
        kind = match.lastgroup
        text = match[kind]
        if kind == "string":
            text = text[1:-1].replace("''", "'")
        elif kind == "word":
            lower = text.lower()
            if lower in KEYWORDS:
                kind, text = "keyword", lower
            else:
                kind = "name"
        tokens.append((kind, text))
    rest = sql[pos:].strip()
    if rest:
        raise ParseError(f"cannot tokenize SQL near: {rest[:25]!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0
        self.literals: dict[int, tuple[Literal, bool]] = {}

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of SQL")
        self.pos += 1
        return token

    def expect_keyword(self, word: str) -> None:
        kind, value = self.next()
        if kind != "keyword" or value != word:
            raise ParseError(f"expected {word.upper()}, got {value!r}")

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token and token[0] == "keyword" and token[1] == word:
            self.pos += 1
            return True
        return False

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token and token[0] == "op" and token[1] == op:
            self.pos += 1
            return True
        return False

    # -- grammar -------------------------------------------------------------

    def query(self) -> Query:
        self.expect_keyword("select")
        select_star = False
        items: list[SelectItem] = []
        if self.accept_op("*"):
            select_star = True
        else:
            items.append(self.select_item())
            while self.accept_op(","):
                items.append(self.select_item())
        self.expect_keyword("from")
        kind, table = self.next()
        if kind != "name":
            raise ParseError(f"expected table name, got {table!r}")
        query = Query(select=items, table=table, select_star=select_star)
        while self.accept_keyword("join"):
            query.joins.append(self.join_clause())
        if self.accept_keyword("where"):
            query.where = self.expr()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            query.group_by.append(self.column_name())
            while self.accept_op(","):
                query.group_by.append(self.column_name())
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            column = self.column_name()
            descending = False
            if self.accept_keyword("desc"):
                descending = True
            else:
                self.accept_keyword("asc")
            query.order_by = (column, descending)
        if self.accept_keyword("limit"):
            kind, value = self.next()
            if kind != "number" or "." in value:
                raise ParseError(
                    f"LIMIT expects a non-negative integer, got {value!r}")
            query.limit = int(value)
        if self.peek() is not None:
            raise ParseError(f"unexpected trailing tokens: {self.tokens[self.pos:]}")
        query.literals = self.literals
        return query

    def join_clause(self) -> JoinClause:
        kind, table = self.next()
        if kind != "name":
            raise ParseError(f"expected join table name, got {table!r}")
        self.expect_keyword("on")
        left = self.column_name()
        if not self.accept_op("="):
            raise ParseError("JOIN condition must be col = col")
        right = self.column_name()
        return JoinClause(table=table, left_col=left, right_col=right)

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.accept_keyword("as"):
            kind, alias_name = self.next()
            if kind != "name":
                raise ParseError(f"expected alias name, got {alias_name!r}")
            alias = alias_name
        return SelectItem(expr=expr, alias=alias)

    def column_name(self) -> str:
        kind, value = self.next()
        if kind != "name":
            raise ParseError(f"expected column name, got {value!r}")
        # Accept a "table.column" qualifier and keep the column: the
        # engine resolves columns by bare name (joins suffix clashes), so
        # the qualifier is documentation, not disambiguation.
        if self.peek() == ("op", "."):
            self.next()
            kind, column = self.next()
            if kind != "name":
                raise ParseError(f"expected column after {value!r}., "
                                 f"got {column!r}")
            return column
        return value

    def expr(self):
        return self.or_expr()

    def or_expr(self):
        left = self.and_expr()
        while self.accept_keyword("or"):
            left = BinaryOp("or", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.accept_keyword("and"):
            left = BinaryOp("and", left, self.not_expr())
        return left

    def not_expr(self):
        if self.accept_keyword("not"):
            return UnaryOp("not", self.not_expr())
        return self.comparison()

    def comparison(self):
        left = self.additive()
        token = self.peek()
        if token and token[0] == "op" and token[1] in ("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self.next()[1]
            if op == "!=":
                op = "<>"
            return BinaryOp(op, left, self.additive())
        if token and token[0] == "keyword" and token[1] == "is":
            self.next()
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            node = UnaryOp("isnull", left)
            return UnaryOp("not", node) if negated else node
        # Postfix [NOT] IN / [NOT] BETWEEN.  NOT is only consumed here
        # when IN/BETWEEN follows — a bare trailing NOT belongs to the
        # caller (e.g. "a = 1 and not b").
        negated = False
        if (token == ("keyword", "not")
                and self.pos + 1 < len(self.tokens)
                and self.tokens[self.pos + 1] in (("keyword", "in"),
                                                  ("keyword", "between"))):
            self.next()
            negated = True
            token = self.peek()
        if token and token[0] == "keyword" and token[1] == "in":
            self.next()
            return self._in_list(left, negated)
        if token and token[0] == "keyword" and token[1] == "between":
            self.next()
            return self._between(left, negated)
        return left

    def _in_list(self, left, negated: bool):
        """Desugar ``x [NOT] IN (a, b, ...)`` to comparison chains.

        ``IN`` becomes ``x = a OR x = b``; ``NOT IN`` becomes its De
        Morgan form ``x <> a AND x <> b``, which under three-valued logic
        equals ``NOT (x = a OR ...)``: a NULL ``x`` (or a NULL in the
        list) makes the test NULL, and the row drops.
        """
        if not self.accept_op("("):
            raise ParseError("IN expects a parenthesized literal list")
        values = [self._in_literal()]
        while self.accept_op(","):
            values.append(self._in_literal())
        if not self.accept_op(")"):
            raise ParseError("missing ) after IN list")
        if negated:
            out = BinaryOp("<>", left, values[0])
            for value in values[1:]:
                out = BinaryOp("and", out, BinaryOp("<>", left, value))
            return out
        out = BinaryOp("=", left, values[0])
        for value in values[1:]:
            out = BinaryOp("or", out, BinaryOp("=", left, value))
        return out

    def _in_literal(self) -> Literal:
        expr = self.primary()
        if not isinstance(expr, Literal):
            raise ParseError("IN list elements must be literals")
        return expr

    def _between(self, left, negated: bool):
        """Desugar ``x [NOT] BETWEEN low AND high``.

        ``BETWEEN`` becomes ``x >= low AND x <= high``; the negation
        becomes ``x < low OR x > high`` (its De Morgan form), so a NULL
        ``x`` is NULL on both sides and the row drops.  Bounds
        parse at additive precedence so the separating AND stays ours.
        """
        low = self.additive()
        self.expect_keyword("and")
        high = self.additive()
        if negated:
            return BinaryOp("or", BinaryOp("<", left, low),
                            BinaryOp(">", left, high))
        return BinaryOp("and", BinaryOp(">=", left, low),
                        BinaryOp("<=", left, high))

    def additive(self):
        left = self.multiplicative()
        while True:
            token = self.peek()
            if token and token[0] == "op" and token[1] in ("+", "-"):
                op = self.next()[1]
                left = BinaryOp(op, left, self.multiplicative())
            else:
                return left

    def multiplicative(self):
        left = self.primary()
        while True:
            token = self.peek()
            if token and token[0] == "op" and token[1] in ("*", "/"):
                op = self.next()[1]
                left = BinaryOp(op, left, self.primary())
            else:
                return left

    def literal(self, negated: bool = False) -> Literal:
        """The number or string token at the cursor as a :class:`Literal`,
        recorded in ``literals`` under the token's position."""
        kind, value = self.next()
        if kind == "string":
            out = Literal(value)
        else:
            number = float(value) if "." in value else int(value)
            out = Literal(-number if negated else number)
        self.literals[self.pos - 1] = (out, negated)
        return out

    def primary(self):
        token = self.peek()
        if token is not None and token[0] in ("number", "string"):
            return self.literal()
        kind, value = self.next()
        if kind == "keyword" and value in ("true", "false"):
            return Literal(value == "true")
        if kind == "keyword" and value == "null":
            return Literal(None)
        if kind == "op" and value == "(":
            inner = self.expr()
            if not self.accept_op(")"):
                raise ParseError("missing closing parenthesis")
            return inner
        if kind == "op" and value == "-":
            token = self.peek()
            if token is not None and token[0] == "number":
                return self.literal(negated=True)
            return UnaryOp("neg", self.primary())
        if kind == "name":
            if value.lower() in AGGREGATES and self.accept_op("("):
                if self.accept_op("*"):
                    argument: object = "*"
                else:
                    argument = self.expr()
                if not self.accept_op(")"):
                    raise ParseError(f"missing ) after {value}(")
                return FuncCall(value.lower(), argument)
            return ColumnRef(value)
        raise ParseError(f"unexpected token {value!r}")


def parse_sql(sql: str | list[tuple[str, str]]) -> Query:
    """Parse a SELECT statement (its text, or its :func:`tokenize` output)
    into a :class:`~repro.sql.ast.Query`."""
    return _Parser(tokenize(sql) if isinstance(sql, str) else sql).query()
