"""Recursive-descent parser for the SQL subset (see :mod:`repro.sql`)."""

from __future__ import annotations

from functools import lru_cache

from repro.errors import SqlSyntaxError
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    Delete,
    DerivedTable,
    FromItem,
    FuncCall,
    Insert,
    Literal,
    OrderItem,
    Param,
    Select,
    Star,
    Statement,
    TableRef,
    Update,
    Value,
)
from repro.sql.lexer import Token, TokType, tokenize

AGGREGATE_FUNCS = frozenset({"SUM", "COUNT", "MIN", "MAX", "AVG"})

#: Distinct statement texts :func:`parse_statement` remembers. A run
#: issues a few hundred (workload statements, their view rewrites,
#: federation fragments, generated test queries); the bound only keeps
#: a pathological caller from growing the memo without limit.
PARSE_MEMO_SIZE = 4096


class _Parser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_count = 0

    # -- token helpers ------------------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def at_keyword(self, *kws: str) -> bool:
        return self.cur.type is TokType.KEYWORD and self.cur.upper in kws

    def accept_keyword(self, *kws: str) -> bool:
        if self.at_keyword(*kws):
            self.advance()
            return True
        return False

    def expect_keyword(self, kw: str) -> Token:
        if not self.at_keyword(kw):
            raise SqlSyntaxError(f"expected {kw}, got {self.cur.text!r}", self.cur.pos)
        return self.advance()

    def at_punct(self, p: str, ahead: int = 0) -> bool:
        tok = self.tokens[self.pos + ahead]
        return tok.type is TokType.PUNCT and tok.text == p

    def accept_punct(self, p: str) -> bool:
        if self.at_punct(p):
            self.advance()
            return True
        return False

    def expect_punct(self, p: str) -> Token:
        if not self.at_punct(p):
            raise SqlSyntaxError(
                f"expected {p!r}, got {self.cur.text!r}", self.cur.pos
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.cur.type is not TokType.IDENT:
            raise SqlSyntaxError(
                f"expected identifier, got {self.cur.text!r}", self.cur.pos
            )
        return self.advance()

    # -- entry --------------------------------------------------------------------
    def parse(self) -> Statement:
        if self.at_keyword("SELECT"):
            stmt: Statement = self.parse_select()
        elif self.at_keyword("INSERT"):
            stmt = self.parse_insert()
        elif self.at_keyword("UPDATE"):
            stmt = self.parse_update()
        elif self.at_keyword("DELETE"):
            stmt = self.parse_delete()
        else:
            raise SqlSyntaxError(
                f"expected a statement, got {self.cur.text!r}", self.cur.pos
            )
        if self.cur.type is not TokType.EOF:
            raise SqlSyntaxError(
                f"trailing input: {self.cur.text!r}", self.cur.pos
            )
        return stmt

    # -- SELECT ---------------------------------------------------------------------
    def parse_select(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        projections = [self.parse_projection()]
        while self.accept_punct(","):
            projections.append(self.parse_projection())
        self.expect_keyword("FROM")
        from_items = [self.parse_from_item()]
        while self.accept_punct(","):
            from_items.append(self.parse_from_item())
        where: tuple[BinOp, ...] = ()
        if self.accept_keyword("WHERE"):
            where = tuple(self.parse_conjuncts())
        group_by: tuple[ColumnRef, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            cols = [self.parse_column_ref()]
            while self.accept_punct(","):
                cols.append(self.parse_column_ref())
            group_by = tuple(cols)
        order_by: tuple[OrderItem, ...] = ()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            items = [self.parse_order_item()]
            while self.accept_punct(","):
                items.append(self.parse_order_item())
            order_by = tuple(items)
        limit: int | None = None
        if self.accept_keyword("LIMIT"):
            tok = self.advance()
            if tok.type is not TokType.NUMBER:
                raise SqlSyntaxError("LIMIT expects a number", tok.pos)
            limit = int(tok.text)
        return Select(
            projections=tuple(projections),
            from_items=tuple(from_items),
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def parse_projection(self) -> Star | ColumnRef | FuncCall:
        if self.accept_punct("*"):
            return Star()
        if (
            self.cur.type is TokType.IDENT
            and self.at_punct(".", 1)
            and self.at_punct("*", 2)
        ):
            qual = self.advance().text
            self.pos += 2  # . *
            return Star(qualifier=qual)
        return self.parse_column_or_aggregate()

    def parse_from_item(self) -> FromItem:
        if self.accept_punct("("):
            sub = self.parse_select()
            self.expect_punct(")")
            self.accept_keyword("AS")
            alias = self.expect_ident().text
            return DerivedTable(select=sub, alias=alias)
        name = self.expect_ident().text
        alias: str | None = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident().text
        elif self.cur.type is TokType.IDENT:
            alias = self.advance().text
        return TableRef(name=name, alias=alias)

    def parse_conjuncts(self) -> list[BinOp]:
        conjuncts = [self.parse_comparison()]
        while self.accept_keyword("AND"):
            conjuncts.append(self.parse_comparison())
        return conjuncts

    def parse_comparison(self) -> BinOp:
        left = self.parse_column_ref()
        if self.cur.type is not TokType.OP:
            raise SqlSyntaxError(
                f"expected comparison operator, got {self.cur.text!r}", self.cur.pos
            )
        op = self.advance().text
        if self.cur.type is TokType.IDENT:
            return BinOp(op, left, self.parse_column_ref())
        return BinOp(op, left, self.parse_value())

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_column_or_aggregate()
        desc = False
        if self.accept_keyword("DESC"):
            desc = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr=expr, descending=desc)

    # -- columns, aggregates and values ----------------------------------------------
    def parse_column_or_aggregate(self) -> ColumnRef | FuncCall:
        tok = self.cur
        if not (
            tok.type is TokType.IDENT
            and tok.upper in AGGREGATE_FUNCS
            and self.at_punct("(", 1)
        ):
            return self.parse_column_ref()
        self.pos += 2  # F (
        arg: ColumnRef | None = None
        if self.at_punct("*"):
            if tok.upper != "COUNT":
                raise SqlSyntaxError(f"{tok.upper} takes a column", self.cur.pos)
            self.advance()
        else:
            arg = self.parse_column_ref()
        self.expect_punct(")")
        return FuncCall(tok.upper, arg)

    def parse_value(self) -> Value:
        tok = self.advance()
        if tok.type is TokType.PARAM:
            self.param_count += 1
            return Param(self.param_count - 1)
        if tok.type is TokType.NUMBER:
            text = tok.text
            return Literal(float(text) if "." in text else int(text))
        if tok.type is TokType.STRING:
            return Literal(tok.text)
        if tok.type is TokType.KEYWORD and tok.upper == "NULL":
            return Literal(None)
        raise SqlSyntaxError(f"expected a literal or ?, got {tok.text!r}", tok.pos)

    def parse_column_ref(self) -> ColumnRef:
        first = self.expect_ident().text
        if self.accept_punct("."):
            second = self.expect_ident().text
            return ColumnRef(name=second, qualifier=first)
        return ColumnRef(name=first)

    # -- INSERT / UPDATE / DELETE -------------------------------------------------------
    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident().text
        columns: list[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_ident().text)
            while self.accept_punct(","):
                columns.append(self.expect_ident().text)
            self.expect_punct(")")
        self.expect_keyword("VALUES")
        self.expect_punct("(")
        values = [self.parse_value()]
        while self.accept_punct(","):
            values.append(self.parse_value())
        self.expect_punct(")")
        return Insert(table=table, columns=tuple(columns), values=tuple(values))

    def parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident().text
        self.expect_keyword("SET")
        assignments: list[tuple[str, Value]] = []
        while True:
            col = self.expect_ident().text
            if not (self.cur.type is TokType.OP and self.cur.text == "="):
                raise SqlSyntaxError("expected '=' in SET clause", self.cur.pos)
            self.advance()
            assignments.append((col, self.parse_value()))
            if not self.accept_punct(","):
                break
        where: tuple[BinOp, ...] = ()
        if self.accept_keyword("WHERE"):
            where = tuple(self.parse_conjuncts())
        return Update(table=table, assignments=tuple(assignments), where=where)

    def parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident().text
        where: tuple[BinOp, ...] = ()
        if self.accept_keyword("WHERE"):
            where = tuple(self.parse_conjuncts())
        return Delete(table=table, where=where)


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_statement(sql: str) -> Statement:
    """Parse one SQL statement into its AST — the only text -> AST step
    in the package. Memoized on the exact text: every AST node is a
    frozen dataclass over tuples, so callers share one immutable tree.
    A text that does not parse raises on every call (``lru_cache`` never
    stores an exception)."""
    return _Parser(sql).parse()
