"""SQL abstract syntax tree nodes.

The tree is deliberately small: expressions are columns, literals,
parameters, binary comparisons and aggregate function calls; WHERE
clauses are stored as a list of AND-ed conjuncts (the workloads in the
paper are all conjunctive).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Iterator, Union


# ---------------------------------------------------------------- expressions
@dataclass(frozen=True)
class ColumnRef:
    """``qualifier.name`` or bare ``name`` (qualifier None)."""

    name: str
    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Literal:
    value: Any

    def __str__(self) -> str:
        """The text the parser reads back to this literal."""
        value = self.value
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, float):
            # the lexer has no exponent form, and reads a number as a
            # float only when it carries a fraction
            text = format(Decimal(repr(value)), "f")
            return text if "." in text else text + ".0"
        return str(value)


@dataclass(frozen=True)
class Param:
    """A ``?`` placeholder; ``index`` is its 0-based position in the text."""

    index: int

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in a projection list."""

    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class BinOp:
    """A binary comparison ``left op right``."""

    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    def column_pair(self) -> tuple[ColumnRef, ColumnRef] | None:
        """Both sides column refs (a potential join condition), else None."""
        if isinstance(self.left, ColumnRef) and isinstance(self.right, ColumnRef):
            return (self.left, self.right)
        return None


@dataclass(frozen=True)
class FuncCall:
    """Aggregate call: ``SUM(x)``, ``COUNT(*)``, ...; ``star`` for COUNT(*)."""

    name: str
    args: tuple["Expr", ...] = ()
    star: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


Expr = Union[ColumnRef, Literal, Param, BinOp, FuncCall, Star]


# ---------------------------------------------------------------- from items
@dataclass(frozen=True)
class TableRef:
    """A base relation (or view) in FROM, with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name

    def __str__(self) -> str:
        return f"{self.name} as {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class DerivedTable:
    """``(SELECT ...) AS alias`` — used by the TPC-W best-seller queries."""

    select: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias

    def __str__(self) -> str:
        return f"({self.select}) as {self.alias}"


FromItem = Union[TableRef, DerivedTable]


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.expr} DESC" if self.descending else str(self.expr)


# ---------------------------------------------------------------- statements
@dataclass(frozen=True)
class Select:
    projections: tuple[Expr, ...]
    from_items: tuple[FromItem, ...]
    where: tuple[BinOp, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def __str__(self) -> str:
        from repro.sql.printer import to_sql

        return to_sql(self)

    def iter_table_refs(self) -> Iterator[TableRef]:
        """All base TableRefs, including those inside derived tables."""
        for item in self.from_items:
            if isinstance(item, TableRef):
                yield item
            else:
                yield from item.select.iter_table_refs()

    def uses_relation_twice(self) -> bool:
        """True for self-joins (Synergy does not use views for these)."""
        names = [t.name for t in self.iter_table_refs()]
        return len(names) != len(set(names))


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    values: tuple[Expr, ...]

    def __str__(self) -> str:
        from repro.sql.printer import to_sql

        return to_sql(self)


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: tuple[BinOp, ...] = ()

    def __str__(self) -> str:
        from repro.sql.printer import to_sql

        return to_sql(self)


@dataclass(frozen=True)
class Delete:
    table: str
    where: tuple[BinOp, ...] = ()

    def __str__(self) -> str:
        from repro.sql.printer import to_sql

        return to_sql(self)


Statement = Union[Select, Insert, Update, Delete]
