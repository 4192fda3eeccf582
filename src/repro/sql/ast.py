"""SQL abstract syntax tree nodes, one per shape the parser builds: a
projection is ``*``, ``b.*``, a column or an aggregate (``COUNT(*)`` or
``F(column)``); a WHERE is a tuple of AND-ed ``column op (column |
literal | ?)`` conjuncts (the paper's workloads are all conjunctive); an
ORDER BY item is a column or an aggregate; an INSERT or SET value is a
literal or ``?``. A SELECT prints as the text the parser reads back."""

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


Value = Union[Literal, Param]


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in a projection list."""

    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


@dataclass(frozen=True)
class BinOp:
    """A WHERE conjunct ``column op (column | literal | ?)``."""

    op: str
    left: ColumnRef
    right: ColumnRef | Value

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    def column_pair(self) -> tuple[ColumnRef, ColumnRef] | None:
        """Both sides column refs (a potential join condition), else None."""
        if isinstance(self.right, ColumnRef):
            return (self.left, self.right)
        return None


@dataclass(frozen=True)
class FuncCall:
    """Aggregate call ``F(column)``; ``arg`` is None for ``COUNT(*)``."""

    name: str
    arg: ColumnRef | None = None

    def __str__(self) -> str:
        return f"{self.name}({'*' if self.arg is None else self.arg})"


Expr = Union[ColumnRef, Literal, Param, FuncCall, Star]


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
    expr: ColumnRef | FuncCall
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.expr} DESC" if self.descending else str(self.expr)


# ---------------------------------------------------------------- statements
@dataclass(frozen=True)
class Select:
    projections: tuple[Star | ColumnRef | FuncCall, ...]
    from_items: tuple[FromItem, ...]
    where: tuple[BinOp, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(map(str, self.projections)))
        parts.append("FROM " + ", ".join(map(str, self.from_items)))
        if self.where:
            parts.append("WHERE " + " and ".join(map(str, self.where)))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(map(str, self.group_by)))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(map(str, self.order_by)))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

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
    values: tuple[Value, ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Value], ...]
    where: tuple[BinOp, ...] = ()


@dataclass(frozen=True)
class Delete:
    table: str
    where: tuple[BinOp, ...] = ()


Statement = Union[Select, Insert, Update, Delete]
