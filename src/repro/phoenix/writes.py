"""Single-row write execution with base-table index maintenance.

The paper's baseline workload transformation only admits write
statements that specify **every key attribute** (Sec. II-D); we enforce
that here, in :func:`compile_write`, the one reading of a write for all
five systems. A write honours or refuses every column it names: a
column the table lacks — in the INSERT column list, a SET or the WHERE
— is a :class:`SqlError`, as in a read; the WHERE of an UPDATE/DELETE
is key equalities only, so a conjunct on a non-key column is refused
(``UnsupportedStatementError``), never ignored. Each logical write fans
out to the base table plus all its covered indexes (Phoenix-style
global indexes):

* INSERT: one Put per physical table;
* DELETE: read the old row (for index keys), then one Delete each;
* UPDATE: read-modify-write; indexes touching a changed attribute get a
  Delete of the stale entry plus a Put of the fresh one.

Every write carries its row as a *stored row* (``CatalogEntry.stored_row``:
``attr -> encoded bytes``). An INSERT encodes its values once, puts the
same bytes into the base table and every index, and hands them on to
view maintenance. UPDATE and DELETE never decode the old row: only the
SET values are encoded, and the rewritten row and every index key reuse
the stored bytes of the columns left alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import PlanError, SqlError, UnsupportedStatementError, WorkloadError
from repro.hbase.client import HBaseClient
from repro.hbase.ops import Delete as HDelete, Get
from repro.phoenix.catalog import Catalog, CatalogEntry, StoredRow
from repro.sql.ast import (
    ColumnRef,
    Delete,
    Insert,
    Literal,
    Param,
    Select,
    Statement,
    Update,
)


def eval_const(expr: Literal | Param, params: tuple[Any, ...]) -> Any:
    """A write's constant: the parser admits only a literal or ``?`` as
    an INSERT or SET value, and :func:`constant_equalities` refuses a
    column on a WHERE's right side."""
    if isinstance(expr, Literal):
        return expr.value
    return params[expr.index]


def constant_equalities(where) -> dict[str, Any]:
    """``WHERE`` as ``{column: literal-or-parameter expression}``: the
    one reading of "a conjunction of ``column = constant``", which is
    all a single-row write (and VoltDB's write routing) admits."""
    eq: dict[str, Any] = {}
    for cond in where:
        if cond.op != "=" or isinstance(cond.right, ColumnRef):
            raise UnsupportedStatementError(
                f"write WHERE clause must be key-equality only: {cond}"
            )
        eq[cond.left.name] = cond.right
    return eq


def _known_columns(entry, columns) -> None:
    """Refuse, as a read does, a column ``entry`` does not have."""
    unknown = [c for c in columns if c not in entry.attrs]
    if unknown:
        raise SqlError(f"{entry.name}: no column {unknown[0]!r}")


def key_from_where(entry, where, params: tuple[Any, ...]) -> dict[str, Any]:
    """Extract the full primary key of ``entry`` (anything with a
    ``name``, ``attrs`` and ``key_attrs``) from equality conjuncts on
    key attributes; reject statements that might touch multiple rows."""
    eq = {
        col: eval_const(val, params)
        for col, val in constant_equalities(where).items()
    }
    _known_columns(entry, eq)
    non_key = [c for c in eq if c not in entry.key_attrs]
    if non_key:
        raise UnsupportedStatementError(
            f"{entry.name}: write WHERE clause must be key-equality only; "
            f"{non_key[0]!r} is not a key attribute"
        )
    missing = [k for k in entry.key_attrs if k not in eq]
    if missing:
        raise UnsupportedStatementError(
            f"{entry.name}: write must specify all key attributes; "
            f"missing {missing} (multi-row writes are not supported)"
        )
    return eq


@dataclass(frozen=True)
class WritePlan:
    """One single-row write, compiled (the 'plan generator' box of
    Fig. 7): an INSERT carries ``row``, an UPDATE ``key`` + ``changes``,
    a DELETE ``key``."""

    kind: str  # "insert" | "update" | "delete"
    relation: str
    row: dict[str, Any] | None = None
    key: dict[str, Any] | None = None
    changes: dict[str, Any] | None = None

    @property
    def target(self) -> dict[str, Any]:
        """The attribute values that name the written row."""
        return self.row if self.key is None else self.key


def compile_write(entry, stmt: Statement, params: tuple[Any, ...]) -> WritePlan:
    """The one reading of a write statement, for every system. ``entry``
    is the written table: anything with ``name`` / ``attrs`` /
    ``key_attrs`` (a ``CatalogEntry``, a ``VoltTable``). Refuses what no
    single-row write admits — an INSERT whose columns and values differ
    in number or leave a key attribute unbound, a column the table
    lacks, an UPDATE/DELETE whose WHERE is not exactly the full key, a
    non-constant value — before anything is stored."""
    if isinstance(stmt, Insert):
        columns = stmt.columns or entry.attrs
        if len(columns) != len(stmt.values):
            raise WorkloadError(
                f"INSERT {stmt.table}: {len(columns)} columns vs "
                f"{len(stmt.values)} values"
            )
        _known_columns(entry, columns)
        row = {c: eval_const(v, params) for c, v in zip(columns, stmt.values)}
        missing = [k for k in entry.key_attrs if k not in row]
        if missing:
            raise UnsupportedStatementError(
                f"INSERT {stmt.table}: missing key attributes {missing}"
            )
        return WritePlan("insert", stmt.table, row=row)
    if isinstance(stmt, Update):
        _known_columns(entry, (c for c, _ in stmt.assignments))
        return WritePlan(
            "update", stmt.table,
            key=key_from_where(entry, stmt.where, params),
            changes={c: eval_const(v, params) for c, v in stmt.assignments},
        )
    if isinstance(stmt, Delete):
        return WritePlan(
            "delete", stmt.table, key=key_from_where(entry, stmt.where, params)
        )
    raise PlanError(f"not a write statement: {stmt}")


class WriteExecutor:
    """Applies row-level writes to a base table and its indexes."""

    def __init__(self, client: HBaseClient, catalog: Catalog) -> None:
        self.client = client
        self.catalog = catalog

    # -- row-level API (used by loaders and the Synergy procedures) -----------------
    def insert_row(self, relation: str, row: dict[str, Any]) -> StoredRow:
        """Put ``row`` into the base table and every index; returns it as
        stored (each value encoded once), what view maintenance builds
        the view rows from."""
        entry = self.catalog.table_for_relation(relation)
        self._validate_row(entry, row)
        stored = entry.encode_values(row)
        self.client.table(entry.name).put(entry.stored_put(stored))
        for index in self.catalog.indexes_for_relation(relation):
            self.client.table(index.name).put(index.stored_put(stored))
        return stored

    def read_row(self, relation: str, key: dict[str, Any]) -> dict[str, Any] | None:
        entry = self.catalog.table_for_relation(relation)
        result = self.client.table(entry.name).get(Get(entry.encode_key(key)))
        return None if result is None else entry.result_to_row(result)

    def _read_stored(
        self, entry: CatalogEntry, key: dict[str, Any]
    ) -> StoredRow | None:
        """The base row ``key`` names, as stored (the Get of :meth:`read_row`)."""
        result = self.client.table(entry.name).get(Get(entry.encode_key(key)))
        return None if result is None else entry.stored_row(result)

    def delete_row(self, relation: str, key: dict[str, Any]) -> StoredRow | None:
        """Delete base row + index entries; returns the old stored row
        (or None)."""
        entry = self.catalog.table_for_relation(relation)
        old = self._read_stored(entry, key)
        if old is None:
            return None
        self.client.table(entry.name).delete(HDelete(entry.encode_key(key)))
        for index in self.catalog.indexes_for_relation(relation):
            self.client.table(index.name).delete(HDelete(index.stored_key(old)))
        return old

    def update_row(
        self, relation: str, key: dict[str, Any], changes: dict[str, Any]
    ) -> StoredRow | None:
        """Read-modify-write; returns the new stored row, or None when
        absent."""
        entry = self.catalog.table_for_relation(relation)
        old = self._read_stored(entry, key)
        if old is None:
            return None
        new = {**old, **entry.encode_values(changes)}
        self.client.table(entry.name).put(entry.stored_put(new))
        for index in self.catalog.indexes_for_relation(relation):
            if any(attr in index.attrs for attr in changes):
                old_key = index.stored_key(old)
                new_key = index.stored_key(new)
                if old_key != new_key:
                    self.client.table(index.name).delete(HDelete(old_key))
                self.client.table(index.name).put(index.stored_put(new))
        return new

    # -- statement-level API --------------------------------------------------------
    def compile(self, stmt: Statement, params: tuple[Any, ...]) -> WritePlan:
        """:func:`compile_write`, and an UPDATE of a key attribute refused."""
        if isinstance(stmt, Select):
            raise PlanError(f"not a write statement: {stmt}")
        entry = self.catalog.table_for_relation(stmt.table)
        plan = compile_write(entry, stmt, tuple(params))
        for attr in plan.changes or ():
            if attr in entry.key_attrs:
                raise UnsupportedStatementError(
                    f"{plan.relation}: key attribute {attr!r} cannot be updated"
                )
        return plan

    # -- helpers -----------------------------------------------------------------------
    @staticmethod
    def _validate_row(entry: CatalogEntry, row: dict[str, Any]) -> None:
        unknown = [a for a in row if a not in entry.dtypes]
        if unknown:
            raise WorkloadError(f"{entry.name}: unknown attributes {unknown}")
