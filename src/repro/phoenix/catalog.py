"""Physical catalog: relations, indexes, views and view-indexes.

Every catalog entry is backed by one HBase table. Row keys are the
delimited concatenation of the entry's key attributes (paper Sec. II-D);
all non-key attributes live in column family ``0`` under their attribute
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import SchemaError
from repro.hbase.bytes_util import encode_key, decode_key
from repro.hbase.cell import Result
from repro.hbase.ops import Put
from repro.relational.datatypes import DataType, decode_value, encode_value
from repro.relational.schema import Index, Relation, Schema

CF = b"0"

DIRTY_QUALIFIER = b"_d"
"""Dirty-marker column written on view rows during update maintenance."""

ROW_MARKER_QUALIFIER = b"_0"
"""Placeholder cell for key-only entries, so the row exists."""

TABLE = "table"
INDEX = "index"
VIEW = "view"
VIEW_INDEX = "view_index"


@dataclass
class CatalogEntry:
    """Metadata for one physical HBase table."""

    name: str
    kind: str
    key_attrs: tuple[str, ...]
    attrs: tuple[str, ...]
    dtypes: dict[str, DataType]
    relation: str | None = None
    base: str | None = None
    """For indexes/view-indexes: the entry name this index covers."""

    view_path: tuple[str, ...] = ()
    """For views/view-indexes: the sequence of relations of the view."""

    indexed_on: tuple[str, ...] = ()
    """For indexes/view-indexes: Xtuple — attrs the index is indexed upon."""

    def __post_init__(self) -> None:
        for a in self.key_attrs:
            if a not in self.dtypes:
                raise SchemaError(f"{self.name}: key attr {a!r} has no dtype")
        for a in self.attrs:
            if a not in self.dtypes:
                raise SchemaError(f"{self.name}: attr {a!r} has no dtype")

    @property
    def value_attrs(self) -> tuple[str, ...]:
        return tuple(a for a in self.attrs if a not in self.key_attrs)

    def has_attribute(self, name: str) -> bool:
        return name in self.dtypes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """``attrs`` under the name a schema ``Relation`` gives it, so a
        FROM name resolved through :class:`CatalogNamespace` answers
        like one resolved through a ``Schema``."""
        return self.attrs

    # -- encode / decode -------------------------------------------------------------
    def key_dtypes(self) -> tuple[DataType, ...]:
        return tuple(self.dtypes[a] for a in self.key_attrs)

    def encode_key(self, row: dict[str, Any]) -> bytes:
        """Missing/None key components encode as NULL (indexes may carry
        NULL key parts, like Phoenix's); statement-level validation
        rejects base-table writes that omit primary-key attributes."""
        values = [row.get(a) for a in self.key_attrs]
        return encode_key(self.key_dtypes(), values)

    def encode_key_values(self, values: Iterable[Any]) -> bytes:
        return encode_key(self.key_dtypes(), values)

    def encode_key_prefix(self, values: list[Any]) -> bytes:
        """Key prefix for the first ``len(values)`` key attributes."""
        dtypes = self.key_dtypes()[: len(values)]
        return encode_key(dtypes, values)

    def decode_key(self, key: bytes) -> dict[str, Any]:
        values = decode_key(self.key_dtypes(), key)
        return dict(zip(self.key_attrs, values))

    def row_to_put(self, row: dict[str, Any]) -> Put:
        """Encode a full relational row as a single-row Put."""
        put = Put(self.encode_key(row))
        for attr in self.value_attrs:
            value = row.get(attr)
            put.add(CF, attr.encode(), encode_value(self.dtypes[attr], value))
        if not self.value_attrs:
            # key-only entries still need one cell so the row exists
            put.add(CF, ROW_MARKER_QUALIFIER, b"")
        return put

    def projection(self) -> list[tuple[bytes, bytes]]:
        """Every column a physical row of this entry can carry — the set
        pushed down into Gets/Scans so the storage engine never merges
        columns the decoder would not read (column-pushdown contract).
        Includes the row marker (key-only entries) and the dirty marker
        (view-maintenance bookkeeping), so results stay byte-identical
        to an unprojected read."""
        cols = [(CF, attr.encode()) for attr in self.value_attrs]
        cols.append((CF, ROW_MARKER_QUALIFIER))
        cols.append((CF, DIRTY_QUALIFIER))
        return cols

    def result_to_row(self, result: Result) -> dict[str, Any]:
        """Decode an HBase Result back into a relational row."""
        row = self.decode_key(result.row)
        for attr in self.value_attrs:
            raw = result.value(CF, attr.encode())
            row[attr] = (
                decode_value(self.dtypes[attr], raw) if raw is not None else None
            )
        return row


class Catalog:
    """All physical entries of one deployed database."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._entries: dict[str, CatalogEntry] = {}
        self._relation_table: dict[str, str] = {}
        self._relation_indexes: dict[str, list[str]] = {}
        self._views: dict[str, str] = {}
        self._view_indexes: dict[str, list[str]] = {}
        self.stats: dict[str, int] = {}
        """entry name -> cached row count (refreshed by ``analyze``)."""

    # -- registration ---------------------------------------------------------------
    def add_entry(self, entry: CatalogEntry) -> CatalogEntry:
        if entry.name in self._entries:
            raise SchemaError(f"duplicate catalog entry {entry.name!r}")
        self._entries[entry.name] = entry
        if entry.kind == TABLE:
            assert entry.relation is not None
            self._relation_table[entry.relation] = entry.name
            self._relation_indexes.setdefault(entry.relation, [])
        elif entry.kind == INDEX:
            assert entry.relation is not None
            self._relation_indexes.setdefault(entry.relation, []).append(entry.name)
        elif entry.kind == VIEW:
            self._views[entry.name] = entry.name
            self._view_indexes.setdefault(entry.name, [])
        elif entry.kind == VIEW_INDEX:
            assert entry.base is not None
            self._view_indexes.setdefault(entry.base, []).append(entry.name)
        else:  # pragma: no cover - guarded by constants
            raise SchemaError(f"unknown entry kind {entry.kind!r}")
        return entry

    # -- lookup ------------------------------------------------------------------------
    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise SchemaError(f"no catalog entry {name!r}") from None

    def has_entry(self, name: str) -> bool:
        return name in self._entries

    def entries(self, kind: str | None = None) -> list[CatalogEntry]:
        if kind is None:
            return list(self._entries.values())
        return [e for e in self._entries.values() if e.kind == kind]

    def table_for_relation(self, relation: str) -> CatalogEntry:
        try:
            return self._entries[self._relation_table[relation]]
        except KeyError:
            raise SchemaError(f"relation {relation!r} has no table") from None

    def indexes_for_relation(self, relation: str) -> list[CatalogEntry]:
        return [self._entries[n] for n in self._relation_indexes.get(relation, ())]

    def views(self) -> list[CatalogEntry]:
        return [self._entries[n] for n in self._views]

    def view(self, name: str) -> CatalogEntry:
        entry = self.entry(name)
        if entry.kind != VIEW:
            raise SchemaError(f"{name!r} is not a view")
        return entry

    def indexes_for_view(self, view_name: str) -> list[CatalogEntry]:
        return [self._entries[n] for n in self._view_indexes.get(view_name, ())]

    def indexes_for(self, entry: CatalogEntry) -> list[CatalogEntry]:
        """Secondary-access entries for a table or view."""
        if entry.kind == TABLE:
            assert entry.relation is not None
            return self.indexes_for_relation(entry.relation)
        if entry.kind == VIEW:
            return self.indexes_for_view(entry.name)
        return []

    def resolve_from_name(self, name: str) -> CatalogEntry:
        """Resolve a FROM-clause name: relation name or view name."""
        if name in self._relation_table:
            return self.table_for_relation(name)
        return self.entry(name)

    def views_containing(self, relation: str) -> list[CatalogEntry]:
        return [v for v in self.views() if relation in v.view_path]

    # -- statistics ------------------------------------------------------------------
    def estimated_rows(self, entry_name: str) -> int:
        return self.stats.get(entry_name, 1_000_000_000)


class CatalogNamespace:
    """Schema-like adapter so the SQL analyzer can resolve FROM names that
    are views (rewritten Synergy queries) as well as base relations."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def has_relation(self, name: str) -> bool:
        try:
            self.catalog.resolve_from_name(name)
            return True
        except SchemaError:
            return False

    def relation(self, name: str) -> CatalogEntry:
        return self.catalog.resolve_from_name(name)
