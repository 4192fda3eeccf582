"""Physical catalog: relations, indexes, views and view-indexes.

Every catalog entry is backed by one HBase table. Row keys are the
delimited concatenation of the entry's key attributes (paper Sec. II-D);
all non-key attributes live in column family ``0`` under their attribute
name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Container, Iterable

from repro.errors import SchemaError
from repro.hbase.bytes_util import encode_key, join_key, split_key
from repro.hbase.cell import Result
from repro.hbase.ops import Put
from repro.relational.datatypes import DataType, value_decoder, value_encoder
from repro.relational.schema import Schema

CF = b"0"

DIRTY_QUALIFIER = b"_d"
"""Dirty-marker column written on view rows during update maintenance."""

ROW_MARKER_QUALIFIER = b"_0"
"""Placeholder cell for key-only entries, so the row exists."""

_ROW_MARKER_CELL = ((CF, ROW_MARKER_QUALIFIER), b"", None)

RowDecoder = Callable[[Result], tuple[Any, ...]]
"""``Result -> (value, ...)``, one value per decoded attribute."""

TABLE = "table"
INDEX = "index"
VIEW = "view"
VIEW_INDEX = "view_index"

StoredRow = dict[str, bytes]
"""``attr -> encoded bytes``: a row as stored, key components unescaped;
``b""`` is NULL (and an absent cell). What read-modify-write carries."""


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
        # derived once: an entry does not change after construction
        keys = set(self.key_attrs)
        # ``attrs`` that are not part of the key, in ``attrs`` order
        self.value_attrs = tuple(a for a in self.attrs if a not in keys)
        self._key_dtypes = tuple(self.dtypes[a] for a in self.key_attrs)
        # each value attribute's column key, built once: every put, read
        # and decoder of this entry hands the store these very objects
        self._value_columns = tuple(
            (a, (CF, a.encode()), self.dtypes[a]) for a in self.value_attrs
        )
        self._encoders = {
            a: value_encoder(self.dtypes[a]) for a in (*self.key_attrs, *self.attrs)
        }
        self._stored_slots = tuple((a, key) for a, key, _ in self._value_columns)
        self._projection = frozenset((
            *(key for _, key in self._stored_slots),
            (CF, ROW_MARKER_QUALIFIER),
            (CF, DIRTY_QUALIFIER),
        ))
        self._decoders: dict[
            frozenset[str] | None, tuple[tuple[str, ...], RowDecoder]
        ] = {}

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """``attrs`` under the name a schema ``Relation`` gives it, so a
        FROM name resolved through :class:`CatalogNamespace` answers
        like one resolved through a ``Schema``."""
        return self.attrs

    # -- encode / decode -------------------------------------------------------------
    def encode_key(self, row: dict[str, Any]) -> bytes:
        """Missing/None key components encode as NULL (indexes may carry
        NULL key parts, like Phoenix's); statement-level validation
        rejects base-table writes that omit primary-key attributes."""
        values = [row.get(a) for a in self.key_attrs]
        return encode_key(self._key_dtypes, values)

    def encode_key_values(self, values: Iterable[Any]) -> bytes:
        return encode_key(self._key_dtypes, values)

    def encode_key_prefix(self, values: list[Any]) -> bytes:
        """Key prefix for the first ``len(values)`` key attributes."""
        return encode_key(self._key_dtypes[: len(values)], values)

    # -- stored rows: writes without a decode ------------------------------------
    def stored_row(self, result: Result) -> StoredRow:
        """``result`` as a :data:`StoredRow`: the key components, then
        every value attribute's newest cell (``b""`` when absent), in the
        order of :meth:`result_to_row`. Nothing is decoded."""
        parts = split_key(result.row)
        if len(parts) != len(self.key_attrs):
            raise ValueError(
                f"key arity mismatch: {len(parts)} components, "
                f"{len(self.key_attrs)} types"
            )
        row = dict(zip(self.key_attrs, parts))
        result.newest_bytes_into(row, self._stored_slots)
        return row

    def encode_values(self, values: dict[str, Any]) -> StoredRow:
        """``values`` encoded with this entry's column encoders; an
        attribute the entry lacks is left out."""
        encoders = self._encoders
        return {a: encoders[a](v) for a, v in values.items() if a in encoders}

    def stored_key(self, row: StoredRow) -> bytes:
        """The row key of ``row``: byte-equal to :meth:`encode_key` of
        its decoded values."""
        get = row.get
        return join_key([get(a, b"") for a in self.key_attrs])

    def stored_put(
        self, row: StoredRow, changed: Container[str] | None = None
    ) -> Put:
        """The single-row Put of ``row``: one cell per value attribute
        in ``changed`` (every one when ``None``), in ``attrs`` order,
        each value the stored object (``b""`` when absent) under the
        entry's interned column key, so the store neither builds nor
        compares a key. A rewrite that keeps the row key passes its SET
        attributes, so it stores only the cells it changes (as an HBase
        Put stores only the cells it names); an entry holding none of
        them gets the whole row, so the rewrite is still one Put. A
        key-only entry gets the row marker, so the row exists."""
        put = Put(self.stored_key(row))
        get = row.get
        slots = self._stored_slots
        if changed is not None:
            slots = [slot for slot in slots if slot[0] in changed] or slots
        put.cells = [
            (key, get(attr, b""), None) for attr, key in slots
        ] or [_ROW_MARKER_CELL]
        return put

    def projection(self) -> frozenset[tuple[bytes, bytes]]:
        """Every column a physical row of this entry can carry — the set
        pushed down into Gets/Scans (the *storage projection*: what the
        storage engine merges, sizes and charges). Includes the row
        marker (key-only entries) and the dirty marker (view-maintenance
        bookkeeping), so results stay byte-identical to an unprojected
        read. One frozenset per entry, so the store tests a row's cover
        once (``store.row_result``). What is then *decoded* out of a
        result is narrower and plan-driven: see :meth:`row_decoder`."""
        return self._projection

    def row_decoder(
        self, needed: frozenset[str] | None = None
    ) -> tuple[tuple[str, ...], RowDecoder]:
        """``(attrs, decode)`` for the decode set ``needed`` (``None`` =
        every attribute), compiled once and cached. ``decode`` turns a
        result into the tuple of the values of ``attrs``: the needed key
        attributes in key order, then the needed value attributes in
        ``attrs`` order (a needed name the entry lacks is not among
        them). An absent cell or an empty value decodes to ``None``."""
        compiled = self._decoders.get(needed)
        if compiled is None:
            compiled = self._decoders[needed] = self._compile_decoder(needed)
        return compiled

    def _compile_decoder(
        self, needed: frozenset[str] | None
    ) -> tuple[tuple[str, ...], RowDecoder]:
        every = needed is None
        keys = [(i, a) for i, a in enumerate(self.key_attrs) if every or a in needed]
        values = [c for c in self._value_columns if every or c[0] in needed]
        attrs = tuple(a for _, a in keys) + tuple(a for a, _, _ in values)
        # slot j of a row holds attrs[j]
        key_slots = tuple(
            (slot, i, value_decoder(self.dtypes[a]))
            for slot, (i, a) in enumerate(keys)
        )
        value_slots = tuple(
            (slot, key, value_decoder(dtype))
            for slot, (_, key, dtype) in enumerate(values, len(keys))
        )
        arity = len(self.key_attrs)
        width = len(attrs)

        def decode(result: Result) -> tuple[Any, ...]:
            row: list[Any] = [None] * width
            if key_slots:
                parts = split_key(result.row)
                if len(parts) != arity:
                    raise ValueError(
                        f"key arity mismatch: {len(parts)} components, "
                        f"{arity} types"
                    )
                for slot, i, decode_part in key_slots:
                    row[slot] = decode_part(parts[i])
            result.newest_into(row, value_slots)
            return tuple(row)

        return attrs, decode

    def result_to_row(self, result: Result) -> dict[str, Any]:
        """Decode an HBase Result back into a full relational row."""
        attrs, decode = self.row_decoder()
        return dict(zip(attrs, decode(result)))


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

    def entries(self) -> list[CatalogEntry]:
        return list(self._entries.values())

    def table_for_relation(self, relation: str) -> CatalogEntry:
        try:
            return self._entries[self._relation_table[relation]]
        except KeyError:
            raise SchemaError(f"relation {relation!r} has no table") from None

    def indexes_for_relation(self, relation: str) -> list[CatalogEntry]:
        return [self._entries[n] for n in self._relation_indexes.get(relation, ())]

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
