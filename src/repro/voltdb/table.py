"""In-memory VoltDB tables with hash secondary indexes."""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import SchemaError
from repro.relational.datatypes import value_size_bytes
from repro.relational.schema import Relation


class VoltTable:
    """Row store keyed by primary key, with per-attribute hash indexes."""

    def __init__(self, relation: Relation, row_overhead_bytes: int = 8) -> None:
        self.relation = relation
        self.name = relation.name
        self.key_attrs = tuple(relation.primary_key)
        self.attrs = tuple(relation.attribute_names)
        self.rows: dict[tuple, dict[str, Any]] = {}
        self._indexes: dict[str, dict[Any, set[tuple]]] = {}
        self.row_overhead_bytes = row_overhead_bytes
        self.size_bytes = 0

    # -- indexes ------------------------------------------------------------------
    def create_index(self, attr: str) -> None:
        if not self.relation.has_attribute(attr):
            raise SchemaError(f"{self.name}: no attribute {attr!r}")
        if attr in self._indexes:
            return
        index: dict[Any, set[tuple]] = {}
        for key, row in self.rows.items():
            index.setdefault(row.get(attr), set()).add(key)
        self._indexes[attr] = index

    def has_index(self, attr: str) -> bool:
        return attr in self._indexes or (
            len(self.key_attrs) >= 1 and attr == self.key_attrs[0]
        )

    # -- mutations -----------------------------------------------------------------
    def _key_of(self, row: dict[str, Any]) -> tuple:
        try:
            return tuple(row[a] for a in self.key_attrs)
        except KeyError as e:
            raise SchemaError(f"{self.name}: missing key attribute {e}") from None

    def _row_size(self, row: dict[str, Any]) -> int:
        total = self.row_overhead_bytes
        for attr in self.relation.attribute_names:
            total += value_size_bytes(
                self.relation.dtype_of(attr), row.get(attr)
            )
        return total

    def insert(self, row: dict[str, Any]) -> None:
        key = self._key_of(row)
        old = self.rows.get(key)
        if old is not None:
            self._unindex(key, old)
            self.size_bytes -= self._row_size(old)
        # every attribute, NULL when the write left it out: a reader
        # takes a row's attributes with one getter
        stored = {a: row.get(a) for a in self.attrs}
        self.rows[key] = stored
        self.size_bytes += self._row_size(stored)
        for attr, index in self._indexes.items():
            index.setdefault(stored.get(attr), set()).add(key)

    def delete(self, key: tuple) -> bool:
        old = self.rows.pop(key, None)
        if old is None:
            return False
        self._unindex(key, old)
        self.size_bytes -= self._row_size(old)
        return True

    def update(self, key: tuple, changes: dict[str, Any]) -> bool:
        old = self.rows.get(key)
        if old is None:
            return False
        new = dict(old)
        new.update(changes)
        self._unindex(key, old)
        self.size_bytes += self._row_size(new) - self._row_size(old)
        self.rows[key] = new
        for attr, index in self._indexes.items():
            index.setdefault(new.get(attr), set()).add(key)
        return True

    def _unindex(self, key: tuple, row: dict[str, Any]) -> None:
        for attr, index in self._indexes.items():
            bucket = index.get(row.get(attr))
            if bucket is not None:
                bucket.discard(key)

    # -- reads ---------------------------------------------------------------------
    def lookup(self, attr: str, value: Any) -> Iterator[dict[str, Any]]:
        """Index (or PK-prefix) equality lookup."""
        if attr in self._indexes:
            for key in self._indexes[attr].get(value, ()):
                yield self.rows[key]
            return
        if attr == self.key_attrs[0] and len(self.key_attrs) == 1:
            row = self.rows.get((value,))
            if row is not None:
                yield row
            return
        for row in self.rows.values():  # unindexed fallback scan
            if row.get(attr) == value:
                yield row

    def scan(self) -> Iterator[dict[str, Any]]:
        yield from self.rows.values()
