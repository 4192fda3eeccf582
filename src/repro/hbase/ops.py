"""Client-side operation descriptors (the five HBase primitives).

A put carries its cells as ``(column, value, timestamp)`` triples
(:data:`Cell`): the column is a ``(family, qualifier)`` key built once,
by :meth:`Put.add` or by the writer that interns its keys
(``CatalogEntry.stored_put``), and the same key object travels through
the WAL entry into the memstore's head dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hbase.cell import CellKey
from repro.hbase.wal import WalEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.hbase.filters import FilterBase

Cell = tuple[CellKey, bytes, int | None]
"""``(column, value, timestamp)``; ``None`` takes the server's stamp."""


class Put:
    """Single-row write: one or more cell values (optionally timestamped)."""

    __slots__ = ("row", "cells", "timestamp")

    def __init__(self, row: bytes, timestamp: int | None = None) -> None:
        self.row = row
        self.timestamp = timestamp
        self.cells: list[Cell] = []

    def add(
        self,
        family: bytes,
        qualifier: bytes,
        value: bytes,
        timestamp: int | None = None,
    ) -> "Put":
        if timestamp is None:
            timestamp = self.timestamp
        self.cells.append(((family, qualifier), value, timestamp))
        return self

    def wal_entry(self, region_name: str, ts: int) -> WalEntry:
        """This put as logged under ``region_name`` at server time ``ts``
        (its cells copied into a tuple: a logged entry is immutable)."""
        return WalEntry(region_name, "put", self.row, tuple(self.cells), ts)


class Get:
    """Single-row read, optionally restricted to specific columns."""

    __slots__ = ("row", "columns", "max_versions", "time_range")

    def __init__(
        self,
        row: bytes,
        columns: list[tuple[bytes, bytes]] | None = None,
        max_versions: int = 1,
        time_range: tuple[int, int] | None = None,
    ) -> None:
        if max_versions < 1:
            raise ValueError(f"Get.max_versions must be >= 1, got {max_versions}")
        self.row = row
        self.columns = columns
        self.max_versions = max_versions
        self.time_range = time_range


class Delete:
    """Single-row delete: a whole-row tombstone."""

    __slots__ = ("row",)

    def __init__(self, row: bytes) -> None:
        self.row = row

    def wal_entry(self, region_name: str, ts: int) -> WalEntry:
        """This delete as logged under ``region_name`` at server time ``ts``."""
        return WalEntry(region_name, "delete", self.row, None, ts)


@dataclass
class Scan:
    """Range scan: ``[start_row, stop_row)`` with an optional filter."""

    start_row: bytes = b""
    stop_row: bytes | None = None
    filter: "FilterBase | None" = None
    max_versions: int = 1
    time_range: tuple[int, int] | None = None
    columns: list[tuple[bytes, bytes]] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.max_versions < 1:
            raise ValueError(f"Scan.max_versions must be >= 1, got {self.max_versions}")
