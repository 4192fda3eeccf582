"""Cells and read results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True, order=True)
class Cell:
    """One versioned cell: (row, family, qualifier, timestamp, value).

    Ordering follows HBase: by row, family, qualifier, then *descending*
    timestamp (we store ``-timestamp`` in the sort key to get that).
    """

    row: bytes
    family: bytes
    qualifier: bytes
    timestamp: int
    value: bytes = field(compare=False)

    @property
    def size_bytes(self) -> int:
        return len(self.row) + len(self.family) + len(self.qualifier) + 8 + len(self.value)


class Result:
    """Result of a Get or one Scan row: newest-first versions per column."""

    __slots__ = ("row", "_cells")

    def __init__(self, row: bytes) -> None:
        self.row = row
        # (family, qualifier) -> list[(timestamp, value)] newest first
        self._cells: dict[tuple[bytes, bytes], list[tuple[int, bytes]]] = {}

    @classmethod
    def from_sorted(
        cls,
        row: bytes,
        cells: dict[tuple[bytes, bytes], list[tuple[int, bytes]]],
    ) -> "Result":
        """Adopt a merged cell dict whose version lists are already
        newest-first (the streaming scanner's zero-copy constructor)."""
        result = cls.__new__(cls)
        result.row = row
        result._cells = cells
        return result

    def add(self, family: bytes, qualifier: bytes, timestamp: int, value: bytes) -> None:
        """Ordered insert, by the store's rule: newest first, after
        any version of the same timestamp."""
        versions = self._cells.setdefault((family, qualifier), [])
        at = 0
        while at < len(versions) and versions[at][0] >= timestamp:
            at += 1
        versions.insert(at, (timestamp, value))

    @property
    def is_empty(self) -> bool:
        return not self._cells

    @property
    def column_count(self) -> int:
        """``len(columns())`` without the sort."""
        return len(self._cells)

    def columns(self) -> list[tuple[bytes, bytes]]:
        return sorted(self._cells)

    def value(self, family: bytes, qualifier: bytes) -> bytes | None:
        """Newest version's value, or None when the column is absent."""
        versions = self._cells.get((family, qualifier))
        return versions[0][1] if versions else None

    def newest_values(
        self, columns: Iterable[tuple[bytes, bytes]]
    ) -> list[bytes | None]:
        """:meth:`value` of each of ``columns``, in order."""
        get = self._cells.get
        return [
            versions[0][1] if (versions := get(column)) else None
            for column in columns
        ]

    def versions(self, family: bytes, qualifier: bytes) -> list[tuple[int, bytes]]:
        return list(self._cells.get((family, qualifier), ()))

    def cells(self) -> list[Cell]:
        out = []
        for (family, qualifier), versions in sorted(self._cells.items()):
            for ts, value in versions:
                out.append(Cell(self.row, family, qualifier, ts, value))
        return out

    def to_dict(self, family: bytes) -> dict[bytes, bytes]:
        """{qualifier: newest value} for one family."""
        return {
            q: versions[0][1]
            for (f, q), versions in self._cells.items()
            if f == family and versions
        }

    @property
    def size_bytes(self) -> int:
        base_row = len(self.row) + 8
        total = 0
        for (family, qualifier), versions in self._cells.items():
            base = base_row + len(family) + len(qualifier)
            for _, value in versions:
                total += base + len(value)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Result(row={self.row!r}, ncols={len(self._cells)})"
