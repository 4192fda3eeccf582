"""Read results, and the newest-image shape they share with row entries."""

from __future__ import annotations

from typing import Any, Callable, Iterable

CellKey = tuple[bytes, bytes]
Version = tuple[int, bytes]

NO_HISTORY: dict[CellKey, list[Version]] = {}
"""The history of a row or result whose every column has one version:
one shared empty map, never written."""


def newest_image(
    cells: dict[CellKey, list[Version]],
) -> tuple[dict[CellKey, Version], dict[CellKey, list[Version]]]:
    """Split newest-first version lists into the newest image (each
    column's first version) and the history (the whole list of each
    column holding more than one). The lists are adopted, not copied."""
    head = {key: versions[0] for key, versions in cells.items()}
    history = {key: versions for key, versions in cells.items() if len(versions) > 1}
    return head, history or NO_HISTORY


class Result:
    """Result of a Get or one Scan row: the newest version of each column
    shown, plus the newest-first list of each column showing more.

    A Result never changes and hands out no stored object. The head of a
    *plain* row (``store.row_result``) is the stored entry's own head
    dict, lent copy-on-write: the entry writes a copy once it has lent
    one, so the Result keeps reading what it read. Everything else is
    the Result's own, and ``cells`` returns fresh lists.
    """

    __slots__ = ("row", "_head", "_history", "_summary")
    # _summary: (cells, sum of len(family) + len(qualifier) + len(value))
    # over every version shown, once known

    def __init__(
        self,
        row: bytes,
        head: dict[CellKey, Version],
        history: dict[CellKey, list[Version]] = NO_HISTORY,
        summary: tuple[int, int] | None = None,
    ) -> None:
        self.row = row
        self._head = head
        self._history = history
        self._summary = summary

    @classmethod
    def from_sorted(cls, row: bytes, cells: dict[CellKey, list[Version]]) -> "Result":
        """Adopt a merged cell dict whose version lists are non-empty,
        already newest-first and the caller's to give away."""
        return cls(row, *newest_image(cells))

    @property
    def cells(self) -> dict[CellKey, list[Version]]:
        """Every version shown, ``{(family, qualifier): [(timestamp,
        value), ...]}`` newest first: a fresh dict of fresh lists."""
        history = self._history
        return {
            key: list(history.get(key, (newest,)))
            for key, newest in self._head.items()
        }

    @property
    def is_empty(self) -> bool:
        return not self._head

    @property
    def column_count(self) -> int:
        """The number of columns shown."""
        return len(self._head)

    def value(self, family: bytes, qualifier: bytes) -> bytes | None:
        """Newest version's value, or None when the column is absent."""
        newest = self._head.get((family, qualifier))
        return newest[1] if newest else None

    def newest_into(
        self,
        row: dict[Any, Any] | list[Any],
        slots: Iterable[tuple[Any, CellKey, Callable[[bytes | None], Any]]],
    ) -> None:
        """``row[key] = decode(newest value of column)`` for each
        ``(key, column, decode)`` of ``slots``, an absent column
        decoding ``None``: how a row decoder fills its slot list."""
        get = self._head.get
        for key, column, decode in slots:
            newest = get(column)
            row[key] = decode(newest[1] if newest else None)

    def newest_bytes_into(
        self,
        row: dict[Any, bytes],
        slots: Iterable[tuple[Any, CellKey]],
    ) -> None:
        """``row[key] = newest value of column`` for each ``(key,
        column)`` of ``slots``, ``b""`` for an absent column: the stored
        bytes themselves, undecoded (``CatalogEntry.stored_row``)."""
        get = self._head.get
        for key, column in slots:
            newest = get(column)
            row[key] = newest[1] if newest else b""

    @property
    def size_bytes(self) -> int:
        """Wire size: every cell shown pays the row key, 8 bytes of
        framing, its column name and its value. Summed once, then O(1)."""
        summary = self._summary
        if summary is None:
            count, payload = len(self._head), 0
            for (family, qualifier), newest in self._head.items():
                payload += len(family) + len(qualifier) + len(newest[1])
            for (family, qualifier), versions in self._history.items():
                count += len(versions) - 1
                name = len(family) + len(qualifier)
                for _, value in versions[1:]:
                    payload += name + len(value)
            summary = self._summary = (count, payload)
        return summary[1] + summary[0] * (len(self.row) + 8)
