"""Read results."""

from __future__ import annotations

from typing import Any, Callable, Iterable


class Result:
    """Result of a Get or one Scan row: newest-first versions per column.

    The result of a *plain* row (``store.row_result``) read from an
    immutable HFile borrows the stored entry's own cell map instead of
    copying it. Methods that read keys and newest values read that view
    in place; whatever edits the result or hands out a version list
    (``versions``, ``_cells`` itself) goes through ``_cells``, which
    first detaches a private one-version copy, so no caller can reach a
    stored list through a result.
    """

    __slots__ = ("row", "_view", "_borrowed", "_summary")
    # _view: (family, qualifier) -> [(timestamp, value)] newest first;
    # _borrowed: _view belongs to an HFile's row entry; _summary: (cells,
    # sum of len(family) + len(qualifier) + len(value)) of what _view
    # shows, once known, forgotten when _view may change; a plain row's
    # is its entry's, whose third field (the cover's set) is not read here

    @classmethod
    def from_sorted(
        cls,
        row: bytes,
        cells: dict[tuple[bytes, bytes], list[tuple[int, bytes]]],
    ) -> "Result":
        """Adopt a merged cell dict whose version lists are already
        newest-first and the caller's to give away."""
        result = cls.__new__(cls)
        result.row = row
        result._view = cells
        result._borrowed = False
        result._summary = None
        return result

    @property
    def _cells(self) -> dict[tuple[bytes, bytes], list[tuple[int, bytes]]]:
        """The result's own cell map, free to edit: a borrowed view is
        copied on first touch, and the remembered size is dropped
        because the caller may change what it was the size of."""
        if self._borrowed:
            self._view = {key: versions[:1] for key, versions in self._view.items()}
            self._borrowed = False
        self._summary = None
        return self._view

    @property
    def is_empty(self) -> bool:
        return not self._view

    @property
    def column_count(self) -> int:
        """``len(columns())`` without the sort."""
        return len(self._view)

    def value(self, family: bytes, qualifier: bytes) -> bytes | None:
        """Newest version's value, or None when the column is absent."""
        versions = self._view.get((family, qualifier))
        return versions[0][1] if versions else None

    def newest_into(
        self,
        row: dict[Any, Any] | list[Any],
        slots: Iterable[tuple[Any, tuple[bytes, bytes], Callable[[bytes | None], Any]]],
    ) -> None:
        """``row[key] = decode(newest value of column)`` for each
        ``(key, column, decode)`` of ``slots``, an absent column
        decoding ``None``: how a row decoder fills its slot list."""
        get = self._view.get
        for key, column, decode in slots:
            versions = get(column)
            row[key] = decode(versions[0][1] if versions else None)

    def newest_bytes_into(
        self,
        row: dict[Any, bytes],
        slots: Iterable[tuple[Any, tuple[bytes, bytes]]],
    ) -> None:
        """``row[key] = newest value of column`` for each ``(key,
        column)`` of ``slots``, ``b""`` for an absent column: the stored
        bytes themselves, undecoded (``CatalogEntry.stored_row``)."""
        get = self._view.get
        for key, column in slots:
            versions = get(column)
            row[key] = versions[0][1] if versions else b""

    def versions(self, family: bytes, qualifier: bytes) -> list[tuple[int, bytes]]:
        return list(self._cells.get((family, qualifier), ()))

    @property
    def size_bytes(self) -> int:
        """Wire size: every cell shown pays the row key, 8 bytes of
        framing, its column name and its value. Summed once, then O(1)."""
        summary = self._summary
        if summary is None:
            count = payload = 0
            for (family, qualifier), versions in self._view.items():
                count += len(versions)
                name = len(family) + len(qualifier)
                for _, value in versions:
                    payload += name + len(value)
            summary = self._summary = (count, payload)
        return summary[1] + summary[0] * (len(self.row) + 8)
