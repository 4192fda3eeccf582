"""Write-ahead log for a region server.

Every mutation is appended before it reaches the memstore (one HDFS
sync per region group, charged by ``RegionServer.mutate``); entries are
truncated per region when its memstore flushes, and replayed with
``Region.apply`` on recovery after a simulated region-server crash.
A put's entry logs its cells as one tuple of ``(column, value, ts)``
triples (``ops.Cell``) that shares the Put's column keys, so the keys
the memstore stores are the ones the writer interned.
"""

from __future__ import annotations

from typing import Any


class WalEntry:
    """One logged mutation. A ``__slots__`` class with a plain
    positional constructor: one is appended on every write, so
    construction cost matters (≈2x cheaper than a NamedTuple), and
    unlike a ``tuple.__new__`` bypass it stays correct if fields are
    ever added. Treated as immutable once logged."""

    __slots__ = ("region_name", "kind", "row", "payload", "timestamp")

    def __init__(
        self,
        region_name: str,
        kind: str,  # "put" | "delete"
        row: bytes,
        payload: Any,  # put: the Put's cells, a tuple of
        # ((family, qualifier), value, ts) sharing the Put's column keys;
        # delete: None (a delete is a whole-row tombstone)
        timestamp: int,
    ) -> None:
        self.region_name = region_name
        self.kind = kind
        self.row = row
        self.payload = payload
        self.timestamp = timestamp


class _TapBuffer(list):
    """A per-region WAL buffer with a replication tap: every entry
    appended is also pushed to the tap callback (the primary-side feed
    of a replication group's ship log). A ``list`` subclass, so only
    regions with a tap installed ever pay the extra call."""

    __slots__ = ("_tap",)

    def __init__(self, tap, initial=()) -> None:
        super().__init__(initial)
        self._tap = tap

    def append(self, entry: WalEntry) -> None:
        list.append(self, entry)
        self._tap(entry)


class WriteAheadLog:
    """Per-server WAL with per-region truncation."""

    def __init__(self) -> None:
        self._entries: dict[str, list[WalEntry]] = {}
        self._taps: dict[str, Any] = {}
        self.total_appends = 0

    def _new_buffer(self, region_name: str) -> list[WalEntry]:
        tap = self._taps.get(region_name)
        return [] if tap is None else _TapBuffer(tap)

    def append(self, entry: WalEntry) -> None:
        per_region = self._entries.get(entry.region_name)
        if per_region is None:
            per_region = self._entries[entry.region_name] = (
                self._new_buffer(entry.region_name)
            )
        per_region.append(entry)
        self.total_appends += 1

    # -- replication taps ------------------------------------------------------
    def install_tap(self, region_name: str, tap) -> None:
        """Feed every future append under ``region_name`` to ``tap``
        (entries already buffered are NOT replayed — the installer owns
        catching a follower up from the region's current state). The
        tap survives flush truncation: a fresh buffer created after
        :meth:`truncate` is tapped again."""
        self._taps[region_name] = tap
        existing = self._entries.get(region_name)
        if existing is not None and not isinstance(existing, _TapBuffer):
            self._entries[region_name] = _TapBuffer(tap, existing)

    def remove_tap(self, region_name: str) -> None:
        self._taps.pop(region_name, None)
        existing = self._entries.get(region_name)
        if isinstance(existing, _TapBuffer):
            self._entries[region_name] = list(existing)

    def entries_for(self, region_name: str) -> list[WalEntry]:
        return list(self._entries.get(region_name, ()))

    def entries_for_range(
        self,
        region_name: str,
        start: bytes,
        stop: bytes | None,
    ) -> list[WalEntry]:
        """Entries logged under ``region_name`` whose row falls in
        ``[start, stop)`` — how a region that split since the write
        recovers its half of an ancestor's log."""
        return [
            e
            for e in self._entries.get(region_name, ())
            if e.row >= start and (stop is None or e.row < stop)
        ]

    def truncate(self, region_name: str) -> None:
        """Discard entries persisted by a memstore flush."""
        self._entries.pop(region_name, None)

    def truncate_range(
        self,
        region_name: str,
        start: bytes,
        stop: bytes | None,
    ) -> None:
        """Drop the ``[start, stop)`` slice of one region's buffer: when
        a daughter region flushes, the rows it just persisted must also
        leave the log its split ancestors wrote them to."""
        buffer = self._entries.get(region_name)
        if not buffer:
            return
        kept = [
            e
            for e in buffer
            if e.row < start or (stop is not None and e.row >= stop)
        ]
        if kept:
            tap = self._taps.get(region_name)
            # rebuild without re-tapping: the kept entries were already
            # fed to the tap when they were first appended
            self._entries[region_name] = (
                kept if tap is None else _TapBuffer(tap, kept)
            )
        else:
            del self._entries[region_name]

    def clear(self) -> None:
        """Drop every buffered entry (server restart after failover:
        the old log was already replayed — or abandoned — elsewhere).
        Replication taps are dropped too — a restarted server hosts
        nothing, so any tap left here points at a region that was
        promoted or recovered onto another server's log.
        ``total_appends`` is lifetime accounting and survives."""
        self._entries = {}
        self._taps = {}
