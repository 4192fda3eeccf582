"""A region: one key range of a table, with memstore + HFiles + size stats."""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Iterator

from repro.errors import RegionSplitError, RegionUnavailableError
from repro.hbase.cell import Result
from repro.hbase.ops import Cell
from repro.hbase.store import (
    CellKey,
    HFile,
    MemStore,
    RegionScanner,
    RowEntry,
    row_result,
)
from repro.hbase.wal import WalEntry

HFILE_FLUSH_THRESHOLD_ROWS = 50_000
"""Memstore rows at which a region server flushes a region to an HFile."""


class Region:
    """Hosts rows with ``start_key <= row < end_key`` (empty bounds = open)."""

    _seq = 0  # process-wide region id (names stay unique across splits)

    def __init__(
        self,
        table_name: str,
        start_key: bytes,
        end_key: bytes | None,
        max_versions: int = 1,
        kv_overhead_bytes: int = 24,
        flush_threshold_rows: int = HFILE_FLUSH_THRESHOLD_ROWS,
        split_threshold_bytes: int | None = None,
        wal_ancestry: tuple[str, ...] = (),
    ) -> None:
        Region._seq += 1
        self.region_id = Region._seq
        self.table_name = table_name
        self.start_key = start_key
        self.end_key = end_key
        self.max_versions = max_versions
        self.kv_overhead_bytes = kv_overhead_bytes
        self.flush_threshold_rows = flush_threshold_rows
        self.split_threshold_bytes = split_threshold_bytes
        self.wal_ancestry = wal_ancestry
        """Names of the regions this one inherited unflushed data from
        (split parents, pre-recovery incarnations): WAL entries recorded
        under those names are routed here by key range on flush
        truncation and on crash replay."""
        self.memstore = MemStore()
        self.hfiles: list[HFile] = []
        self.online = True
        self.split_daughters: "tuple[Region, Region] | None" = None
        self.name = f"{table_name},{start_key.hex() or '-'},{self.region_id}"
        self._approx_size_bytes = 0

    # -- bookkeeping -----------------------------------------------------------
    def _check_online(self) -> None:
        if not self.online:
            raise RegionUnavailableError(f"region {self.name} is offline")

    def contains(self, row: bytes) -> bool:
        if row < self.start_key:
            return False
        return self.end_key is None or row < self.end_key

    @property
    def approx_size_bytes(self) -> int:
        return self._approx_size_bytes

    # -- writes ---------------------------------------------------------------
    def apply(self, entry: WalEntry) -> None:
        """Apply one logged mutation: the one way a WAL entry reaches a
        region, on the live write path, in crash replay, in follower
        shipping and in promotion. Idempotent: an entry carries its
        original timestamp, so re-applying it rewrites the same version."""
        if entry.kind == "put":
            self.put_row(entry.row, entry.payload, entry.timestamp)
        else:
            self.delete_row(entry.row, entry.timestamp)

    def put_row(
        self,
        row: bytes,
        cells: list[Cell] | tuple[Cell, ...],
        default_ts: int,
    ) -> None:
        """Apply one Put's ``(column, value, ts)`` cells; caller provides
        the server timestamp."""
        self._check_online()
        self._approx_size_bytes += self.memstore.apply_put(
            row, cells, default_ts, len(row) + self.kv_overhead_bytes
        )

    def delete_row(self, row: bytes, ts: int) -> None:
        """Write a whole-row tombstone at ``ts`` into the memstore."""
        self._check_online()
        self.memstore.entry(row, create=True).delete_row(ts)

    # -- reads -----------------------------------------------------------------
    def _sources_for(self, row: bytes) -> list[RowEntry]:
        sources: list[RowEntry] = []
        mem = self.memstore.entry(row)
        if mem is not None:
            sources.append(mem)
        for hfile in reversed(self.hfiles):  # newest flush first
            e = hfile.entry(row)
            if e is not None:
                sources.append(e)
        return sources

    def read_row(
        self,
        row: bytes,
        columns: list[tuple[bytes, bytes]] | None = None,
        max_versions: int = 1,
        time_range: tuple[int, int] | None = None,
    ) -> Result | None:
        """Visible cells of one row, or None if absent/deleted."""
        self._check_online()
        sources = self._sources_for(row)
        if not sources:
            return None
        wanted = frozenset(columns) if columns else None
        return row_result(row, sources, max_versions, time_range, wanted)

    def scan(
        self,
        start: bytes | None = None,
        stop: bytes | None = None,
        columns: frozenset[CellKey] | None = None,
        max_versions: int = 1,
        time_range: tuple[int, int] | None = None,
    ) -> RegionScanner:
        """Streaming merged cursor over ``[start, stop)`` within this
        region's bounds; yields ``(row_key, Result | None)`` per distinct
        row key examined (None = deleted/projected away)."""
        self._check_online()
        lo = self.start_key if start is None else max(start, self.start_key)
        hi = self.end_key if stop is None else (
            stop if self.end_key is None else min(stop, self.end_key)
        )
        # components are resolved from `owner` at iteration start (so a
        # flush between creating and consuming the cursor is safe)
        return RegionScanner(
            [], lo, hi, columns, max_versions, time_range, owner=self
        )

    def iter_keys(self, start: bytes, stop: bytes | None) -> Iterator[bytes]:
        """Merged, de-duplicated, sorted row keys across memstore + HFiles."""
        self._check_online()
        streams = [self.memstore.items_in_range(start, stop)]
        streams.extend(h.items_in_range(start, stop) for h in self.hfiles)
        last: bytes | None = None
        for key, _ in heapq.merge(*streams, key=itemgetter(0)):
            if key != last:
                last = key
                yield key

    # -- splitting ---------------------------------------------------------------
    def midpoint_key(self) -> bytes | None:
        """The median distinct row key — the natural mid-key split
        point. None when the region holds fewer than two distinct rows
        (such a region cannot be split)."""
        keys = list(self.iter_keys(self.start_key, self.end_key))
        if len(keys) < 2:
            return None
        return keys[len(keys) // 2]

    def split(self, split_key: bytes | None = None) -> "tuple[Region, Region]":
        """Split into two daughter regions at ``split_key`` (default:
        the mid-key). Daughters inherit the memstore and store files as
        zero-copy views — row entries and cell payloads are shared by
        reference, only key containers are partitioned — and record this
        region's name in their WAL ancestry so log entries written
        before the split keep finding their rows. The parent goes
        offline; open scans fail over to the daughters via the client's
        relocation path."""
        self._check_online()
        if split_key is None:
            split_key = self.midpoint_key()
            if split_key is None:
                raise RegionSplitError(
                    f"region {self.name} holds fewer than two rows; "
                    "refusing to split"
                )
        if not (self.start_key < split_key and self.contains(split_key)):
            raise RegionSplitError(
                f"split key {split_key!r} is not strictly inside "
                f"region {self.name}"
            )
        ancestry = self.wal_ancestry + (self.name,)

        def daughter(start: bytes, end: bytes | None) -> Region:
            return Region(
                table_name=self.table_name,
                start_key=start,
                end_key=end,
                max_versions=self.max_versions,
                kv_overhead_bytes=self.kv_overhead_bytes,
                flush_threshold_rows=self.flush_threshold_rows,
                split_threshold_bytes=self.split_threshold_bytes,
                wal_ancestry=ancestry,
            )

        low = daughter(self.start_key, split_key)
        high = daughter(split_key, self.end_key)
        low.memstore, high.memstore = self.memstore.split(split_key)
        for hfile in self.hfiles:
            bottom, top = hfile.split_view(split_key)
            if bottom is not None:
                low.hfiles.append(bottom)
            if top is not None:
                high.hfiles.append(top)
        low._approx_size_bytes = low._component_size_bytes()
        high._approx_size_bytes = high._component_size_bytes()
        self.online = False
        self.split_daughters = (low, high)
        return low, high

    def _component_size_bytes(self) -> int:
        """Exact byte size summed over every store component (the same
        per-cell accounting the write path accrues approximately)."""
        overhead = self.kv_overhead_bytes
        total = 0
        for row, entry in self.memstore.items():
            total += entry.size_bytes(row, overhead)
        for hfile in self.hfiles:
            for row, entry in hfile.items():
                total += entry.size_bytes(row, overhead)
        return total

    # -- flush & compaction ------------------------------------------------------
    def flush(self) -> HFile | None:
        """Freeze the memstore into a new HFile (zero-copy handoff)."""
        self._check_online()
        if len(self.memstore) == 0:
            return None
        sorted_keys, entries = self.memstore.take_frozen()
        hfile = HFile(entries, sorted_keys=sorted_keys)
        self.hfiles.append(hfile)
        return hfile

    def major_compact(self) -> None:
        """Merge all store components into one HFile; drop tombstones and
        versions beyond ``max_versions``; recompute the exact size."""
        self._check_online()
        merged_entries: dict[bytes, RowEntry] = {}
        sorted_keys: list[bytes] = []
        size = 0
        overhead = self.kv_overhead_bytes
        for row, entry in self._compacted_entries():
            merged_entries[row] = entry
            sorted_keys.append(row)
            size += entry.size_bytes(row, overhead)
        self.memstore.clear()
        self.hfiles = (
            [HFile(merged_entries, sorted_keys=sorted_keys)]
            if merged_entries
            else []
        )
        self._approx_size_bytes = size

    def _compacted_entries(self) -> Iterator[tuple[bytes, RowEntry]]:
        """``(row, entry)`` of every row a major compaction keeps, in key
        order. A region with one non-empty component (always the state
        right after a bulk load) adopts each entry that needs no merge —
        no row tombstone, and no column holding more than ``max_versions``
        versions, a dirty history sorted first — the way a flush hands
        off a frozen memstore; any other row is rebuilt from its
        ``row_result``. Several components keep the scanner merge."""
        max_versions = self.max_versions
        components = [c for c in (self.memstore, *self.hfiles) if len(c)]
        if len(components) != 1:
            for row, result in self.scan(max_versions=max_versions):
                if result is not None:
                    yield row, RowEntry.from_sorted_cells(result.cells)
            return
        for row, entry in components[0].items_in_range(self.start_key, self.end_key):
            if (
                entry.row_tombstone_ts is None
                and entry.head
                and all(
                    len(versions) <= max_versions
                    for versions in entry.sorted_history().values()
                )
            ):
                yield row, entry
                continue
            result = row_result(row, [entry], max_versions)
            if result is not None:
                yield row, RowEntry.from_sorted_cells(result.cells)

    def row_count(self) -> int:
        """Number of visible rows (post-merge); one streaming pass."""
        return sum(
            1 for _, result in self.scan(max_versions=1) if result is not None
        )
