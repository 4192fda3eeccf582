"""Region-internal storage: memstore, HFiles and the streaming scan engine.

Both the mutable memstore and immutable HFiles share one row-entry
representation, the *newest image*: a ``{(family, qualifier):
(timestamp, value)}`` head dict, plus a history map holding a column's
whole newest-first version list only once it has a second version. A
delete is a whole-row tombstone: the newest delete stamp on the entry.
The read path merges entries newest-to-oldest, honouring row
tombstones, exactly as an LSM tree does; major compaction folds
everything into one HFile, dropping tombstones and versions beyond
``max_versions``. See ``docs/STORAGE.md`` for the invariants.

Write path: ``MemStore.apply_put`` is the one statement of version
order (O(1) per cell; nothing is pruned before a major compaction). A
cell is ``(column, value, ts)`` (``ops.Cell``) and its column key is
stored as given, so a writer that interns its keys
(``CatalogEntry.stored_put``) hands the head dict the very key objects
it already holds. A read that lends an entry's head dict marks it
lent, and the next put copies the dict first, so a held
:class:`Result` never shows a later write. A flush hands the
memstore's entry dict and sorted key list to the new :class:`HFile`
wholesale, and the memstore re-arms with fresh containers, so cursors
snapshotted before the flush stay valid.

Read path: :class:`RegionScanner` k-way-merges one cursor per store
component (memstore first, then HFiles newest flush first) with
``heapq.merge``: a single pass over each component. ``row_result``
turns one row's entries into its :class:`Result` for point reads and
the scanner alike. A *plain* row, whose newest entry outshines the
older ones, is lent that entry's head; any other untombstoned
one-version read takes heads only; and a tombstone or a ``time_range``
keeps a bounded, bisected run of each history, so a read costs
O(columns × sources × ``max_versions``) however many versions the row
has absorbed. ``columns`` is the column-pushdown contract: untouched
column families cost nothing.
"""

from __future__ import annotations

import bisect
import heapq
from math import inf
from typing import Iterator
from weakref import ref

from repro.errors import RegionUnavailableError
from repro.hbase.cell import NO_HISTORY, CellKey, Result, Version, newest_image
from repro.hbase.ops import Cell

Versions = list[Version]


def _neg_ts(tv: Version) -> int:
    return -tv[0]


def _sort_newest_first(versions: Versions) -> None:
    """Newest first, equal timestamps in write order (the sort is
    stable): how a dirty history list is put back in order."""
    versions.sort(key=_neg_ts)


class RowEntry:
    """One row within one store component: its newest image, the history
    of each column that has more than one version, and its row tombstone.
    Built without ``__init__`` (``_new_entry``): a new entry allocates
    only its head dict; the write path shadows the class-attribute
    defaults below with instance attributes on demand."""

    history: dict[CellKey, Versions] = NO_HISTORY
    payload = 0
    """Σ len(family) + len(qualifier) + len(value) over the heads."""
    _dirty = False  # a history list may be out of newest-first order
    _lent = False  # a Result holds ``head``: copy it before the next write
    _cover: frozenset[CellKey] | None = None
    """The column set last proven to cover every stored column (a read
    under that very object tests nothing); dropped when a column is
    added."""
    _outshone: tuple[ref[RowEntry], ...] = ()
    """Weak references to the older sources last proven outshone
    (:func:`_outshines`): a read over those very entries tests nothing.
    Weak, so the proof keeps no compacted-away entry alive; with none,
    it holds for the entry alone."""
    row_tombstone_ts: int | None = None
    head: dict[CellKey, Version]

    @classmethod
    def from_sorted_cells(cls, cells: dict[CellKey, Versions]) -> "RowEntry":
        """Adopt non-empty, already-newest-first version lists (compaction
        output)."""
        entry = cls.__new__(cls)
        head, history = entry.head, entry.history = newest_image(cells)
        entry.payload = sum(
            len(family) + len(qualifier) + len(newest[1])
            for (family, qualifier), newest in head.items()
        )
        return entry

    def sorted_history(self) -> dict[CellKey, Versions]:
        """The history, every list newest first."""
        if self._dirty:
            for versions in self.history.values():
                _sort_newest_first(versions)
            self._dirty = False
        return self.history

    @property
    def cells(self) -> dict[CellKey, Versions]:
        """Each column's versions newest first: its history list itself,
        or a fresh list of its head alone."""
        history = self.sorted_history()
        return {key: history.get(key) or [newest] for key, newest in self.head.items()}

    def delete_row(self, ts: int) -> None:
        if self.row_tombstone_ts is None or ts > self.row_tombstone_ts:
            self.row_tombstone_ts = ts

    def size_bytes(self, row: bytes, kv_overhead: int) -> int:
        row_len = len(row) + kv_overhead
        total = len(self.head) * row_len + self.payload
        for (family, qualifier), versions in self.history.items():
            base = row_len + len(family) + len(qualifier)
            for _, value in versions[1:]:
                total += base + len(value)
        return total


_new_entry = RowEntry.__new__


class MemStore:
    """Mutable map row-key -> :class:`RowEntry`; key order built lazily."""

    def __init__(self) -> None:
        self._entries: dict[bytes, RowEntry] = {}
        self._sorted_keys: list[bytes] = []
        self._sorted = True

    def entry(self, row: bytes, create: bool = False) -> RowEntry | None:
        e = self._entries.get(row)
        if e is None and create:
            e = self._entries[row] = _new_entry(RowEntry)
            e.head = {}
            self._sorted = False
        return e

    def apply_put(
        self,
        row: bytes,
        cells: list[Cell] | tuple[Cell, ...],
        default_ts: int,
        base_bytes: int,
    ) -> int:
        """Upsert the row's entry and put each cell, in one call — the
        write hot path (one method call per Put) and the one statement of
        version order. A column's head is the first-written version of
        its greatest stamp: a stamp strictly newer than the head replaces
        it and goes first in the column's history (a hot overwrite is one
        lookup, one insert and one head store); any other stamp is
        appended and marks the entry dirty, for ``sorted_history``'s
        stable sort. A history starts at a column's second version. A
        lent head is copied before the first write; ``payload`` is kept.
        Each cell's column key is stored as given: no key is built here.
        Returns the approximate byte delta; ``base_bytes`` is the
        row-key + KV-framing overhead charged per cell."""
        entry = self._entries.get(row)
        if entry is None:
            entry = _new_entry(RowEntry)
            head = entry.head = {}
            self._entries[row] = entry
            self._sorted = False
        else:
            head = entry.head
            if entry._lent:
                head = entry.head = head.copy()
                entry._lent = False
        columns = len(head)
        history = entry.history
        payload = entry.payload
        added = 0
        for key, value, ts in cells:
            stamp = default_ts if ts is None else ts
            width = len(value)
            weight = len(key[0]) + len(key[1]) + width
            added += weight
            versions = history.get(key) if history else None
            if versions is None:
                newest = head.get(key)
                if newest is None:
                    head[key] = (stamp, value)
                    payload += weight
                    continue
                # the column's second version: it starts a history
                if history is NO_HISTORY:
                    history = entry.history = {}
                versions = history[key] = [newest]
            if stamp > versions[0][0]:
                payload += width - len(versions[0][1])
                newest = head[key] = (stamp, value)
                versions.insert(0, newest)
            else:
                versions.append((stamp, value))
                entry._dirty = True
        entry.payload = payload
        if columns and len(head) != columns:
            entry._cover = None
        return len(cells) * base_bytes + added

    def _ensure_sorted(self) -> list[bytes]:
        if not self._sorted:
            self._sorted_keys = sorted(self._entries)
            self._sorted = True
        return self._sorted_keys

    def __len__(self) -> int:
        return len(self._entries)

    def items_in_range(
        self, start: bytes, stop: bytes | None
    ) -> Iterator[tuple[bytes, RowEntry]]:
        return _range_cursor(self._ensure_sorted(), self._entries, start, stop)

    def split(self, split_key: bytes) -> tuple["MemStore", "MemStore"]:
        """Partition into two memstores at ``split_key`` (low half gets
        rows < split_key). The :class:`RowEntry` objects — and with them
        every cell payload — are handed over by reference; only the key
        containers are rebuilt."""
        keys = self._ensure_sorted()
        idx = bisect.bisect_left(keys, split_key)
        entries = self._entries
        low, high = MemStore(), MemStore()
        low._sorted_keys = keys[:idx]
        low._entries = {k: entries[k] for k in low._sorted_keys}
        high._sorted_keys = keys[idx:]
        high._entries = {k: entries[k] for k in high._sorted_keys}
        return low, high

    def take_frozen(self) -> tuple[list[bytes], dict[bytes, RowEntry]]:
        """Hand the current generation (sorted keys + entries) to a flush
        and re-arm empty. Snapshots taken before the flush stay valid
        because the old containers are never mutated again."""
        keys = self._ensure_sorted()
        entries = self._entries
        self._entries = {}
        self._sorted_keys = []
        self._sorted = True
        return keys, entries

    def clear(self) -> None:
        self._entries = {}
        self._sorted_keys = []
        self._sorted = True

    def items(self) -> Iterator[tuple[bytes, RowEntry]]:
        entries = self._entries
        for k in self._ensure_sorted():
            yield k, entries[k]


class HFile:
    """Immutable sorted store file produced by a memstore flush."""

    _seq = 0

    def __init__(
        self,
        entries: dict[bytes, RowEntry],
        sorted_keys: list[bytes] | None = None,
    ) -> None:
        HFile._seq += 1
        self.file_id = HFile._seq
        self._entries = entries
        self._sorted_keys = (
            sorted(entries) if sorted_keys is None else sorted_keys
        )

    def entry(self, row: bytes) -> RowEntry | None:
        return self._entries.get(row)

    def __len__(self) -> int:
        # a split view shares the full entry dict but only covers its
        # sorted-key slice, so the key list is the truthful row count
        return len(self._sorted_keys)

    def split_view(
        self, split_key: bytes
    ) -> tuple["HFile | None", "HFile | None"]:
        """Reference files for a region split: two HFiles sharing this
        file's entry dict wholesale (zero payload copies), each covering
        one side of ``split_key`` via a sliced key list. A side with no
        rows is returned as None. Point lookups through a view rely on
        the region routing layer only asking for rows inside the view's
        range — exactly the contract real HBase reference files have."""
        keys = self._sorted_keys
        idx = bisect.bisect_left(keys, split_key)
        bottom = HFile(self._entries, sorted_keys=keys[:idx]) if idx else None
        top = (
            HFile(self._entries, sorted_keys=keys[idx:])
            if idx < len(keys)
            else None
        )
        return bottom, top

    def items_in_range(
        self, start: bytes, stop: bytes | None
    ) -> Iterator[tuple[bytes, RowEntry]]:
        return _range_cursor(self._sorted_keys, self._entries, start, stop)

    def items(self) -> Iterator[tuple[bytes, RowEntry]]:
        entries = self._entries
        for k in self._sorted_keys:
            yield k, entries[k]


def _range_cursor(
    keys: list[bytes],
    entries: dict[bytes, RowEntry],
    start: bytes,
    stop: bytes | None,
) -> Iterator[tuple[bytes, RowEntry]]:
    """C-level (zip+map) cursor over one component's ``[start, stop)``
    slice. The key slice snapshots the component's current generation,
    so concurrent writes/flushes never corrupt a running scan."""
    lo = bisect.bisect_left(keys, start)
    hi = len(keys) if stop is None else bisect.bisect_left(keys, stop, lo)
    window = keys[lo:hi]
    return zip(window, map(entries.__getitem__, window))


def merge_row(
    sources: list[RowEntry],
    max_versions: int,
    time_range: tuple[int, int] | None = None,
    columns: frozenset[CellKey] | set[CellKey] | None = None,
) -> dict[CellKey, Versions] | None:
    """Merge one row's entries (newest component first) into visible cells.

    ``columns`` restricts the merge to the given (family, qualifier)
    keys — the column-pushdown contract: unrequested columns are never
    touched, so they cost nothing. Returns None when the row has no
    visible cells (fully deleted/absent/projected away).
    """
    row_ts = max(
        (s.row_tombstone_ts for s in sources if s.row_tombstone_ts is not None),
        default=-inf,
    )

    # A tombstone hides a suffix of a newest-first list and a time range
    # keeps a contiguous run of it, so each source contributes a bounded
    # head per column, found by bisection: the rest of its history is
    # never copied, compared or sorted.
    lo, hi = time_range if time_range is not None else (-inf, inf)
    floor = max(lo, row_ts + 1)  # the oldest timestamp still visible
    bounded = time_range is not None or row_ts > -inf
    merged: dict[CellKey, Versions] = {}
    disordered: list[Versions] = []
    for s in sources:
        for key, versions in s.cells.items():
            if columns is not None and key not in columns:
                continue
            if bounded:
                first = bisect.bisect_right(versions, -hi, key=_neg_ts)
                last = bisect.bisect_right(versions, -floor, first, key=_neg_ts)
                head = versions[first:min(last, first + max_versions)]
            else:
                head = versions[:max_versions]
            existing = merged.get(key)
            if existing is None:
                merged[key] = head
            elif head:
                # an older component normally holds older stamps, so the
                # concatenation is usually in order already
                if existing and head[0][0] > existing[-1][0]:
                    disordered.append(existing)
                existing.extend(head)
    for versions in disordered:
        _sort_newest_first(versions)
    visible = {}
    for key, versions in merged.items():
        if versions:
            del versions[max_versions:]
            visible[key] = versions
    return visible or None


def _outshines(entry: RowEntry, sources: list[RowEntry]) -> bool:
    """Whether ``entry`` (``sources[0]``) alone shows what a one-version
    read of ``sources`` shows: memoised on the entry per older sources,
    else :func:`_prove_outshines`. A proof stays valid because the older
    sources never change (only the memstore takes writes, and it is the
    newest), while a put never lowers a head's stamp nor drops a
    column."""
    older = sources[1:]
    if [proven() for proven in entry._outshone] == older:
        return True
    if _prove_outshines(entry.head, older):
        entry._outshone = tuple(map(ref, older))
        return True
    return False


def _prove_outshines(head: dict[CellKey, Version], older: list[RowEntry]) -> bool:
    """No older source holds a tombstone, and each column of each holds
    its newest head at a stamp no newer than ``head``'s for it (a tie
    goes to the newer source, as in the merge)."""
    for source in older:
        if source.row_tombstone_ts is not None:
            return False
        for key, (stamp, _) in source.head.items():
            newest = head.get(key)
            if newest is None or newest[0] < stamp:
                return False
    return True


def row_result(
    row: bytes,
    sources: list[RowEntry],
    max_versions: int,
    time_range: tuple[int, int] | None = None,
    columns: frozenset[CellKey] | None = None,
) -> Result | None:
    """The :class:`Result` of one row from its entries (newest component
    first), or None when no cell is visible — what point reads and the
    scanner both return.

    A *plain* row needs no merge: one version wanted, no time range, no
    tombstone in any source, and the newest source *outshines* the rest
    (:func:`_outshines`; a lone source trivially does). With every
    stored column requested, its Result is lent the newest entry's head
    dict with the entry's payload, so it is sized in O(1). The entry
    copies the dict before its next write (``MemStore.apply_put``), so
    the lend is safe from the memstore and from an HFile alike. The
    entry remembers the set object that proved the cover, so a read
    under that object (or none) tests nothing. Any other untombstoned
    one-version read takes each column's newest head; every other row
    goes through :func:`merge_row`."""
    if max_versions == 1 and time_range is None:
        entry = sources[0]
        if entry.row_tombstone_ts is None and (
            len(sources) == 1 or _outshines(entry, sources)
        ):
            head = entry.head
            if not head:
                return None
            if columns is not None and entry._cover is not columns:
                if not columns.issuperset(head):
                    heads = {key: head[key] for key in columns if key in head}
                    return Result(row, heads) if heads else None
                entry._cover = columns
            entry._lent = True
            return Result(row, head, NO_HISTORY, (len(head), entry.payload))
        if not any(s.row_tombstone_ts is not None for s in sources):
            # each column's newest head: the greatest stamp, the newer
            # component winning a tie (as a stable newest-first sort would)
            heads: dict[CellKey, Version] = {}
            for s in sources:
                for key, newest in s.head.items():
                    if columns is None or key in columns:
                        seen = heads.get(key)
                        if seen is None or newest[0] > seen[0]:
                            heads[key] = newest
            return Result(row, heads) if heads else None
    visible = merge_row(sources, max_versions, time_range, columns)
    return None if visible is None else Result.from_sorted(row, visible)


class _AlwaysOnline:
    """Stand-in owner for scanners created without a region (tests)."""

    online = True
    name = "<unowned>"


_ALWAYS_ONLINE = _AlwaysOnline()


def _tagged(
    stream: Iterator[tuple[bytes, RowEntry]], priority: int
) -> Iterator[tuple[bytes, int, RowEntry]]:
    """Tag a component cursor with its merge priority (newest = 0), so
    ``heapq.merge`` orders ties by component age and never compares
    :class:`RowEntry` objects."""
    for key, entry in stream:
        yield key, priority, entry


class RegionScanner:
    """Streaming merged cursor over one region's store components.

    Yields ``(row_key, Result | None)`` for every distinct row key
    examined in ``[start, stop)`` — ``None`` marks a row whose cells are
    all deleted or projected away (callers still account the row as
    examined, mirroring HBase's server-side read cost). When owned by a
    region, the component list is resolved at iteration start and each
    component's contents snapshot their current generation, so flushes
    before or during iteration are both safe; the region's liveness is
    re-checked per row, so a crash while a cursor is open raises
    instead of yielding phantom rows.
    """

    __slots__ = ("_components", "_start", "_stop", "_max_versions",
                 "_time_range", "_columns", "_owner")

    def __init__(
        self,
        components: list[MemStore | HFile],
        start: bytes,
        stop: bytes | None,
        columns: frozenset[CellKey] | None = None,
        max_versions: int = 1,
        time_range: tuple[int, int] | None = None,
        owner=None,
    ) -> None:
        self._components = components  # newest first
        self._start = start
        self._stop = stop
        self._columns = columns
        self._max_versions = max_versions
        self._time_range = time_range
        self._owner = owner  # region whose .online gates each row

    def __iter__(self) -> Iterator[tuple[bytes, Result | None]]:
        max_versions = self._max_versions
        time_range = self._time_range
        columns = self._columns
        if self._owner is not None:
            owner = self._owner
            # resolve components now, not at construction: a flush
            # between the two would otherwise hide the re-armed
            # memstore's rows behind a stale component list
            candidates: list = [owner.memstore]
            candidates.extend(reversed(owner.hfiles))
        else:
            owner = _ALWAYS_ONLINE
            candidates = self._components
        components = [c for c in candidates if len(c) > 0]
        if not components:
            return
        if len(components) == 1:
            # single-component fast path: no heap, no grouping
            for key, entry in components[0].items_in_range(self._start, self._stop):
                if not owner.online:
                    raise RegionUnavailableError(
                        f"region {owner.name} went offline mid-scan"
                    )
                yield key, row_result(
                    key, [entry], max_versions, time_range, columns
                )
            return

        streams = [
            _tagged(component.items_in_range(self._start, self._stop), priority)
            for priority, component in enumerate(components)
        ]
        merged = heapq.merge(*streams)  # orders by (key, priority)
        try:
            cur_key, _, entry = next(merged)
        except StopIteration:
            return
        sources = [entry]
        for key, _, entry in merged:
            if key != cur_key:
                if not owner.online:
                    raise RegionUnavailableError(
                        f"region {owner.name} went offline mid-scan"
                    )
                yield cur_key, row_result(
                    cur_key, sources, max_versions, time_range, columns
                )
                cur_key = key
                sources = [entry]
            else:
                sources.append(entry)
        if not owner.online:
            raise RegionUnavailableError(
                f"region {owner.name} went offline mid-scan"
            )
        yield cur_key, row_result(
            cur_key, sources, max_versions, time_range, columns
        )
