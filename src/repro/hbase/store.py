"""Region-internal storage: memstore, HFiles and the streaming scan engine.

Both the mutable memstore and immutable HFiles share one row-entry
representation; the region read path merges entries newest-to-oldest,
honouring row/column tombstones, exactly as an LSM tree does. Major
compaction folds everything into a single HFile, dropping tombstones
and versions beyond ``max_versions``.

Write path (O(1) puts, version lists ordered on write):

* ``MemStore.apply_put`` puts a stamp strictly newer than the column's
  head at the head, so server-stamped writes never leave the
  newest-first order. Any other stamp (out of order, or
  equal to the head) is appended and marks the entry dirty; the
  ``cells`` property restores the order with one stable sort, so equal
  timestamps keep insertion order. Every version stays stored until a
  major compaction.
* ``MemStore`` keeps only a dict while absorbing writes; its sorted key
  list is (re)built lazily when a scan, flush or range read needs it.
* A flush hands the memstore's entry dict and already-sorted key list
  to the new :class:`HFile` wholesale — no copy, no re-sort — and the
  memstore re-arms with fresh containers, so cursors snapshotted before
  the flush keep reading the frozen generation safely. Major compaction
  of a region with one component hands over the entries that need no
  merge the same way (``Region.major_compact``).

Read path: :class:`RegionScanner` k-way-merges one cursor per store
component (memstore first, then HFiles newest flush first) with
``heapq.merge``, grouping runs of equal row keys: a single pass over
each component. ``row_result`` turns one row's entries into its
:class:`Result` for point reads and the scanner alike: a *plain* row
(one untombstoned source, newest version of every stored column) is
handed over with its memoised size — lent outright when it sits in an
HFile, its cover tested once per entry per column set object — and
every other row goes through ``merge_row``. An untombstoned row read
for one version with no time range takes each column's newest head;
otherwise tombstones and ``time_range`` each keep a contiguous run of a
newest-first list, so the merge takes a bounded head of each source's
list: a read costs O(columns × sources × ``max_versions``) however many
versions the row has absorbed. The ``columns`` parameter is the
column-pushdown contract — untouched column families cost nothing.
"""

from __future__ import annotations

import bisect
import heapq
from math import inf
from typing import Iterator

from repro.errors import RegionUnavailableError
from repro.hbase.cell import Result

CellKey = tuple[bytes, bytes]
Versions = list[tuple[int, bytes]]


def _neg_ts(tv: tuple[int, bytes]) -> int:
    return -tv[0]


def _sort_newest_first(versions: Versions) -> None:
    """The one statement of version order: newest first, equal
    timestamps in insertion order (the sort is stable)."""
    versions.sort(key=_neg_ts)


_SHARED_EMPTY_TOMBSTONES: dict[CellKey, int] = {}
"""Class-level default for entries that never saw a column delete —
one RowEntry is built per freshly written row, so construction cost
matters. ``delete_column`` copies-on-write before touching it."""


class RowEntry:
    """Versions and tombstones for one row within one store component."""

    # class-attribute defaults: a new entry allocates only its cell map;
    # the write path shadows these with instance attributes on demand
    _dirty = False
    row_tombstone_ts: int | None = None
    col_tombstones: dict[CellKey, int] = _SHARED_EMPTY_TOMBSTONES
    _summary: tuple[int, int, frozenset[CellKey] | None] | None = None
    """What a plain read of this entry weighs and the set that proved its
    cover (:func:`_newest_summary`), set by the first read that asks and
    dropped by every mutator; an HFile's entry keeps it for good."""

    def __init__(self) -> None:
        self._cells: dict[CellKey, Versions] = {}

    @property
    def cells(self) -> dict[CellKey, Versions]:
        """Per-column version lists, newest first — what every read
        goes through, and where a dirty entry is put back in order."""
        if self._dirty:
            for versions in self._cells.values():
                _sort_newest_first(versions)
            self._dirty = False
        return self._cells

    @classmethod
    def from_sorted_cells(cls, cells: dict[CellKey, Versions]) -> "RowEntry":
        """Adopt already-newest-first version lists (compaction output)."""
        entry = cls.__new__(cls)
        entry._cells = cells
        return entry

    def delete_row(self, ts: int) -> None:
        self._summary = None
        if self.row_tombstone_ts is None or ts > self.row_tombstone_ts:
            self.row_tombstone_ts = ts

    def delete_column(self, family: bytes, qualifier: bytes, ts: int) -> None:
        self._summary = None
        if self.col_tombstones is _SHARED_EMPTY_TOMBSTONES:
            self.col_tombstones = {}
        key = (family, qualifier)
        if key not in self.col_tombstones or ts > self.col_tombstones[key]:
            self.col_tombstones[key] = ts

    def size_bytes(self, row: bytes, kv_overhead: int) -> int:
        row_len = len(row) + kv_overhead
        total = 0
        for (family, qualifier), versions in self._cells.items():
            base = row_len + len(family) + len(qualifier)
            for _, value in versions:
                total += base + len(value)
        return total


class MemStore:
    """Mutable map row-key -> :class:`RowEntry`; key order built lazily."""

    def __init__(self) -> None:
        self._entries: dict[bytes, RowEntry] = {}
        self._sorted_keys: list[bytes] = []
        self._sorted = True

    def entry(self, row: bytes, create: bool = False) -> RowEntry | None:
        e = self._entries.get(row)
        if e is None and create:
            e = RowEntry()
            self._entries[row] = e
            self._sorted = False
        return e

    def apply_put(
        self,
        row: bytes,
        cells: list[tuple[bytes, bytes, bytes, int | None]],
        default_ts: int,
        base_bytes: int,
    ) -> int:
        """Upsert the row's entry and put each cell by the rule above, in
        one call — the write hot path (one method call per Put). Returns
        the approximate byte delta; ``base_bytes`` is the row-key +
        KV-framing overhead charged per cell."""
        entries = self._entries
        entry = entries.get(row)
        if entry is None:
            entry = RowEntry.__new__(RowEntry)  # skip __init__ dispatch
            _cells = entry._cells = {}
            entries[row] = entry
            self._sorted = False
        else:
            _cells = entry._cells
            entry._summary = None
        size = 0
        for family, qualifier, value, ts in cells:
            stamp = ts if ts is not None else default_ts
            key = (family, qualifier)
            versions = _cells.get(key)
            if versions is None:
                _cells[key] = [(stamp, value)]
            elif stamp > versions[0][0]:
                versions.insert(0, (stamp, value))
            else:
                versions.append((stamp, value))
                entry._dirty = True
            size += base_bytes + len(family) + len(qualifier) + len(value)
        return size

    def _ensure_sorted(self) -> list[bytes]:
        if not self._sorted:
            self._sorted_keys = sorted(self._entries)
            self._sorted = True
        return self._sorted_keys

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, row: bytes) -> bool:
        return row in self._entries

    def keys_in_range(self, start: bytes, stop: bytes | None) -> Iterator[bytes]:
        for key, _ in self.items_in_range(start, stop):
            yield key

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

    def keys_in_range(self, start: bytes, stop: bytes | None) -> Iterator[bytes]:
        for key, _ in self.items_in_range(start, stop):
            yield key

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
    if len(sources) == 1:
        s = sources[0]
        if (
            s.row_tombstone_ts is None
            and not s.col_tombstones
            and time_range is None
        ):
            # fast path: no tombstones, no time filter — slice the
            # newest-first version lists directly
            cells = s.cells
            visible: dict[CellKey, Versions] = {}
            if columns is None:
                for key, versions in cells.items():
                    if versions:
                        visible[key] = versions[:max_versions]
            else:
                for key in columns:
                    versions = cells.get(key)
                    if versions:
                        visible[key] = versions[:max_versions]
            return visible or None
    elif max_versions == 1 and time_range is None and not any(
        s.row_tombstone_ts is not None or s.col_tombstones for s in sources
    ):
        # nothing hidden, one version wanted: each column's newest head,
        # the newer component winning a tie (as the stable sort would)
        heads: dict[CellKey, tuple[int, bytes] | None] = {}
        for s in sources:
            for key, versions in s.cells.items():
                if columns is None or key in columns:
                    head = heads.get(key)  # None: unseen, or seen empty
                    if head is None or versions and versions[0][0] > head[0]:
                        heads[key] = versions[0] if versions else None
        visible = {key: [head] for key, head in heads.items() if head}
        return visible or None

    row_ts = max(
        (s.row_tombstone_ts for s in sources if s.row_tombstone_ts is not None),
        default=-inf,
    )
    col_ts: dict[CellKey, int] = {}
    for s in sources:
        for key, ts in s.col_tombstones.items():
            if key not in col_ts or ts > col_ts[key]:
                col_ts[key] = ts

    # A tombstone hides a suffix of a newest-first list and a time range
    # keeps a contiguous run of it, so each source contributes a bounded
    # head per column, found by bisection: the rest of its history is
    # never copied, compared or sorted.
    lo, hi = time_range if time_range is not None else (-inf, inf)
    floor = max(lo, row_ts + 1)  # the oldest timestamp still visible
    floors = {key: max(floor, ts + 1) for key, ts in col_ts.items()}
    bounded = time_range is not None or row_ts > -inf or bool(col_ts)
    merged: dict[CellKey, Versions] = {}
    disordered: list[Versions] = []
    for s in sources:
        for key, versions in s.cells.items():
            if columns is not None and key not in columns:
                continue
            if bounded:
                first = bisect.bisect_right(versions, -hi, key=_neg_ts)
                last = bisect.bisect_right(
                    versions, -floors.get(key, floor), first, key=_neg_ts
                )
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


def _newest_summary(
    cells: dict[CellKey, Versions], columns: frozenset[CellKey] | None
) -> tuple[int, int, frozenset[CellKey] | None] | None:
    """``(columns, Σ len(family) + len(qualifier) + len(newest value),
    covered_by)`` of an entry whose every column holds a version: with
    the row key, everything ``Result.size_bytes`` needs to size a
    one-version read, and the set ``columns`` proven to cover every
    stored column. None when ``columns`` leaves one out; ``(0, 0,
    columns)`` for an entry with no column or with one left hollow (no
    writer under ``src/`` leaves one), which is then not a plain row."""
    if columns is not None and not columns >= cells.keys():
        return None
    payload = 0
    for (family, qualifier), versions in cells.items():
        if not versions:
            return 0, 0, columns
        payload += len(family) + len(qualifier) + len(versions[0][1])
    return len(cells), payload, columns


_new_result = Result.__new__


def row_result(
    row: bytes,
    sources: list[RowEntry],
    immutable: bool,
    max_versions: int,
    time_range: tuple[int, int] | None = None,
    columns: frozenset[CellKey] | None = None,
) -> Result | None:
    """The :class:`Result` of one row from its entries (newest component
    first), or None when no cell is visible — what point reads and the
    scanner both return. ``immutable`` says the newest source sits in an
    :class:`HFile`.

    A *plain* row — one source, no tombstone, one version wanted, no
    time range, every stored column requested and holding a version —
    needs no merge: its Result shows the entry's own lists and carries
    the entry's memoised summary, so it is sized in O(1). Out of an
    HFile it borrows the entry's cell map outright (nothing writes it
    again; :class:`Result` detaches before anything could); out of the
    memstore it copies the heads, since a later put must not show
    through. The summary names the set that proved the cover, so a read
    under that set object (or none) tests nothing. Every other row goes
    through :func:`merge_row`."""
    if len(sources) == 1 and max_versions == 1 and time_range is None:
        entry = sources[0]
        if entry.row_tombstone_ts is None and not entry.col_tombstones:
            # RowEntry.cells without the call when there is nothing to sort
            cells = entry.cells if entry._dirty else entry._cells
            summary = entry._summary
            if summary is None or columns is not None and summary[2] is not columns:
                summary = entry._summary = _newest_summary(cells, columns)
            if summary and summary[0]:
                result = _new_result(Result)
                result.row = row
                result._view = cells if immutable else {
                    key: versions[:1] for key, versions in cells.items()
                }
                result._borrowed = immutable
                result._summary = summary
                return result
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
        # which components a Result may borrow from (see row_result)
        immutable = [isinstance(c, HFile) for c in components]
        if len(components) == 1:
            # single-component fast path: no heap, no grouping
            borrow = immutable[0]
            for key, entry in components[0].items_in_range(self._start, self._stop):
                if not owner.online:
                    raise RegionUnavailableError(
                        f"region {owner.name} went offline mid-scan"
                    )
                yield key, row_result(
                    key, [entry], borrow, max_versions, time_range, columns
                )
            return

        streams = [
            _tagged(component.items_in_range(self._start, self._stop), priority)
            for priority, component in enumerate(components)
        ]
        merged = heapq.merge(*streams)  # orders by (key, priority)
        try:
            cur_key, newest, entry = next(merged)
        except StopIteration:
            return
        sources = [entry]
        for key, priority, entry in merged:
            if key != cur_key:
                if not owner.online:
                    raise RegionUnavailableError(
                        f"region {owner.name} went offline mid-scan"
                    )
                yield cur_key, row_result(
                    cur_key, sources, immutable[newest],
                    max_versions, time_range, columns,
                )
                cur_key = key
                newest = priority
                sources = [entry]
            else:
                sources.append(entry)
        if not owner.online:
            raise RegionUnavailableError(
                f"region {owner.name} went offline mid-scan"
            )
        yield cur_key, row_result(
            cur_key, sources, immutable[newest], max_versions, time_range, columns
        )
