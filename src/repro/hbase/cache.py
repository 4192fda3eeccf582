"""Byte-bounded LRU row cache for a region server.

Whole-row newest reads (no column projection, ``max_versions=1``, no
time-range) against a hot key are served from here instead of paying
the store lookup. The cache is deliberately simple and fully
deterministic:

* **Keying.** Entries are keyed ``(region_name, row)``. Region names
  embed a monotonically increasing region id, so daughters minted by a
  split and regions re-created by crash recovery can never alias a
  stale parent entry.
* **Negative caching.** ``None`` (absent/deleted row) is a cacheable
  value; lookups distinguish "cached None" from "not cached" via a
  sentinel.
* **Eviction.** Strict LRU over one ``OrderedDict``, sized in bytes
  (payload + fixed per-entry overhead). Insertion of an entry larger
  than the whole budget is skipped. Eviction order is a pure function
  of the operation sequence, so reruns at the same seed evict
  identically — ``eviction_log`` can be attached by tests to assert
  that bit-for-bit.
* **Coherence.** Writes invalidate their row; region unhost/crash/
  restart invalidate wholesale (see ``RegionServer``). Flushes and
  compactions never change what a newest-version read returns — and
  only newest-version reads are cached — so they need no hook.

Projected, multi-version and time-ranged reads bypass the cache
entirely (they are the rare path, and the latter two *can* change
across a compaction).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.hbase.cell import Result

_MISS = object()
"""Sentinel distinguishing "not cached" from a cached negative entry."""

ENTRY_OVERHEAD_BYTES = 64
"""Fixed accounting overhead per cached entry (hash-map slot, key copy,
LRU links), added to the payload when charging the byte budget."""

CacheKey = tuple[str, bytes]


class RowCache:
    """Deterministic byte-bounded LRU cache of whole-row point reads."""

    __slots__ = (
        "capacity_bytes",
        "size_bytes",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "eviction_log",
        "_entries",
    )

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.size_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.eviction_log: list[CacheKey] | None = None
        # key -> (Result | None, charged size); LRU order, newest last
        self._entries: OrderedDict[CacheKey, tuple[Result | None, int]] = OrderedDict()

    def lookup(self, region_name: str, row: bytes) -> object:
        """Cached ``Result | None`` for the row, or the module sentinel
        ``_MISS`` when absent (callers compare with :func:`missed`)."""
        key = (region_name, row)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return _MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def insert(self, region_name: str, row: bytes, result: Result | None) -> None:
        size = ENTRY_OVERHEAD_BYTES + len(row)
        if result is not None:
            size += result.size_bytes
        if size > self.capacity_bytes:
            return  # larger than the whole budget: not cacheable
        entries = self._entries
        key = (region_name, row)
        old = entries.pop(key, None)
        if old is not None:
            self.size_bytes -= old[1]
        entries[key] = (result, size)
        self.size_bytes += size
        while self.size_bytes > self.capacity_bytes:
            victim, (_, victim_size) = entries.popitem(last=False)
            self.size_bytes -= victim_size
            self.evictions += 1
            if self.eviction_log is not None:
                self.eviction_log.append(victim)

    def invalidate_row(self, region_name: str, row: bytes) -> None:
        """Drop one row's entry (called on mutation)."""
        entry = self._entries.pop((region_name, row), None)
        if entry is not None:
            self.size_bytes -= entry[1]
            self.invalidations += 1

    def invalidate_region(self, region_name: str) -> None:
        """Drop every entry of one region (unhost / move / recovery)."""
        for key in [key for key in self._entries if key[0] == region_name]:
            self.size_bytes -= self._entries.pop(key)[1]
            self.invalidations += 1

    def clear(self) -> None:
        """Drop everything (server crash/restart: cache memory is gone)."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self.size_bytes = 0

    def stats(self) -> dict[str, int | float]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "size_bytes": self.size_bytes,
            "capacity_bytes": self.capacity_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": (self.hits / lookups) if lookups else 0.0,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


def missed(value: object) -> bool:
    """True when :meth:`RowCache.lookup` found nothing cached."""
    return value is _MISS
