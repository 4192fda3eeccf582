"""Byte-bounded LRU row cache for a region server.

Point reads (``max_versions=1``, no time-range) against a hot key are
served from here instead of paying the store lookup. The cache is
deliberately simple and fully deterministic:

* **Keying.** Entries are keyed ``(region_name, row, columns)``.
  Region names embed a monotonically increasing region id, so daughters
  minted by a split and regions re-created by crash recovery can never
  alias a stale parent entry.
* **Negative caching.** ``None`` (absent/deleted row) is a cacheable
  value; lookups distinguish "cached None" from "not cached" via a
  sentinel.
* **Eviction.** Strict LRU over an ``OrderedDict``, sized in bytes
  (payload + fixed per-entry overhead). Insertion of an entry larger
  than the whole budget is skipped. Eviction order is a pure function
  of the operation sequence, so reruns at the same seed evict
  identically — ``eviction_log`` can be attached by tests to assert
  that bit-for-bit.
* **Coherence.** Writes invalidate their row; region unhost/crash/
  restart invalidate wholesale (see ``RegionServer``). Flushes and
  compactions never change what a newest-version read returns — and
  only newest-version reads are cached — so they need no hook.

Multi-version / time-ranged reads bypass the cache entirely (they are
the rare path, and their results *can* change across a compaction).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.hbase.cell import Result

_MISS = object()
"""Sentinel distinguishing "not cached" from a cached negative entry."""

ENTRY_OVERHEAD_BYTES = 64
"""Fixed accounting overhead per cached entry (hash-map slot, key copy,
LRU links), added to the payload when charging the byte budget."""

CacheKey = tuple[str, bytes, tuple[tuple[bytes, bytes], ...] | None]


class RowCache:
    """Deterministic byte-bounded LRU cache of point-read results."""

    __slots__ = (
        "capacity_bytes",
        "size_bytes",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "eviction_log",
        "_entries",
        "_by_row",
        "_by_region",
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
        self._by_row: dict[tuple[str, bytes], set[CacheKey]] = {}
        self._by_region: dict[str, set[CacheKey]] = {}

    @staticmethod
    def variant(columns: list[tuple[bytes, bytes]] | None):
        """Hashable projection key for a get's column subset."""
        return tuple(columns) if columns else None

    def lookup(self, region_name: str, row: bytes, variant) -> object:
        """Cached ``Result | None`` for the key, or the module sentinel
        ``_MISS`` when absent (callers compare with :func:`missed`)."""
        key = (region_name, row, variant)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return _MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def insert(
        self, region_name: str, row: bytes, variant, result: Result | None
    ) -> None:
        key = (region_name, row, variant)
        size = ENTRY_OVERHEAD_BYTES + len(row)
        if result is not None:
            size += result.size_bytes
        if size > self.capacity_bytes:
            return  # larger than the whole budget: not cacheable
        if key in self._entries:
            self._drop(key)
        self._entries[key] = (result, size)
        self.size_bytes += size
        self._by_row.setdefault((region_name, row), set()).add(key)
        self._by_region.setdefault(region_name, set()).add(key)
        while self.size_bytes > self.capacity_bytes:
            victim = next(iter(self._entries))
            self._drop(victim)
            self.evictions += 1
            if self.eviction_log is not None:
                self.eviction_log.append(victim)

    def _drop(self, key: CacheKey) -> None:
        _, size = self._entries.pop(key)
        self.size_bytes -= size
        region_name, row, _ = key
        row_keys = self._by_row.get((region_name, row))
        if row_keys is not None:
            row_keys.discard(key)
            if not row_keys:
                del self._by_row[(region_name, row)]
        region_keys = self._by_region.get(region_name)
        if region_keys is not None:
            region_keys.discard(key)
            if not region_keys:
                del self._by_region[region_name]

    def invalidate_row(self, region_name: str, row: bytes) -> None:
        """Drop every cached variant of one row (called on mutation)."""
        keys = self._by_row.get((region_name, row))
        if keys:
            for key in list(keys):
                self._drop(key)
                self.invalidations += 1

    def invalidate_region(self, region_name: str) -> None:
        """Drop every entry of one region (unhost / move / recovery)."""
        keys = self._by_region.get(region_name)
        if keys:
            for key in list(keys):
                self._drop(key)
                self.invalidations += 1

    def clear(self) -> None:
        """Drop everything (server crash/restart: cache memory is gone)."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._by_row.clear()
        self._by_region.clear()
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
