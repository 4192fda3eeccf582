"""The row-cache reference: one insertion-ordered dict keyed
``(region, row)``, least recently used first, charged in bytes, whose
size is re-summed on every read instead of kept as a running total.
``RowCache`` keeps the same entries and counters; both find a region's
entries by scanning every key."""

from __future__ import annotations

from repro.hbase.cache import ENTRY_OVERHEAD_BYTES
from tests.reference.storage import reference_size


def entry_size(row, result):
    """Bytes one cached entry charges: the fixed overhead, the row key,
    and the result's wire size (nothing for a cached ``None``)."""
    size = ENTRY_OVERHEAD_BYTES + len(row)
    if result is not None:
        size += reference_size(row, result.cells)
    return size


class ModelRowCache:
    """What a byte-bounded LRU cache of whole-row point reads answers."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.entries = {}  # key -> (result, size); LRU first
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.eviction_log = []

    @property
    def size_bytes(self):
        return sum(size for _, size in self.entries.values())

    def lookup(self, key):
        """``(True, result)`` for a cached key (now most recent),
        ``(False, None)`` otherwise."""
        if key not in self.entries:
            self.misses += 1
            return False, None
        self.entries[key] = self.entries.pop(key)
        self.hits += 1
        return True, self.entries[key][0]

    def insert(self, key, result):
        size = entry_size(key[1], result)
        if size > self.capacity_bytes:
            return  # never cacheable; an older entry for the key stays
        self.entries.pop(key, None)
        self.entries[key] = (result, size)
        while self.size_bytes > self.capacity_bytes:
            victim = next(iter(self.entries))
            del self.entries[victim]
            self.evictions += 1
            self.eviction_log.append(victim)

    def invalidate(self, matches):
        """Drop every entry whose key ``matches``."""
        for key in [k for k in self.entries if matches(k)]:
            del self.entries[key]
            self.invalidations += 1

    def clear(self):
        self.invalidations += len(self.entries)
        self.entries = {}

    def stats(self):
        lookups = self.hits + self.misses
        return {
            "entries": len(self.entries),
            "size_bytes": self.size_bytes,
            "capacity_bytes": self.capacity_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": (self.hits / lookups) if lookups else 0.0,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
