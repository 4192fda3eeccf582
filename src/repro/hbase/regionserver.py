"""Region servers: host regions, apply mutations through the WAL."""

from __future__ import annotations

from typing import Callable

from repro.config import ServingConfig
from repro.errors import HBaseError, RegionUnavailableError
from repro.hbase.admission import AdmissionController
from repro.hbase.cache import RowCache, missed
from repro.hbase.cell import Result
from repro.hbase.ops import Delete, Put
from repro.hbase.region import Region
from repro.hbase.wal import WriteAheadLog
from repro.sim.clock import Simulation
from repro.sim.latency import LatencyCharger


class RegionServer:
    """One simulated HBase RegionServer process.

    When a :class:`~repro.config.ServingConfig` enables them, the server
    carries a byte-bounded LRU row cache (whole-row point reads skip
    the store lookup on a hit) and an admission controller (arriving
    requests are shed before they queue once the virtual backlog
    exceeds the — possibly pressure-shrunk — bound). Both default off, leaving every
    charge on every pre-existing path bit-identical."""

    def __init__(
        self,
        name: str,
        sim: Simulation,
        serving: ServingConfig | None = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.charge = LatencyCharger(sim, f"rs.{name}")
        self.row_cache: RowCache | None = None
        self.admission: AdmissionController | None = None
        self._cache_hit_what = f"rs.{name}.cache_hit"
        if serving is not None and serving.cache_enabled:
            self.row_cache = RowCache(serving.row_cache_bytes)
        if serving is not None and serving.admission_enabled:
            self.admission = AdmissionController(name, serving)
        self.regions: dict[str, Region] = {}
        self.follower_regions: dict[str, Region] = {}
        """Follower replicas hosted here (``repro.hbase.replication``).
        Kept apart from ``regions`` on purpose: master failover must
        never treat a follower as a primary to re-open elsewhere, and
        the table descriptor never routes to one directly — but a crash
        still takes them offline with the process."""
        self.wal = WriteAheadLog()
        self.alive = True
        self.recovered = False
        """True once master failover has moved this (dead) server's
        regions elsewhere; cleared when the server process restarts."""
        self.draining = False
        """Decommission flag (``HBaseCluster.drain_server``): placement
        (assignment, balancing, follower top-up) skips draining servers.
        Deliberately survives a restart — a drained server that crashes
        and rejoins stays out of rotation until undrained."""
        self.on_region_grown = None
        """Master hook (set by the cluster): called with a region whose
        approximate size crossed its split threshold after a write."""

    def _check_alive(self) -> None:
        if not self.alive:
            # the client-visible failure of talking to a crashed
            # process: same relocation/retry path as an offline region
            raise RegionUnavailableError(
                f"region server {self.name} is down"
            )

    def host(self, region: Region) -> None:
        self.regions[region.name] = region

    def unhost(self, region_name: str) -> Region:
        if self.row_cache is not None:
            # the region is leaving this process (move / split retiring
            # the parent / recovery): its entries can never be read here
            # again, and must not alias a future re-host
            self.row_cache.invalidate_region(region_name)
        return self.regions.pop(region_name)

    # -- reads -------------------------------------------------------------------------
    def read_point(
        self,
        region: Region,
        row: bytes,
        columns: list[tuple[bytes, bytes]] | None = None,
        max_versions: int = 1,
        time_range: tuple[int, int] | None = None,
    ) -> Result | None:
        """The uncached point read, priced here and nowhere else: one
        store seek, plus one row materialization when the row exists.
        Followers and the read half of a read-modify-write call this
        directly; :meth:`serve_get` is the row cache around it."""
        self.charge.seek()
        result = region.read_row(row, columns, max_versions, time_range)
        if result is not None:
            self.charge.row_read()
        return result

    def serve_get(
        self,
        region: Region,
        row: bytes,
        columns: list[tuple[bytes, bytes]] | None = None,
        max_versions: int = 1,
        time_range: tuple[int, int] | None = None,
    ) -> Result | None:
        """Point read through the (optional) row cache, which holds
        whole-row newest reads keyed ``(region, row)``. A read that
        projects ``columns``, asks for more than one version or sets a
        time range bypasses it (the last two could change across a
        compaction); a hit charges ``CACHE_HIT_MS`` and touches the
        store not at all."""
        cache = self.row_cache
        if cache is None or columns or max_versions != 1 or time_range is not None:
            return self.read_point(region, row, columns, max_versions, time_range)
        region._check_online()  # a cached row must not outlive its region
        cached = cache.lookup(region.name, row)
        if not missed(cached):
            self.sim.charge(self._cache_hit_what, "CACHE_HIT_MS", 1)
            return cached
        result = self.read_point(region, row)
        cache.insert(region.name, row, result)
        return result

    # -- mutations (all WAL-first) ---------------------------------------------------
    def mutate(
        self,
        region: Region,
        ops: list[Put | Delete],
        reserve_timestamps: Callable[[int], int],
    ) -> None:
        """Apply one region's group of puts and deletes; a single
        operation is a group of one. Nothing is logged or charged before
        the server and the region are known to be up. Then the group
        pays one WAL sync and takes a contiguous timestamp block from
        ``reserve_timestamps(n)``, and each operation is logged, applied
        through :meth:`Region.apply` and followed by a flush check. The
        n row-write charges come after the loop (nothing in it reads the
        clock or draws), and the split check once, at a safe point:
        splitting inside the loop would offline the region the rest of
        the group targets."""
        self._check_alive()
        region._check_online()  # single-threaded: cannot flip mid-group
        self.charge.wal_append()
        ts = reserve_timestamps(len(ops))
        name = region.name
        cache = self.row_cache
        wal_append = self.wal.append
        for op in ops:
            entry = op.wal_entry(name, ts)
            ts += 1
            if cache is not None:
                cache.invalidate_row(name, entry.row)
            wal_append(entry)
            region.apply(entry)
            if len(region.memstore) >= region.flush_threshold_rows:
                self.flush_region(region)
        self.charge.rows_written(len(ops))
        self._maybe_split(region)

    def _maybe_split(self, region: Region) -> None:
        threshold = region.split_threshold_bytes
        if (
            threshold is not None
            and region._approx_size_bytes >= threshold
            and self.on_region_grown is not None
        ):
            self.on_region_grown(region)

    def flush_region(self, region: Region) -> None:
        self._check_alive()
        region.flush()
        self.wal.truncate(region.name)
        # rows this region inherited unflushed from split ancestors are
        # now persisted too: drop this key range from the ancestors' logs
        for ancestor in region.wal_ancestry:
            self.wal.truncate_range(ancestor, region.start_key, region.end_key)

    # -- failure simulation -----------------------------------------------------------
    def crash(self) -> None:
        """Lose all memstores; HFiles (on 'HDFS') and the WAL survive."""
        self.alive = False
        self.recovered = False
        if self.row_cache is not None:
            self.row_cache.clear()  # cache memory dies with the process
        for region in self.regions.values():
            region.online = False
        for region in self.follower_regions.values():
            region.online = False

    def restart(self) -> None:
        """The crashed process rejoins the cluster as an empty server:
        alive, hosting nothing, with a fresh WAL (its old log segments
        were consumed — or deliberately abandoned — by master failover).
        Follower replicas it held are gone too — they were pure derived
        state, and the replication manager rebuilds replacements from
        the primaries' ship logs. Only the master recovery path may
        move regions back onto it."""
        if self.alive:
            raise HBaseError(f"server {self.name} is already alive")
        self.regions = {}
        self.follower_regions = {}
        self.wal.clear()
        if self.row_cache is not None:
            self.row_cache.clear()
        self.alive = True
        self.recovered = False

    def replay_wal_into(self, region: Region) -> int:
        """Re-apply logged mutations (idempotent); returns entries replayed.

        Entries are routed by the region's *current key range*, not the
        region id they were recorded under: a write logged against a
        region that split (possibly repeatedly) since the write is
        replayed into whichever daughter now owns its row. Ancestor
        entries predate the region's own, so they replay first."""
        entries: list = []
        for ancestor in region.wal_ancestry:
            entries.extend(
                self.wal.entries_for_range(
                    ancestor, region.start_key, region.end_key
                )
            )
        entries.extend(self.wal.entries_for(region.name))
        for entry in entries:
            region.apply(entry)
        return len(entries)
