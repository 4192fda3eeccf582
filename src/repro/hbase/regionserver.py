"""Region servers: host regions, apply mutations through the WAL."""

from __future__ import annotations

from repro.config import ServingConfig
from repro.errors import HBaseError, RegionUnavailableError
from repro.hbase.admission import AdmissionController
from repro.hbase.cache import RowCache, missed
from repro.hbase.cell import Result
from repro.hbase.region import Region
from repro.hbase.wal import WalEntry, WriteAheadLog
from repro.sim.clock import Simulation
from repro.sim.latency import LatencyCharger


class RegionServer:
    """One simulated HBase RegionServer process.

    When a :class:`~repro.config.ServingConfig` enables them, the server
    carries a byte-bounded LRU row cache (point reads skip the store
    lookup on a hit) and an admission controller (arriving requests are
    shed before they queue once the virtual backlog exceeds the —
    possibly pressure-shrunk — bound). Both default off, leaving every
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
        """Point read through the (optional) row cache. Multi-version
        and time-ranged reads bypass it (a compaction could change
        their answer); a hit charges ``CACHE_HIT_MS`` and touches the
        store not at all."""
        cache = self.row_cache
        if cache is None or max_versions != 1 or time_range is not None:
            return self.read_point(region, row, columns, max_versions, time_range)
        region._check_online()  # a cached row must not outlive its region
        variant = RowCache.variant(columns)
        cached = cache.lookup(region.name, row, variant)
        if not missed(cached):
            self.sim.charge(self._cache_hit_what, "CACHE_HIT_MS", 1)
            return cached
        result = self.read_point(region, row, columns)
        cache.insert(region.name, row, variant, result)
        return result

    # -- mutations (all WAL-first) ---------------------------------------------------
    def apply_put(
        self,
        region: Region,
        row: bytes,
        cells: list[tuple[bytes, bytes, bytes, int | None]],
        ts: int,
        charge_wal: bool = True,
    ) -> None:
        self._check_alive()
        if self.row_cache is not None:
            self.row_cache.invalidate_row(region.name, row)
        self.wal.append(WalEntry(region.name, "put", row, tuple(cells), ts))
        if charge_wal:
            self.charge.wal_append()
        region.put_row(row, cells, ts)
        self.charge.rows_written(1)
        if len(region.memstore) >= region.flush_threshold_rows:
            self.flush_region(region)
        self._maybe_split(region)

    def apply_puts(
        self,
        region: Region,
        puts,
        first_ts: int,
    ) -> None:
        """Batched ``apply_put`` with WAL sync charged by the caller
        (one group sync per region batch) and timestamps pre-reserved
        as a contiguous block starting at ``first_ts``. Emits the same
        WAL entries, per-row charges and flush checks as per-put
        application, with the per-put lookup overhead hoisted out of
        the loop."""
        self._check_alive()
        region._check_online()  # single-threaded: cannot flip mid-batch
        if self.row_cache is not None:
            cache_invalidate = self.row_cache.invalidate_row
            for op in puts:
                cache_invalidate(region.name, op.row)
        wal = self.wal
        wal_buffer_append = wal.buffer_for(region.name).append
        wal.total_appends += len(puts)  # accounted up front for the batch
        region_name = region.name
        memstore = region.memstore
        memstore_put = memstore.apply_put
        entries = memstore._entries  # flush-threshold check, C-level len
        threshold = region.flush_threshold_rows
        kv_overhead = region.kv_overhead_bytes
        size_delta = 0
        ts = first_ts - 1
        for op in puts:
            ts += 1
            row = op.row
            cells = op.cells
            wal_buffer_append(WalEntry(region_name, "put", row, tuple(cells), ts))
            size_delta += memstore_put(row, cells, ts, len(row) + kv_overhead)
            if len(entries) >= threshold:
                region._approx_size_bytes += size_delta
                size_delta = 0
                # the flush re-arms the same MemStore object with
                # fresh containers and truncates this region's WAL
                # buffer: re-fetch both hoisted references
                self.flush_region(region)
                entries = memstore._entries
                wal_buffer_append = wal.buffer_for(region_name).append
        # nothing in the loop reads the clock or draws, so the per-row
        # write charges are made together, in row order
        self.charge.rows_written(len(puts))
        region._approx_size_bytes += size_delta
        # split check once per batch, at a safe point: splitting inside
        # the loop would offline the region the remaining puts target
        self._maybe_split(region)

    def apply_delete(
        self,
        region: Region,
        row: bytes,
        columns: list[tuple[bytes, bytes]] | None,
        ts: int,
    ) -> None:
        self._check_alive()
        if self.row_cache is not None:
            self.row_cache.invalidate_row(region.name, row)
        self.wal.append(WalEntry(region.name, "delete", row, columns, ts))
        self.charge.wal_append()
        region.delete_row(row, columns, ts)
        self.charge.rows_written(1)

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
        for e in entries:
            if e.kind == "put":
                region.put_row(e.row, e.payload, e.timestamp)
            else:
                region.delete_row(e.row, e.payload, e.timestamp)
        return len(entries)
