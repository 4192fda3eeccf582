"""The simulated cluster: HMaster duties + meta table + timestamp oracle.

The master creates tables (optionally pre-split), assigns regions
round-robin across region servers, and recovers regions from a crashed
server by re-opening them elsewhere and replaying the WAL — the same
fault-tolerance story the paper's HBase layer provides.

Scale-out duties live here too: size-triggered mid-key region splits
(daughters inherit store contents as zero-copy views and open on the
parent's server, as in real HBase), explicit server addition, and the
:class:`RegionBalancer`, which evens out region bytes across servers.
Every placement decision is a pure function of the cluster state, so
rebalancing is bit-reproducible.
"""

from __future__ import annotations

import bisect

from repro.config import ClusterConfig, DEFAULT_CLUSTER_CONFIG
from repro.errors import (
    ClusterConfigError,
    HBaseError,
    RegionSplitError,
    RegionUnavailableError,
    ReplicationError,
    ServerRecoveryError,
    TableExistsError,
    TableNotFoundError,
)
from repro.hbase.region import Region
from repro.hbase.regionserver import RegionServer
from repro.hbase.replication import ReplicationManager
from repro.sim.clock import Simulation


class TableDescriptor:
    """Table metadata: families, version limit, region layout.

    ``version`` is the region-layout generation: it moves whenever the
    region list changes (recovery swap, drop), which is the signal the
    client-side location caches key their invalidation on.
    """

    def __init__(
        self,
        name: str,
        families: tuple[bytes, ...],
        max_versions: int,
        regions: list[Region],
    ) -> None:
        self.name = name
        self.families = families
        self.max_versions = max_versions
        self.regions = regions  # sorted by start key
        self.version = 0
        self._starts = [r.start_key for r in regions]

    def invalidate_locations(self) -> None:
        """Rebuild the routing index after the region list changed."""
        self._starts = [r.start_key for r in self.regions]
        self.version += 1

    def region_for(self, row: bytes) -> Region:
        # regions tile the key space and the first always starts at b"",
        # so the candidate is the rightmost region starting at or before row
        i = bisect.bisect_right(self._starts, row) - 1
        if i >= 0:
            region = self.regions[i]
            if region.contains(row):
                return region
        raise TableNotFoundError(
            f"no region for row {row!r} in table {self.name}"
        )  # pragma: no cover - regions always tile the key space

class HBaseCluster:
    """Owns region servers and table metadata; issues timestamps."""

    def __init__(
        self,
        sim: Simulation,
        config: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
    ) -> None:
        self.sim = sim
        self.config = config
        self.servers: list[RegionServer] = [
            RegionServer(f"rs{i + 1}", sim, serving=config.serving)
            for i in range(config.num_region_servers)
        ]
        self.tables: dict[str, TableDescriptor] = {}
        self._ts = 0
        self._assign_cursor = 0
        self._region_host: dict[str, RegionServer] = {}
        self.layout_epoch = 0
        """Cluster-wide layout generation: moves on every topology
        mutation (table DDL, server add/drain, region move/split/merge,
        recovery, replica-count change). Orchestration steps fence on
        it — a step fenced against one epoch refuses to apply after the
        layout moved underneath it."""
        for server in self.servers:
            server.on_region_grown = self._auto_split
        self.replication = ReplicationManager(self)
        """Region-replication manager. A region without a group has no
        ship-log tap and no followers, so it behaves — and charges — as
        if replication did not exist."""

    # -- timestamp oracle ----------------------------------------------------------
    def reserve_timestamps(self, n: int) -> int:
        """Allocate a contiguous block of ``n`` timestamps (one oracle
        round trip per batch instead of per mutation); returns the first."""
        first = self._ts + 1
        self._ts += n
        return first

    def _bump_layout(self) -> None:
        self.layout_epoch += 1

    # -- DDL -------------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        families: tuple[bytes, ...] = (b"cf",),
        split_keys: list[bytes] | None = None,
        max_versions: int | None = None,
    ) -> TableDescriptor:
        if name in self.tables:
            raise TableExistsError(name)
        if max_versions is None:
            max_versions = 1
        elif max_versions < 1:
            raise ClusterConfigError(
                f"max_versions must be >= 1, got {max_versions}"
            )
        boundaries: list[bytes | None] = [b""]
        boundaries.extend(sorted(split_keys or []))
        boundaries.append(None)
        regions = []
        for i in range(len(boundaries) - 1):
            start = boundaries[i]
            assert start is not None
            region = Region(
                table_name=name,
                start_key=start,
                end_key=boundaries[i + 1],
                max_versions=max_versions,
                kv_overhead_bytes=self.sim.cost.kv_overhead_bytes,
                split_threshold_bytes=self.config.region_split_threshold_bytes,
            )
            regions.append(region)
            self._assign(region)
        desc = TableDescriptor(name, families, max_versions, regions)
        self.tables[name] = desc
        self._bump_layout()
        return desc

    def descriptor(self, name: str) -> TableDescriptor:
        try:
            return self.tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    # -- region placement ----------------------------------------------------------
    def _assign(self, region: Region) -> None:
        live = [s for s in self.servers if s.alive]
        if not live:
            raise HBaseError(f"no live region server to open {region.name} on")
        # draining servers are leaving the rotation; fall back to them
        # only when nothing else is up (availability first)
        candidates = [s for s in live if not s.draining] or live
        server = candidates[self._assign_cursor % len(candidates)]
        self._assign_cursor += 1
        server.host(region)
        self._region_host[region.name] = server

    def server_for(self, region: Region) -> RegionServer:
        try:
            return self._region_host[region.name]
        except KeyError:
            # a stale client handle addressing a region that left the
            # meta table (split parent, dropped table): same failure the
            # relocation retry handles for an offline region object
            raise RegionUnavailableError(
                f"region {region.name} is no longer hosted"
            ) from None

    def add_servers(
        self, n: int = 1, names: list[str] | None = None
    ) -> list[RegionServer]:
        """Scale out: bring ``n`` fresh (empty) region servers online
        (or one per explicit name in ``names``). Existing regions stay
        put until a :class:`RegionBalancer` run moves some of them over.
        A requested name that collides with an existing server — or
        repeats within ``names`` — raises
        :class:`~repro.errors.ClusterConfigError`: silently reusing a
        member name would fork the identity every ``_region_host`` and
        recovery decision keys on."""
        existing = {s.name for s in self.servers}
        if names is not None:
            n = len(names)
            seen: set[str] = set()
            for name in names:
                if name in existing:
                    raise ClusterConfigError(
                        f"region server {name!r} already exists"
                    )
                if name in seen:
                    raise ClusterConfigError(
                        f"duplicate region server name {name!r} in add_servers"
                    )
                seen.add(name)
        fresh = []
        for i in range(n):
            if names is not None:
                name = names[i]
            else:
                # skip over explicitly-named members ("rs7" may exist
                # on a 5-server cluster) instead of colliding with them
                j = len(self.servers) + 1
                while f"rs{j}" in existing:
                    j += 1
                name = f"rs{j}"
            existing.add(name)
            server = RegionServer(name, self.sim, serving=self.config.serving)
            server.on_region_grown = self._auto_split
            self.servers.append(server)
            fresh.append(server)
        if fresh:
            self._bump_layout()
        return fresh

    def remove_server(self, server: RegionServer | str) -> None:
        """Take a server out of the membership entirely (orchestration
        rollback removes the members a failed stage added). Only an
        empty server may leave (drain it first): removing one that
        still hosts primaries or followers would strand state."""
        if isinstance(server, str):
            server = self.server_named(server)
        if server.regions or server.follower_regions:
            raise ClusterConfigError(
                f"server {server.name} still hosts state; drain it "
                "before removing it"
            )
        self.servers.remove(server)
        self._bump_layout()

    def server_named(self, name: str) -> RegionServer:
        for server in self.servers:
            if server.name == name:
                return server
        raise ClusterConfigError(f"no region server named {name!r}")

    def drain_server(self, server: RegionServer | str) -> None:
        """Decommission primitive: mark ``server`` draining (placement,
        balancing and follower top-up all skip it from here on), move
        every primary it hosts to the least-loaded eligible server, and
        rebuild its follower replicas elsewhere.

        Draining a dead server raises
        :class:`~repro.errors.RegionUnavailableError` (moving needs a
        flush the host cannot serve); the orchestration ``DrainServer``
        step degrades that to recovery-then-drain. If some region has
        no eligible target (capacity or anti-affinity), every move
        already performed is reverted and the error propagates — the
        drain is all-or-nothing."""
        if isinstance(server, str):
            server = self.server_named(server)
        if not server.alive:
            raise RegionUnavailableError(
                f"cannot drain {server.name}: server is down "
                "(recover it first)"
            )
        was_draining = server.draining
        server.draining = True
        self._bump_layout()
        performed: list[Region] = []
        try:
            regions = sorted(
                server.regions.values(),
                key=lambda r: (r.table_name, r.start_key),
            )
            for region in regions:
                target = self._drain_target(server, region)
                if target is None:
                    raise HBaseError(
                        f"no eligible server to drain {region.name} "
                        f"off {server.name}"
                    )
                self.move_region(region, target)
                performed.append(region)
        except Exception:
            server.draining = was_draining
            for region in reversed(performed):
                self.move_region(region, server)
            self._bump_layout()
            raise
        self.replication.evacuate_followers(server)

    def _drain_target(
        self, source: RegionServer, region: Region
    ) -> RegionServer | None:
        """Least-loaded eligible destination for one drained region
        (ties break on the server name — fully deterministic)."""
        candidates = [
            s
            for s in self.servers
            if s.alive
            and not s.draining
            and s is not source
            and self.replication.allows_move(region, s)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (len(s.regions), s.name))

    def undrain_server(self, server: RegionServer | str) -> None:
        """Put a drained server back into placement rotation. Regions
        do not move back on their own — a balancer run (or the moves of
        an orchestration rollback) does that."""
        if isinstance(server, str):
            server = self.server_named(server)
        server.draining = False
        self._bump_layout()

    def move_region(self, region: Region, target: RegionServer) -> bool:
        """Reassign one region to ``target``. The source flushes the
        region first (closing a region persists its memstore, so the
        move carries no unflushed state and no WAL dependency across
        servers). Returns False for a no-op move."""
        source = self._region_host.get(region.name)
        if source is None:
            raise HBaseError(f"region {region.name} is not hosted")
        if source is target:
            return False
        if not target.alive:
            raise HBaseError(f"server {target.name} is down")
        if not self.replication.allows_move(region, target):
            raise ReplicationError(
                f"moving primary {region.name} onto {target.name} would "
                "co-host it with its own follower"
            )
        source.flush_region(region)
        source.unhost(region.name)
        target.host(region)
        self._region_host[region.name] = target
        # the ship-log tap must follow the primary onto its new WAL
        self.replication.on_region_moved(region, source, target)
        self._bump_layout()
        return True

    # -- region splitting -------------------------------------------------------------
    def split_region(
        self, region: Region, split_key: bytes | None = None
    ) -> tuple[Region, Region]:
        """Split ``region`` at ``split_key`` (default mid-key) and open
        both daughters on the parent's server. The parent goes offline
        and leaves the meta table; the descriptor's layout version moves
        so client location caches re-resolve. Raises
        :class:`~repro.errors.RegionSplitError` when the region cannot
        be split (fewer than two rows, or an out-of-range key)."""
        server = self._region_host.get(region.name)
        if server is None:
            raise HBaseError(f"region {region.name} is not hosted")
        if region.name in self.replication.groups:
            # splitting would orphan the group's complete-history ship
            # log (each daughter's log would start mid-history); the
            # replicated experiments pre-split at table creation instead
            raise ReplicationError(
                f"region {region.name} is replicated and cannot be split"
            )
        low, high = region.split(split_key)
        server.unhost(region.name)
        del self._region_host[region.name]
        for daughter in (low, high):
            server.host(daughter)
            self._region_host[daughter.name] = server
        desc = self.tables[region.table_name]
        i = next(
            idx for idx, r in enumerate(desc.regions) if r is region
        )
        desc.regions[i : i + 1] = [low, high]
        desc.invalidate_locations()  # stale clients must re-resolve
        self._bump_layout()
        return low, high

    def merge_regions(self, low: Region, high: Region) -> Region:
        """Merge two adjacent regions of a table into one (orchestration
        rollback merges away the boundaries a failed stage added).

        Both daughters flush first (like a move, the merged region must
        carry no unflushed state), then a fresh merged region adopts
        both HFile sets and opens on ``low``'s server. Raises
        :class:`~repro.errors.RegionSplitError` for non-adjacent or
        cross-table pairs, :class:`~repro.errors.ReplicationError` for
        replicated regions (their group ship-log is keyed per region)."""
        if low.table_name != high.table_name:
            raise RegionSplitError(
                f"cannot merge across tables: {low.name} / {high.name}"
            )
        if low.end_key != high.start_key:
            raise RegionSplitError(
                f"regions {low.name} and {high.name} are not adjacent"
            )
        if (
            low.name in self.replication.groups
            or high.name in self.replication.groups
        ):
            raise ReplicationError(
                f"regions {low.name}/{high.name} are replicated "
                "and cannot be merged"
            )
        server_low = self.server_for(low)
        server_high = self.server_for(high)
        server_low.flush_region(low)
        server_high.flush_region(high)
        merged = Region(
            table_name=low.table_name,
            start_key=low.start_key,
            end_key=high.end_key,
            max_versions=low.max_versions,
            kv_overhead_bytes=low.kv_overhead_bytes,
            flush_threshold_rows=low.flush_threshold_rows,
            split_threshold_bytes=low.split_threshold_bytes,
            # both daughters flushed, but a later crash-replay must
            # still route any ancestor-logged edits by key range
            wal_ancestry=tuple(
                dict.fromkeys(
                    low.wal_ancestry
                    + (low.name,)
                    + high.wal_ancestry
                    + (high.name,)
                )
            ),
        )
        merged.hfiles = list(low.hfiles) + list(high.hfiles)
        merged._approx_size_bytes = merged._component_size_bytes()
        for daughter, host in ((low, server_low), (high, server_high)):
            host.unhost(daughter.name)
            del self._region_host[daughter.name]
            daughter.online = False
        server_low.host(merged)
        self._region_host[merged.name] = server_low
        desc = self.tables[low.table_name]
        i = next(idx for idx, r in enumerate(desc.regions) if r is low)
        assert desc.regions[i + 1] is high
        desc.regions[i : i + 2] = [merged]
        desc.invalidate_locations()  # stale clients must re-resolve
        self._bump_layout()
        return merged

    def _auto_split(self, region: Region) -> None:
        """Size-trigger hook: split a grown region, recursively, until
        every daughter is below the threshold or refuses to split."""
        queue = [region]
        while queue:
            r = queue.pop()
            threshold = r.split_threshold_bytes
            if threshold is None or r._approx_size_bytes < threshold:
                continue
            if r.name in self.replication.groups:
                continue  # replicated regions never auto-split
            try:
                queue.extend(self.split_region(r))
            except RegionSplitError:
                continue  # a hot single-row region just keeps growing

    def region_distribution(self) -> dict[str, int]:
        """server name -> hosted region count (for balance checks)."""
        out: dict[str, int] = {s.name: 0 for s in self.servers}
        for server in self._region_host.values():
            out[server.name] += 1
        return out

    # -- failure handling -----------------------------------------------------------
    def recover_server(self, dead: RegionServer) -> int:
        """Master failover: reopen the dead server's regions elsewhere,
        replaying its WAL. Returns the number of regions recovered.

        Guarded against misuse: recovering a live server would re-move
        regions that are being served, and recovering a server twice
        would replay a WAL whose edits already landed (and were flushed)
        on the regions' new hosts — both raise
        :class:`~repro.errors.ServerRecoveryError` instead of silently
        corrupting the layout."""
        if dead.alive:
            raise ServerRecoveryError(
                f"server {dead.name} is alive; refusing to recover it"
            )
        if dead.recovered:
            raise ServerRecoveryError(
                f"server {dead.name} was already recovered; its regions "
                "are hosted elsewhere"
            )
        recovered = 0
        for region_name in list(dead.regions):
            old = dead.unhost(region_name)
            promoted = self.replication.promote(old)
            if promoted is not None:
                # most-caught-up live follower becomes the primary:
                # only the un-shipped log suffix was replayed, not
                # the dead server's whole pending WAL
                region = promoted.region
                promoted.server.host(region)
                del self._region_host[region_name]
                self._region_host[region.name] = promoted.server
                # persist the promoted copy: its memstore rows are
                # now the only unflushed incarnation of these edits
                promoted.server.flush_region(region)
                desc = self.tables[old.table_name]
                desc.regions = [
                    region if r.name == old.name else r
                    for r in desc.regions
                ]
                desc.invalidate_locations()
                recovered += 1
                continue
            fresh = Region(
                table_name=old.table_name,
                start_key=old.start_key,
                end_key=old.end_key,
                max_versions=old.max_versions,
                kv_overhead_bytes=old.kv_overhead_bytes,
                flush_threshold_rows=old.flush_threshold_rows,
                split_threshold_bytes=old.split_threshold_bytes,
                # the fresh incarnation has a new region id: route the
                # dead server's log to it by lineage + key range
                wal_ancestry=old.wal_ancestry + (old.name,),
            )
            fresh.hfiles = list(old.hfiles)  # HFiles live on HDFS
            # seed the size from the surviving store files only (the
            # memstore is empty here): the WAL replay below re-accrues
            # the unflushed rows, so copying the old total would count
            # them twice — and a double-counted size trips the split
            # threshold spuriously
            fresh._approx_size_bytes = fresh._component_size_bytes()
            dead.replay_wal_into(fresh)
            del self._region_host[region_name]
            self._assign(fresh)
            # persist the recovered edits on the new host: they exist
            # only in the fresh memstore here, and the dead server's
            # log is gone after failover — without this flush a second
            # crash would silently lose them
            self.server_for(fresh).flush_region(fresh)
            # swap the region object inside the table descriptor
            desc = self.tables[old.table_name]
            desc.regions = [
                fresh if r.name == old.name else r for r in desc.regions
            ]
            desc.invalidate_locations()  # client caches must not reuse `old`
            # a replicated primary with no live follower took the
            # full-replay path: re-key its group to the fresh
            # incarnation and move the ship-log tap to the new host
            self.replication.on_primary_recovered(
                old, fresh, self.server_for(fresh)
            )
            recovered += 1
        dead.recovered = True
        # groups that lost followers (or whose promotion consumed
        # one) head back to full strength on the surviving servers
        self.replication.repair()
        self._bump_layout()
        return recovered

    def recovery_replay_estimate(self, dead: RegionServer) -> int:
        """Log entries master failover would replay to recover ``dead``
        right now: the best live follower's lag for promotable regions,
        the full pending WAL (own buffer + ancestor ranges) otherwise.
        The chaos engine turns this into the recovery stall that
        replication is meant to shrink."""
        total = 0
        for region in dead.regions.values():
            est = self.replication.promotion_replay_estimate(region)
            if est is None:
                est = len(dead.wal.entries_for(region.name))
                for ancestor in region.wal_ancestry:
                    est += len(
                        dead.wal.entries_for_range(
                            ancestor, region.start_key, region.end_key
                        )
                    )
            total += est
        return total

    # -- replication control --------------------------------------------------------
    def set_replica_count(self, table: str, count: int) -> int:
        """Online replica-count change for one table (see
        :meth:`ReplicationManager.set_replica_count`)."""
        self.descriptor(table)  # typed failure for unknown tables
        delta = self.replication.set_replica_count(table, count)
        self._bump_layout()
        return delta

    # -- stats ------------------------------------------------------------------------
    def table_size_bytes(self, name: str) -> int:
        desc = self.descriptor(name)
        return sum(r.approx_size_bytes for r in desc.regions)

    def total_size_bytes(self) -> int:
        return sum(self.table_size_bytes(t) for t in self.tables)

    def major_compact(self) -> None:
        for desc in self.tables.values():
            for region in desc.regions:
                region.major_compact()

    def table_row_count(self, name: str) -> int:
        return sum(r.row_count() for r in self.descriptor(name).regions)

    def serving_stats(self) -> dict:
        """Aggregate serving-layer counters across every server: row
        cache hits/misses/evictions and admission/shedding totals. Pure
        inspection (no charges, no RNG draws); all zeros — and an empty
        per-server map — when the serving knobs are off."""
        totals = {
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "cache_invalidations": 0,
            "admitted": 0,
            "shed": 0,
        }
        per_server: dict[str, dict] = {}
        for server in self.servers:
            entry: dict = {}
            if server.row_cache is not None:
                stats = server.row_cache.stats()
                entry["cache"] = stats
                totals["cache_hits"] += stats["hits"]
                totals["cache_misses"] += stats["misses"]
                totals["cache_evictions"] += stats["evictions"]
                totals["cache_invalidations"] += stats["invalidations"]
            if server.admission is not None:
                stats = server.admission.stats()
                entry["admission"] = stats
                totals["admitted"] += stats["admitted"]
                totals["shed"] += stats["shed"]
            if entry:
                per_server[server.name] = entry
        lookups = totals["cache_hits"] + totals["cache_misses"]
        totals["cache_hit_ratio"] = (
            totals["cache_hits"] / lookups if lookups else 0.0
        )
        offered = totals["admitted"] + totals["shed"]
        totals["shed_rate"] = totals["shed"] / offered if offered else 0.0
        return {"totals": totals, "servers": per_server}

    def layout_fingerprint(self) -> dict:
        """Structural snapshot of the whole layout: per-table region
        boundaries, hosting and row counts; per-server liveness/drain
        state; follower placement per replicated key range. Pure
        inspection (no charges, no RNG draws) — orchestration compares
        fingerprints to decide whether a rollback restored the last
        committed stage, and tests assert equality across reruns."""
        tables: dict[str, list] = {}
        for name in sorted(self.tables):
            tables[name] = [
                {
                    "start": r.start_key.hex(),
                    "end": None if r.end_key is None else r.end_key.hex(),
                    "host": (
                        self._region_host[r.name].name
                        if r.name in self._region_host
                        else None
                    ),
                    "rows": r.row_count(),
                }
                for r in self.tables[name].regions
            ]
        servers = {
            s.name: {
                "alive": s.alive,
                "draining": s.draining,
                "primaries": len(s.regions),
                "followers": len(s.follower_regions),
            }
            for s in self.servers
        }
        replicas: dict[str, list[str]] = {}
        for group in self.replication.groups.values():
            key = (
                f"{group.primary.table_name},"
                f"{group.primary.start_key.hex()}"
            )
            replicas[key] = sorted(f.server.name for f in group.followers)
        return {"tables": tables, "servers": servers, "replicas": replicas}


class RegionBalancer:
    """Redistributes regions across the cluster's live region servers:
    greedily moves the best-fitting region from the most-loaded to the
    least-loaded server (load = approximate region bytes) while doing
    so shrinks the spread — a size-weighted balancer that evens out
    skewed post-split layouts. Ordering is by stable sort keys, so
    repeated runs move the same regions to the same servers.
    """

    def __init__(self, cluster: HBaseCluster) -> None:
        self.cluster = cluster

    def _live_servers(self) -> list[RegionServer]:
        # draining servers are on their way out: never a balance target
        return [s for s in self.cluster.servers if s.alive and not s.draining]

    def _hosted_regions(self) -> list[Region]:
        """Every hosted region, in a stable deterministic order."""
        regions = []
        for desc in self.cluster.tables.values():
            regions.extend(desc.regions)
        regions.sort(key=lambda r: (r.table_name, r.start_key))
        return regions

    def rebalance(self) -> int:
        """Even the layout out; returns the number of regions moved.
        Tables whose regions moved get their layout version bumped, so
        client relocation caches re-resolve instead of talking to the
        old host."""
        servers = self._live_servers()
        if len(servers) < 2:
            return 0
        allows_move = self.cluster.replication.allows_move
        # never co-host a primary with its own follower
        moves = [
            (region, target)
            for region, target in self._load_aware_moves(servers)
            if allows_move(region, target)
        ]
        moved_tables = set()
        moved = 0
        for region, target in moves:
            if self.cluster.move_region(region, target):
                moved += 1
                moved_tables.add(region.table_name)
        for table in sorted(moved_tables):
            self.cluster.tables[table].invalidate_locations()
        return moved

    def _load_aware_moves(
        self, servers: list[RegionServer]
    ) -> list[tuple[Region, RegionServer]]:
        server_for = self.cluster.server_for
        load: dict[str, int] = {s.name: 0 for s in servers}
        hosted: dict[str, list[Region]] = {s.name: [] for s in servers}
        by_name = {s.name: s for s in servers}
        for region in self._hosted_regions():
            host = server_for(region)
            if host.name in load:
                # count every region as at least one byte so empty
                # regions still spread instead of piling on one server
                load[host.name] += max(region.approx_size_bytes, 1)
                hosted[host.name].append(region)
        moves: list[tuple[Region, RegionServer]] = []
        while True:
            names = sorted(load)
            hi = max(names, key=lambda n: (load[n], n))
            lo = min(names, key=lambda n: (load[n], n))
            gap = load[hi] - load[lo]
            if gap <= 0 or not hosted[hi]:
                break
            # the region whose size is closest to half the gap shrinks
            # the spread the most; ties break on the stable sort order
            candidate = min(
                hosted[hi],
                key=lambda r: abs(max(r.approx_size_bytes, 1) - gap / 2),
            )
            size = max(candidate.approx_size_bytes, 1)
            if size >= gap:  # moving it would just flip the imbalance
                break
            hosted[hi].remove(candidate)
            hosted[lo].append(candidate)
            load[hi] -= size
            load[lo] += size
            moves.append((candidate, by_name[lo]))
        return moves
