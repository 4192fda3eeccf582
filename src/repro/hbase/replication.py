"""Region replication: WAL shipping, follower reads, promotion-on-crash.

Each replicated region forms a :class:`ReplicationGroup`: the *primary*
(the region the table descriptor routes to) plus ``replica_count - 1``
:class:`FollowerReplica` copies hosted on other servers. The group owns
a **ship log** — the region's complete edit history, fed by a tap on
the primary's :class:`~repro.hbase.wal.WriteAheadLog` buffer — and each
follower is exactly a prefix of that log applied to an otherwise empty
region. That single invariant drives everything:

* **shipping** — the :class:`ReplicationShipper` scheduler daemon (same
  mechanism as the chaos engine's ``FaultInjector``) drains each
  follower's pending suffix in batches, advancing its ``applied``
  watermark; an edit is acknowledged once the primary's WAL sync
  returns;
* **follower reads** — a read pinned to a follower's watermark sees the
  log prefix ``log[:applied]``: a pure subset of acknowledged writes,
  so a follower can never serve a never-acked or rolled-back value, and
  the client-side staleness bound is just ``len(log) - applied``;
* **promotion** — when the primary's server crashes, master failover
  promotes the most-caught-up live follower (deterministic tie-break
  through a SimRNG stream) and replays only ``log[applied:]`` — the
  un-shipped suffix — instead of the dead server's whole pending WAL;
* **rebuild** — a follower lost with its server is pure derived state:
  a replacement is a fresh region plus a full log replay.

Every cluster has a manager; replication is per table, as HBase's
``REGION_REPLICATION`` is. A region without a group has no tap and no
followers, so it behaves — and charges — as if replication did not
exist. With ``replica_count=1`` (the default) no table gets a group
unless a replica-count change asks for one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SHIP_ENTRY_MS
from repro.errors import ReplicationError
from repro.hbase.region import Region
from repro.hbase.wal import WalEntry
from repro.sim.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster
    from repro.hbase.regionserver import RegionServer

SHIP_INTERVAL_MS = 4.0
"""Virtual pause between shipper drain rounds (the push cadence)."""

SHIP_BATCH_ENTRIES = 8
"""WAL entries the shipper pushes to one follower per drain round."""

STALENESS_BOUND_ENTRIES = 32
"""Bounded-staleness follower reads: a follower may serve a read only
while its applied-WAL watermark lags the primary's log by at most this
many entries. Reads are pinned to the watermark, so a follower can
never return a value that was not acknowledged."""


class FollowerReplica:
    """One follower copy: a region object that is exactly the group's
    log prefix ``log[:applied]``, hosted in a server's
    ``follower_regions`` (never in the table descriptor)."""

    __slots__ = ("region", "server", "applied")

    def __init__(
        self, region: Region, server: "RegionServer", applied: int
    ) -> None:
        self.region = region
        self.server = server
        self.applied = applied

    def is_live(self) -> bool:
        return self.server.alive and self.region.online


class ReplicationGroup:
    """Primary + followers + complete edit history for one key range."""

    def __init__(self, primary: Region) -> None:
        self.primary = primary
        self.log: list[WalEntry] = []
        self.followers: list[FollowerReplica] = []

    def lag_of(self, follower: FollowerReplica) -> int:
        return len(self.log) - follower.applied

    def live_followers(self) -> list[FollowerReplica]:
        return [f for f in self.followers if f.is_live()]


class ReplicationManager:
    """Owns every replication group of one cluster.

    Every :class:`~repro.hbase.cluster.HBaseCluster` builds one. The
    cluster and client hooks key on ``groups.get(region.name)``: a
    region without a group has no tap and no followers, so it behaves
    and charges as if replication did not exist.
    """

    def __init__(self, cluster: "HBaseCluster") -> None:
        self.cluster = cluster
        self.default_replica_count = cluster.config.replica_count
        """Replica target for tables without a per-table override
        (``ClusterConfig`` holds it to at least 1)."""
        self.targets: dict[str, int] = {}
        """Per-table replica-count overrides (orchestration's online
        ``set_replica_count``); tables absent here use the default."""
        self.groups: dict[str, ReplicationGroup] = {}
        """Primary region name -> group (re-keyed on promotion/recovery)."""
        self._rng = derive_rng(cluster.config.seed, "replication")
        self.promotions = 0
        self.followers_rebuilt = 0
        self.entries_shipped = 0

    def target_for(self, table_name: str) -> int:
        """Total copies (primary included) this table should keep."""
        return self.targets.get(table_name, self.default_replica_count)

    def groups_for(self, table_name: str) -> list[ReplicationGroup]:
        """This table's groups, in insertion order (deterministic)."""
        return [
            g
            for g in self.groups.values()
            if g.primary.table_name == table_name
        ]

    # -- group creation ----------------------------------------------------------
    def replicate_table(self, table_name: str, count: int | None = None) -> int:
        """Create one group per region of ``table_name`` (targeting
        ``count`` total copies, default the manager default); returns
        the number of followers placed. Must run before any write
        lands: the ship log is the region's *complete* history, which
        is only true when it starts empty."""
        if count is not None:
            if count < 1:
                raise ReplicationError(
                    f"replica count must be >= 1, got {count}"
                )
            self.targets[table_name] = count
        desc = self.cluster.descriptor(table_name)
        placed = 0
        for region in desc.regions:
            placed += self._create_group(region)
        return placed

    def _create_group(self, region: Region) -> int:
        if region.name in self.groups:
            raise ReplicationError(f"region {region.name} already replicated")
        if len(region.memstore) > 0 or region.hfiles:
            raise ReplicationError(
                f"region {region.name} is not empty: the ship log must "
                "start at the region's first edit"
            )
        group = ReplicationGroup(region)
        self.groups[region.name] = group
        host = self.cluster.server_for(region)
        host.wal.install_tap(region.name, group.log.append)
        return self._top_up(group)

    def _follower_hosts(self, group: ReplicationGroup) -> list["RegionServer"]:
        """Eligible servers for a new follower of ``group``, least
        follower-loaded first (ties broken by cluster server order —
        fully deterministic)."""
        primary_host = self.cluster._region_host.get(group.primary.name)
        taken = {f.server.name for f in group.followers}
        out = []
        for server in self.cluster.servers:
            if not server.alive or server.draining or server.name in taken:
                continue
            if server is primary_host:  # anti-affinity
                continue
            out.append(server)
        out.sort(key=lambda s: len(s.follower_regions))  # stable sort
        return out

    def _place_follower(self, group: ReplicationGroup, server) -> None:
        """Build one caught-up follower of ``group`` on ``server`` by
        replaying the full ship log into a fresh region."""
        primary = group.primary
        region = Region(
            table_name=primary.table_name,
            start_key=primary.start_key,
            end_key=primary.end_key,
            max_versions=primary.max_versions,
            kv_overhead_bytes=primary.kv_overhead_bytes,
            flush_threshold_rows=primary.flush_threshold_rows,
            # followers never split: the primary drives the layout
            split_threshold_bytes=None,
        )
        for entry in group.log:
            region.apply(entry)
        server.follower_regions[region.name] = region
        group.followers.append(
            FollowerReplica(region, server, len(group.log))
        )

    def _top_up(self, group: ReplicationGroup) -> int:
        """Place followers until the group holds its table's target
        minus one (or the cluster runs out of eligible servers — the
        group then runs short until :meth:`repair` finds capacity)."""
        added = 0
        want = self.target_for(group.primary.table_name) - 1
        while len(group.followers) < want:
            hosts = self._follower_hosts(group)
            if not hosts:
                break
            self._place_follower(group, hosts[0])
            added += 1
        return added

    def follower_placements(self, table_name: str) -> dict[bytes, list[str]]:
        """Current follower hosting per group, keyed by the primary's
        start key: the durable address that survives crash-time
        promotion renaming a group's primary."""
        return {
            group.primary.start_key: sorted(
                f.server.name for f in group.followers
            )
            for group in self.groups_for(table_name)
        }

    def reconcile_followers(
        self,
        table_name: str,
        placements: dict[bytes, list[str]],
        target: int,
    ) -> None:
        """Force this table's follower hosting and replica target back
        to values recorded at an orchestration stage's start: a rollback
        must restore the *same* placements rather than re-derive
        laggiest-first/least-loaded choices. Recorded hosts that are
        down, gone or now host the group's primary are skipped (the
        group runs short until :meth:`repair` finds capacity)."""
        self.targets[table_name] = target
        existing = {s.name for s in self.cluster.servers}
        for group in self.groups_for(table_name):
            want = list(placements.get(group.primary.start_key, ()))
            for follower in list(group.followers):
                if follower.server.name in want:
                    want.remove(follower.server.name)
                    continue
                follower.server.follower_regions.pop(
                    follower.region.name, None
                )
                follower.region.online = False
                group.followers.remove(follower)
            primary_host = self.cluster._region_host.get(group.primary.name)
            for name in want:
                if name not in existing:
                    continue
                server = self.cluster.server_named(name)
                if not server.alive or server is primary_host:
                    continue
                self._place_follower(group, server)

    # -- shipping ------------------------------------------------------------------
    def ship_pending(self) -> int:
        """One drain round: push up to ``SHIP_BATCH_ENTRIES`` log entries to
        every live lagging follower; returns entries shipped. Group and
        follower iteration order is insertion order — deterministic."""
        shipped = 0
        for group in self.groups.values():
            log = group.log
            for follower in group.followers:
                if not follower.is_live() or follower.applied >= len(log):
                    continue
                batch = log[follower.applied : follower.applied + SHIP_BATCH_ENTRIES]
                for entry in batch:
                    follower.region.apply(entry)
                follower.applied += len(batch)
                shipped += len(batch)
        self.entries_shipped += shipped
        return shipped

    # -- follower reads ----------------------------------------------------------
    def follower_for_read(self, region: Region) -> FollowerReplica | None:
        """The most-caught-up live follower of ``region`` whose lag is
        within ``STALENESS_BOUND_ENTRIES``, or None (caller falls
        back to the primary). Ties keep the first-placed follower."""
        group = self.groups.get(region.name)
        if group is None:
            return None
        best: FollowerReplica | None = None
        for follower in group.followers:
            if not follower.is_live():
                continue
            if group.lag_of(follower) > STALENESS_BOUND_ENTRIES:
                continue
            if best is None or follower.applied > best.applied:
                best = follower
        return best

    def row_lag(self, region: Region, follower: FollowerReplica, row: bytes) -> int:
        """Edits to ``row`` still missing from ``follower`` — the exact
        pinning the staleness oracle checks: the follower's view of the
        row is its (total - row_lag)-th acknowledged value."""
        group = self.groups[region.name]
        return sum(1 for e in group.log[follower.applied :] if e.row == row)

    def missing_rows(
        self,
        region: Region,
        follower: FollowerReplica,
        start: bytes,
        stop: bytes | None,
    ) -> dict[bytes, int]:
        """Per-row count of un-applied edits inside ``[start, stop)`` at
        the moment a follower scan window opens (the scan-side staleness
        pinning)."""
        group = self.groups[region.name]
        missing: dict[bytes, int] = {}
        for e in group.log[follower.applied :]:
            if e.row >= start and (stop is None or e.row < stop):
                missing[e.row] = missing.get(e.row, 0) + 1
        return missing

    # -- promotion & repair --------------------------------------------------------
    def promote(self, old_primary: Region) -> FollowerReplica | None:
        """Master failover hook: promote the most-caught-up live
        follower of ``old_primary`` (ties broken via the manager's
        SimRNG stream), replaying only the un-shipped log suffix.
        Returns the promoted replica — already detached from follower
        hosting, not yet registered as a primary (the cluster does
        that) — or None when no live follower exists."""
        group = self.groups.get(old_primary.name)
        if group is None or group.primary is not old_primary:
            return None
        live = group.live_followers()
        if not live:
            return None
        del self.groups[old_primary.name]
        best_applied = max(f.applied for f in live)
        tied = [f for f in live if f.applied == best_applied]
        choice = (
            tied[int(self._rng.integers(len(tied)))] if len(tied) > 1 else tied[0]
        )
        for entry in group.log[choice.applied :]:
            choice.region.apply(entry)
        choice.applied = len(group.log)
        del choice.server.follower_regions[choice.region.name]
        group.followers.remove(choice)
        group.primary = choice.region
        self.groups[choice.region.name] = group
        choice.server.wal.install_tap(choice.region.name, group.log.append)
        self.promotions += 1
        return choice

    def promotion_replay_estimate(self, old_primary: Region) -> int | None:
        """Log entries a promotion of ``old_primary`` would replay (the
        best live follower's lag), or None when the region would take
        the full-WAL-replay recovery path instead."""
        group = self.groups.get(old_primary.name)
        if group is None or group.primary is not old_primary:
            return None
        live = group.live_followers()
        if not live:
            return None
        return len(group.log) - max(f.applied for f in live)

    def on_primary_recovered(
        self, old: Region, fresh: Region, host: "RegionServer"
    ) -> None:
        """Re-key a group whose primary took the full-replay recovery
        path (no live follower to promote): the fresh incarnation is
        the new primary. Its replayed edits were already tapped when
        first written, so the log needs nothing."""
        group = self.groups.pop(old.name, None)
        if group is None:
            return
        group.primary = fresh
        self.groups[fresh.name] = group
        host.wal.install_tap(fresh.name, group.log.append)

    def on_region_moved(
        self, region: Region, source: "RegionServer", target: "RegionServer"
    ) -> None:
        """Keep the ship-log tap on the WAL the primary now writes to
        (the cluster checked :meth:`allows_move` before moving)."""
        group = self.groups.get(region.name)
        if group is None:
            return
        source.wal.remove_tap(region.name)
        target.wal.install_tap(region.name, group.log.append)

    def allows_move(self, region: Region, target: "RegionServer") -> bool:
        """Balancer filter: may ``region`` (if it is a replicated
        primary) move to ``target`` without violating anti-affinity?"""
        group = self.groups.get(region.name)
        if group is None:
            return True
        return all(f.server is not target for f in group.followers)

    def set_replica_count(self, table_name: str, count: int) -> int:
        """Online replica-count change for one table; returns the net
        follower delta (placed minus dropped).

        Raising the target rebuilds new followers from the group ship
        logs (fresh region + full-history replay). Lowering it drops
        the laggiest followers first (ties drop the latest-placed).
        ``count=1`` keeps the groups — taps installed, complete logs
        still growing — with zero followers, so a later raise needs no
        empty-region precondition; note such a table still refuses
        splits like any replicated table. Enabling replication on a
        table with *no* groups requires its regions to be empty (the
        log must be the complete history) and raises
        :class:`~repro.errors.ReplicationError` otherwise."""
        if count < 1:
            raise ReplicationError(f"replica count must be >= 1, got {count}")
        groups = self.groups_for(table_name)
        if not groups:
            if count == 1:
                self.targets[table_name] = count
                return 0
            return self.replicate_table(table_name, count)
        self.targets[table_name] = count
        want = count - 1
        delta = 0
        for group in groups:
            while len(group.followers) > want:
                victim = min(
                    enumerate(group.followers),
                    key=lambda kv: (kv[1].applied, -kv[0]),
                )[1]
                victim.server.follower_regions.pop(victim.region.name, None)
                victim.region.online = False
                group.followers.remove(victim)
                delta -= 1
            if len(group.followers) < want:
                added = self._top_up(group)
                self.followers_rebuilt += added
                delta += added
        return delta

    def dereplicate_table(self, table_name: str) -> int:
        """Remove this table's groups entirely: drop followers, remove
        the ship-log taps, forget the logs — what an orchestration
        rollback does to a table that had no groups when its stage
        started; returns groups removed. Unlike
        ``set_replica_count(table, 1)`` this discards the complete
        history, so re-replicating later needs empty regions again."""
        removed = 0
        for group in self.groups_for(table_name):
            for follower in group.followers:
                follower.server.follower_regions.pop(
                    follower.region.name, None
                )
                follower.region.online = False
            host = self.cluster._region_host.get(group.primary.name)
            if host is not None:
                host.wal.remove_tap(group.primary.name)
            del self.groups[group.primary.name]
            removed += 1
        self.targets.pop(table_name, None)
        return removed

    def evacuate_followers(self, server: "RegionServer") -> int:
        """Drain hook: drop every follower hosted on ``server`` and
        rebuild replacements elsewhere (fresh region + full log replay);
        returns followers rebuilt. The caller marks the server draining
        first, so replacements never land back on it."""
        rebuilt = 0
        for group in self.groups.values():
            for follower in list(group.followers):
                if follower.server is not server:
                    continue
                server.follower_regions.pop(follower.region.name, None)
                follower.region.online = False
                group.followers.remove(follower)
                rebuilt += self._top_up(group)
        self.followers_rebuilt += rebuilt
        return rebuilt

    def repair(self) -> int:
        """Drop dead followers and rebuild replacements on live servers
        (fresh region + full log replay). Run after recovery/restart so
        every group heads back to full strength; returns followers
        rebuilt."""
        rebuilt = 0
        for group in self.groups.values():
            kept = []
            for follower in group.followers:
                if follower.is_live():
                    kept.append(follower)
                else:
                    follower.server.follower_regions.pop(
                        follower.region.name, None
                    )
            group.followers = kept
            rebuilt += self._top_up(group)
        self.followers_rebuilt += rebuilt
        return rebuilt


class ReplicationShipper:
    """Daemon scheduler participant that drains the ship queues.

    Installed like the chaos engine's ``FaultInjector``: a background
    virtual client whose clock interleaves with the workload by the
    min-virtual-timestamp rule. Each round ships one batch per lagging
    follower, charges the per-entry apply cost on its own timeline
    (asynchronous replication never blocks the writer) and sleeps for
    the configured ship interval.
    """

    def __init__(self, manager: ReplicationManager) -> None:
        self.manager = manager

    def install(self, scheduler):
        return scheduler.add_client(
            "replication-shipper", self.program, daemon=True
        )

    def program(self, vc):
        while True:
            shipped = self.manager.ship_pending()
            vc.wait(shipped * SHIP_ENTRY_MS, "replication.ship")
            vc.wait(SHIP_INTERVAL_MS, "replication.ship_interval")
            yield "ship"
