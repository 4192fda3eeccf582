"""Region replication: WAL taps, follower placement and shipping,
bounded-staleness follower reads, promotion-on-crash, replica repair —
and the staleness axis of the chaos oracle (including its teeth)."""

from __future__ import annotations

import pytest

from repro.bench.suites.faults import chaos_cell
from repro.config import ClusterConfig, ReplicationConfig
from repro.errors import RegionUnavailableError, ReplicationError
from repro.hbase import HBaseClient, HBaseCluster, Put
from repro.hbase.client import HTable
from repro.hbase.ops import Get
from repro.hbase.replication import ReplicationShipper
from repro.hbase.wal import WalEntry, WriteAheadLog
from repro.sim.clock import Simulation
from repro.hbase import chaos
from repro.hbase.chaos import (
    FAMILY,
    QUALIFIER,
    ChaosHistory,
    FaultConfig,
    ScanObservation,
    chaos_scan,
    check_invariants,
)
from repro.sim.scheduler import DeterministicScheduler
from tests.conftest import wal_pending


def entry(row: bytes, ts: int = 1) -> WalEntry:
    return WalEntry("r", "put", row, [(FAMILY, QUALIFIER, b"x", None)], ts)


class TestWalTap:
    def test_tap_feeds_appends_and_survives_flush_truncation(self):
        wal = WriteAheadLog()
        log: list[WalEntry] = []
        wal.install_tap("r", log.append)
        wal.append(entry(b"a"))
        assert [e.row for e in log] == [b"a"]
        wal.truncate("r")  # memstore flush discards the buffer...
        wal.append(entry(b"b"))  # ...but the fresh buffer is tapped again
        assert [e.row for e in log] == [b"a", b"b"]

    def test_install_on_existing_buffer_does_not_replay(self):
        wal = WriteAheadLog()
        wal.append(entry(b"a"))
        log: list[WalEntry] = []
        wal.install_tap("r", log.append)
        assert log == []  # catching up is the installer's job
        wal.append(entry(b"b"))
        assert [e.row for e in log] == [b"b"]
        # the pre-existing entry is still in the buffer, untouched
        assert [e.row for e in wal.entries_for("r")] == [b"a", b"b"]

    def test_truncate_range_keeps_tap_without_retapping_kept_entries(self):
        wal = WriteAheadLog()
        log: list[WalEntry] = []
        wal.install_tap("r", log.append)
        wal.append(entry(b"a"))
        wal.append(entry(b"m"))
        wal.truncate_range("r", b"a", b"b")  # drops only b"a"
        assert [e.row for e in wal.entries_for("r")] == [b"m"]
        assert [e.row for e in log] == [b"a", b"m"]  # no double-feed
        wal.append(entry(b"z"))
        assert [e.row for e in log] == [b"a", b"m", b"z"]

    def test_remove_tap_stops_the_feed(self):
        wal = WriteAheadLog()
        log: list[WalEntry] = []
        wal.install_tap("r", log.append)
        wal.append(entry(b"a"))
        wal.remove_tap("r")
        wal.append(entry(b"b"))
        assert [e.row for e in log] == [b"a"]

    def test_clear_drops_taps(self):
        """A restarted server hosts nothing: any tap left would feed a
        log owned by a region now living (and tapped) elsewhere."""
        wal = WriteAheadLog()
        log: list[WalEntry] = []
        wal.install_tap("r", log.append)
        wal.clear()
        wal.append(entry(b"a"))
        assert log == []


def build_replicated_fixture(
    num_servers=3,
    rows=60,
    split_at=(20, 40),
    replica_count=2,
    seed=11,
    **rep_overrides,
):
    """A replicated cluster with the key space spread over three regions
    and the preload already written (followers still at watermark 0)."""
    sim = Simulation(seed=seed)
    cluster = HBaseCluster(
        sim,
        ClusterConfig(
            num_region_servers=num_servers,
            seed=seed,
            replication=ReplicationConfig(
                replica_count=replica_count, **rep_overrides
            ),
        ),
    )
    client = HBaseClient(cluster)
    splits = [b"%08d" % k for k in split_at]
    table = client.create_table("c", families=(FAMILY,), split_keys=splits)
    cluster.replication.replicate_table("c")
    puts = []
    for i in range(rows):
        p = Put(b"%08d" % i)
        p.add(FAMILY, QUALIFIER, b"seed-%06d" % i)
        puts.append(p)
    table.put_batch(puts)
    sim.reset_clock()
    return sim, cluster


def value_at(cluster, row: bytes, table="c") -> bytes | None:
    result = HTable(cluster, table).get(Get(row))
    return None if result is None else result.value(FAMILY, QUALIFIER)


class TestPlacement:
    def test_default_config_creates_no_manager(self):
        sim = Simulation(seed=1)
        cluster = HBaseCluster(sim, ClusterConfig(seed=1))
        assert cluster.replication is None
        assert all(not s.follower_regions for s in cluster.servers)

    def test_followers_never_share_the_primary_host(self):
        _sim, cluster = build_replicated_fixture(replica_count=3)
        manager = cluster.replication
        for group in manager.groups.values():
            primary_host = cluster.server_for(group.primary)
            assert len(group.followers) == 2
            hosts = [f.server for f in group.followers]
            assert primary_host not in hosts
            assert len({s.name for s in hosts}) == 2  # distinct servers

    def test_replicating_a_nonempty_region_is_rejected(self):
        """The ship log must be the region's complete edit history."""
        sim = Simulation(seed=1)
        cluster = HBaseCluster(
            sim,
            ClusterConfig(
                seed=1, replication=ReplicationConfig(replica_count=2)
            ),
        )
        table = HBaseClient(cluster).create_table("c", families=(FAMILY,))
        p = Put(b"a")
        p.add(FAMILY, QUALIFIER, b"1")
        table.put(p)
        with pytest.raises(ReplicationError, match="not empty"):
            cluster.replication.replicate_table("c")

    def test_double_replication_is_rejected(self):
        _sim, cluster = build_replicated_fixture()
        with pytest.raises(ReplicationError, match="already replicated"):
            cluster.replication.replicate_table("c")

    def test_short_cluster_runs_under_strength(self):
        """replica_count=3 on two servers: one follower placed (the
        only non-primary host), not an error — repair() tops up later
        when capacity appears."""
        _sim, cluster = build_replicated_fixture(
            num_servers=2, replica_count=3
        )
        for group in cluster.replication.groups.values():
            assert len(group.followers) == 1

    def test_replicated_region_refuses_to_split(self):
        _sim, cluster = build_replicated_fixture()
        region = next(iter(cluster.tables["c"].regions))
        with pytest.raises(ReplicationError, match="cannot be split"):
            cluster.split_region(region)

    def test_move_respects_anti_affinity(self):
        _sim, cluster = build_replicated_fixture()
        manager = cluster.replication
        group = next(iter(manager.groups.values()))
        follower_host = group.followers[0].server
        with pytest.raises(ReplicationError, match="co-host"):
            cluster.move_region(group.primary, follower_host)

    def test_move_retaps_the_new_host_wal(self):
        _sim, cluster = build_replicated_fixture(num_servers=4)
        manager = cluster.replication
        group = next(iter(manager.groups.values()))
        follower_hosts = {f.server.name for f in group.followers}
        old_host = cluster.server_for(group.primary)
        target = next(
            s
            for s in cluster.servers
            if s is not old_host and s.name not in follower_hosts
        )
        before = len(group.log)
        assert cluster.move_region(group.primary, target)
        handle = HTable(cluster, "c")
        p = Put(group.primary.start_key or b"%08d" % 0)
        p.add(FAMILY, QUALIFIER, b"after-move")
        handle.put(p)
        assert len(group.log) == before + 1  # the tap followed the move


class TestShipping:
    def test_ship_pending_applies_the_log_prefix(self):
        _sim, cluster = build_replicated_fixture()
        manager = cluster.replication
        group = next(iter(manager.groups.values()))
        follower = group.followers[0]
        assert follower.applied == 0  # preload not shipped yet
        shipped = manager.ship_pending(batch_entries=5)
        assert shipped > 0
        assert follower.applied == 5  # one batch per drain round
        manager.ship_pending(batch_entries=10_000)
        assert follower.applied == len(group.log)
        # the follower region now holds exactly the primary's rows
        row = group.primary.start_key or b"%08d" % 0
        result = follower.region.read_row(row, None)
        assert result is not None

    def test_ack_mode_all_ships_synchronously_with_the_write(self):
        _sim, cluster = build_replicated_fixture(ack_mode="all")
        manager = cluster.replication
        manager.ship_pending(10_000)  # drain the preload backlog
        handle = HTable(cluster, "c")
        p = Put(b"%08d" % 5)
        p.add(FAMILY, QUALIFIER, b"sync")
        handle.put(p)
        for group in manager.groups.values():
            for follower in group.followers:
                assert follower.applied == len(group.log)

    def test_shipper_daemon_drains_during_a_scheduled_run(self):
        sim, cluster = build_replicated_fixture()
        manager = cluster.replication
        scheduler = DeterministicScheduler(sim)
        handle = HTable(cluster, "c")

        def writer(vc):
            for i in range(6):
                p = Put(b"%08d" % (10 + i))
                p.add(FAMILY, QUALIFIER, b"w%d" % i)
                handle.put(p)
                vc.clock.advance(20.0)
                yield "write"

        scheduler.add_client("writer", writer)
        ReplicationShipper(manager).install(scheduler)
        scheduler.run()
        assert manager.entries_shipped > 0
        # long gaps between writes gave the daemon time to fully drain
        for group in manager.groups.values():
            for follower in group.followers:
                assert follower.applied == len(group.log)


class TestFollowerReads:
    def test_get_serves_from_follower_within_bound(self):
        _sim, cluster = build_replicated_fixture()
        manager = cluster.replication
        manager.ship_pending(10_000)
        handle = HTable(cluster, "c", follower_reads=True)
        result = handle.get(Get(b"%08d" % 7))
        assert result.value(FAMILY, QUALIFIER) == b"seed-%06d" % 7
        assert handle.last_follower_lag == (0, 0)

    def test_out_of_bound_follower_falls_back_to_primary(self):
        _sim, cluster = build_replicated_fixture(staleness_bound_entries=3)
        # preload backlog (20 entries/region) far exceeds the bound of 3
        handle = HTable(cluster, "c", follower_reads=True)
        result = handle.get(Get(b"%08d" % 7))
        assert result.value(FAMILY, QUALIFIER) == b"seed-%06d" % 7
        assert handle.last_follower_lag is None  # primary served

    def test_follower_read_is_pinned_to_its_watermark(self):
        """A bounded-stale read returns the exact acked value its
        watermark pins — never a newer or never-acked one."""
        _sim, cluster = build_replicated_fixture(staleness_bound_entries=64)
        manager = cluster.replication
        manager.ship_pending(10_000)
        handle = HTable(cluster, "c", follower_reads=True)
        writer = HTable(cluster, "c")
        p = Put(b"%08d" % 7)
        p.add(FAMILY, QUALIFIER, b"v2")
        writer.put(p)  # un-shipped: followers still hold seed value
        result = handle.get(Get(b"%08d" % 7))
        assert result.value(FAMILY, QUALIFIER) == b"seed-%06d" % 7
        row_lag, entry_lag = handle.last_follower_lag
        assert row_lag == 1 and entry_lag == 1
        manager.ship_pending(10_000)
        result = handle.get(Get(b"%08d" % 7))
        assert result.value(FAMILY, QUALIFIER) == b"v2"
        assert handle.last_follower_lag == (0, 0)

    def test_follower_serves_through_a_primary_outage(self):
        """The robustness win: a crashed (un-recovered) primary does not
        block reads — a live in-bound follower answers them."""
        _sim, cluster = build_replicated_fixture()
        cluster.replication.ship_pending(10_000)
        row = b"%08d" % 30  # middle region
        region = cluster.tables["c"].region_for(row)
        cluster.server_for(region).crash()
        plain = HTable(cluster, "c")
        with pytest.raises(RegionUnavailableError):
            plain.get(Get(row))
        follower_handle = HTable(cluster, "c", follower_reads=True)
        result = follower_handle.get(Get(row))
        assert result.value(FAMILY, QUALIFIER) == b"seed-%06d" % 30

    def test_follower_scan_window_records_staleness_pinning(self):
        _sim, cluster = build_replicated_fixture()
        manager = cluster.replication
        manager.ship_pending(10_000)
        writer = HTable(cluster, "c")
        p = Put(b"%08d" % 3)
        p.add(FAMILY, QUALIFIER, b"v2")
        writer.put(p)  # one un-shipped edit in the first region
        handle = HTable(cluster, "c", follower_reads=True)
        rows = {r.row: r.value(FAMILY, QUALIFIER) for r in handle.scan()}
        assert len(rows) == 60
        assert rows[b"%08d" % 3] == b"seed-%06d" % 3  # pinned, not v2
        assert handle.follower_scan_lag  # windows recorded their lag
        merged = {}
        for _lag, missing in handle.follower_scan_lag:
            merged.update(missing)
        assert merged == {b"%08d" % 3: 1}


class TestPromotion:
    def test_crash_promotes_most_caught_up_follower(self):
        _sim, cluster = build_replicated_fixture()
        manager = cluster.replication
        manager.ship_pending(10_000)
        writer = HTable(cluster, "c")
        p = Put(b"%08d" % 30)
        p.add(FAMILY, QUALIFIER, b"unshipped")
        writer.put(p)  # suffix of exactly one entry
        row = b"%08d" % 30
        region = cluster.tables["c"].region_for(row)
        group = manager.groups[region.name]
        follower_names = {f.server.name for f in group.followers}
        victim = cluster.server_for(region)
        victim.crash()
        cluster.recover_server(victim)
        assert manager.promotions >= 1
        # the promoted region is the old follower object, now routed to
        promoted = cluster.tables["c"].region_for(row)
        assert promoted is group.primary
        assert cluster.server_for(promoted).name in follower_names
        # the un-shipped suffix was replayed: nothing acked was lost
        assert value_at(cluster, row) == b"unshipped"
        assert value_at(cluster, b"%08d" % 25) == b"seed-%06d" % 25

    def test_client_relocates_onto_the_promoted_replica(self):
        """A client handle that located the old primary before the
        crash must ride its cached-location invalidation onto the
        promoted replica — the standard _relocate dance."""
        _sim, cluster = build_replicated_fixture()
        cluster.replication.ship_pending(10_000)
        handle = HTable(cluster, "c")
        row = b"%08d" % 30
        assert handle.get(Get(row)) is not None  # location now cached
        victim = cluster.server_for(cluster.tables["c"].region_for(row))
        victim.crash()
        cluster.recover_server(victim)
        result = handle.get(Get(row))  # stale cache -> relocate -> follower
        assert result.value(FAMILY, QUALIFIER) == b"seed-%06d" % 30

    def test_promotion_tie_break_is_deterministic(self):
        """Two equally-caught-up followers: the winner comes from the
        manager's SimRNG stream, so identical clusters promote the
        identical server."""

        def promoted_server():
            _sim, cluster = build_replicated_fixture(
                num_servers=4, replica_count=3, seed=23
            )
            cluster.replication.ship_pending(10_000)  # both fully caught up
            row = b"%08d" % 30
            region = cluster.tables["c"].region_for(row)
            victim = cluster.server_for(region)
            victim.crash()
            cluster.recover_server(victim)
            return cluster.server_for(
                cluster.tables["c"].region_for(row)
            ).name

        assert promoted_server() == promoted_server()

    def test_all_followers_dead_falls_back_to_wal_replay(self):
        """No live follower: the fresh-region WAL-replay path recovers
        the data and the group re-keys onto the fresh incarnation."""
        _sim, cluster = build_replicated_fixture(num_servers=3)
        manager = cluster.replication
        manager.ship_pending(10_000)
        row = b"%08d" % 30
        region = cluster.tables["c"].region_for(row)
        group = manager.groups[region.name]
        primary_host = cluster.server_for(region)
        for follower in group.followers:
            follower.server.crash()
        primary_host.crash()
        moved = cluster.recover_server(primary_host)
        assert moved >= 1
        assert manager.promotions == 0
        fresh = cluster.tables["c"].region_for(row)
        assert fresh is not region
        assert manager.groups.get(fresh.name) is group  # re-keyed
        assert value_at(cluster, row) == b"seed-%06d" % 30

    def test_repair_rebuilds_lost_followers(self):
        _sim, cluster = build_replicated_fixture(num_servers=3)
        manager = cluster.replication
        manager.ship_pending(10_000)
        group = next(iter(manager.groups.values()))
        follower = group.followers[0]
        victim = follower.server
        victim.crash()
        # recover_server ends with a repair pass: the dead follower is
        # pruned and rebuilt on the remaining eligible live server
        cluster.recover_server(victim)
        assert manager.followers_rebuilt >= 1
        assert all(f.server is not victim
                   for g in manager.groups.values() for f in g.followers)
        victim.restart()
        assert manager.repair() == 0  # already at strength
        for g in manager.groups.values():
            assert len(g.followers) == 1
            for f in g.followers:
                assert f.is_live()
                assert f.applied == len(g.log)  # rebuilt = full replay

    def test_recovery_replay_estimate_shrinks_with_replication(self):
        """The quantity the chaos stall knob charges: a promotable
        region replays only its suffix, an unreplicated one the whole
        pending WAL."""
        _sim, plain = build_replicated_fixture(replica_count=2)
        sim2 = Simulation(seed=11)
        unrep = HBaseCluster(
            sim2, ClusterConfig(num_region_servers=3, seed=11)
        )
        client = HBaseClient(unrep)
        splits = [b"%08d" % k for k in (20, 40)]
        table = client.create_table("c", families=(FAMILY,), split_keys=splits)
        puts = []
        for i in range(60):
            p = Put(b"%08d" % i)
            p.add(FAMILY, QUALIFIER, b"seed-%06d" % i)
            puts.append(p)
        table.put_batch(puts)
        plain.replication.ship_pending(10_000)
        row = b"%08d" % 30
        rep_victim = plain.server_for(plain.tables["c"].region_for(row))
        unrep_victim = unrep.server_for(unrep.tables["c"].region_for(row))
        rep_victim.crash()
        unrep_victim.crash()
        rep_estimate = plain.recovery_replay_estimate(rep_victim)
        unrep_estimate = unrep.recovery_replay_estimate(unrep_victim)
        assert rep_estimate == 0  # fully shipped: empty suffix
        assert unrep_estimate >= 20  # the whole preloaded WAL


class TestCrashCycleEdges:
    """Multi-cycle crash/restart edges around promotion."""

    def test_back_to_back_crashes_of_the_same_server(self):
        """Crash -> promote -> restart -> crash again immediately: the
        second cycle must find a consistent world (the restarted server
        hosts nothing, its WAL and taps are gone, repair has rebuilt
        followers) and lose nothing."""
        _sim, cluster = build_replicated_fixture(num_servers=3)
        manager = cluster.replication
        manager.ship_pending(10_000)
        row = b"%08d" % 30
        victim = cluster.server_for(cluster.tables["c"].region_for(row))
        for _cycle in range(2):
            victim.crash()
            cluster.recover_server(victim)
            victim.restart()
            assert not victim.regions and not victim.follower_regions
            assert wal_pending(victim.wal) == 0
            manager.ship_pending(10_000)
            # second cycle crashes the *same* server again: by now it
            # may host rebuilt followers but no primaries — both must
            # survive another crash/recover round
        for i in range(60):
            assert value_at(cluster, b"%08d" % i) == b"seed-%06d" % i
        for group in manager.groups.values():
            for follower in group.followers:
                assert follower.is_live()

    def test_promotion_races_an_open_scan_resume_cursor(self, monkeypatch):
        """A chaos scan interrupted by a crash must resume — via its
        cursor — on the *promoted* replica, delivering every row
        exactly once across the promotion boundary."""
        sim, cluster = build_replicated_fixture(num_servers=3)
        manager = cluster.replication
        manager.ship_pending(10_000)
        history = ChaosHistory()
        for i in range(60):  # the preload is acked, so the oracle knows it
            history.record_ack(b"%08d" % i, b"seed-%06d" % i)
        monkeypatch.setattr(chaos, "SCAN_CHUNK_ROWS", 8)
        handle = HTable(cluster, "c")  # primary-routed scan
        row = b"%08d" % 30
        victim = cluster.server_for(cluster.tables["c"].region_for(row))
        scheduler = DeterministicScheduler(sim)

        def scanner(vc):
            yield from chaos_scan(vc, handle, b"", None, history)

        def faulter(vc):
            vc.clock.advance(1.0)
            yield "crash"
            victim.crash()
            vc.clock.advance(5.0)
            yield "recover"
            cluster.recover_server(victim)  # promotes the follower

        scheduler.add_client("scanner", scanner)
        scheduler.add_client("faulter", faulter, daemon=True)
        scheduler.run()
        assert manager.promotions >= 1
        rows = [r for r, _v in history.scans[0].rows]
        assert rows == [b"%08d" % i for i in range(60)]
        assert check_invariants(history, HTable(cluster, "c")) == []


class TestReplicatedChaosCell:
    def test_replicated_cell_is_clean_and_promotes(self):
        run = chaos_cell(
            num_servers=4,
            clients=6,
            ops_per_client=24,
            fault_config=FaultConfig(
                cycles=2, recovery_replay_ms_per_entry=0.1
            ),
            replication=ReplicationConfig(replica_count=2),
        )
        assert run.violations == []
        stats = run.replication
        assert stats is not None
        assert stats["promotions"] > 0
        assert stats["entries_shipped"] > 0
        assert stats["follower_gets"] > 0
        assert run.report.committed == 6 * 24

    def test_unreplicated_cell_reports_no_replication_block(self):
        run = chaos_cell(
            clients=2, ops_per_client=8, fault_config=FaultConfig(cycles=0)
        )
        assert run.replication is None
        assert "replication" not in run.as_dict()

    def test_replicated_rerun_is_byte_identical(self):
        def one():
            run = chaos_cell(
                num_servers=4,
                clients=4,
                ops_per_client=16,
                fault_config=FaultConfig(
                    cycles=2, recovery_replay_ms_per_entry=0.2
                ),
                replication=ReplicationConfig(replica_count=2),
            )
            return (
                run.as_dict(),
                run.report,
                run.history.acked,
                run.history.follower_gets,
                [s.rows for s in run.history.scans],
            )

        assert one() == one()

    def test_replay_cost_stretches_single_copy_stalls_more(self):
        """The headline: at the same crash rate and replay cost, the
        replicated cell's mean recovery stall is measurably below the
        single-copy baseline (promotion replays a short suffix, not the
        whole pending WAL)."""

        def mean_stall(replication):
            run = chaos_cell(
                num_servers=4,
                clients=6,
                ops_per_client=24,
                fault_config=FaultConfig(
                    cycles=2, recovery_replay_ms_per_entry=0.4
                ),
                replication=replication,
            )
            assert run.violations == []
            stalls = run.history.stalls_ms
            return sum(stalls) / len(stalls)

        single = mean_stall(None)
        replicated = mean_stall(ReplicationConfig(replica_count=2))
        assert replicated < single


class TestStalenessOracleHasTeeth:
    """The staleness axis must actually detect violations."""

    def fixture(self):
        sim = Simulation(seed=11)
        cluster = HBaseCluster(
            sim, ClusterConfig(num_region_servers=2, seed=11)
        )
        client = HBaseClient(cluster)
        table = client.create_table("c", families=(FAMILY,))
        history = ChaosHistory()
        puts = []
        for i in range(10):
            row, value = b"%08d" % i, b"seed-%06d" % i
            history.record_ack(row, value)
            p = Put(row)
            p.add(FAMILY, QUALIFIER, value)
            puts.append(p)
        table.put_batch(puts)
        return cluster, history

    def staleness(self, cluster, history, bound=32):
        return [
            v
            for v in check_invariants(
                history, HTable(cluster, "c"), staleness_bound=bound
            )
            if v.startswith(("staleness", "scan"))
        ]

    def test_correctly_pinned_follower_get_passes(self):
        cluster, history = self.fixture()
        history.record_follower_get(b"%08d" % 3, b"seed-%06d" % 3, 0, 0)
        assert self.staleness(cluster, history) == []

    def test_pinned_stale_value_passes_and_wrong_one_fails(self):
        cluster, history = self.fixture()
        row = b"%08d" % 3
        history.record_ack(row, b"v2")
        # row_lag=1: the follower had not applied the v2 edit -> the
        # read must return the previous acked value, which it did
        history.record_follower_get(row, b"seed-%06d" % 3, 1, 1)
        # row_lag=0 claims full application, so seeing the old value is
        # a violation: the watermark pins the read to v2
        history.record_follower_get(row, b"seed-%06d" % 3, 0, 0)
        violations = [
            v
            for v in check_invariants(
                history, HTable(cluster, "c"), staleness_bound=32
            )
            if v.startswith("staleness")
        ]
        assert len(violations) == 1
        assert "pins it to" in violations[0]

    def test_never_acked_follower_value_is_detected(self):
        cluster, history = self.fixture()
        history.record_follower_get(b"%08d" % 3, b"forged", 0, 0)
        assert any(
            "staleness" in v for v in self.staleness(cluster, history)
        )

    def test_value_with_watermark_before_any_ack_is_detected(self):
        cluster, history = self.fixture()
        # row_lag covers every ack to the row: the follower could not
        # have any value, yet one was observed
        history.record_follower_get(b"%08d" % 3, b"seed-%06d" % 3, 5, 5)
        assert any(
            "predates every acked write" in v
            for v in self.staleness(cluster, history)
        )

    def test_entry_lag_beyond_bound_is_detected(self):
        cluster, history = self.fixture()
        history.record_follower_get(b"%08d" % 3, b"seed-%06d" % 3, 0, 99)
        violations = self.staleness(cluster, history, bound=32)
        assert any("> bound 32" in v for v in violations)
        # without a bound the same observation is fine
        assert self.staleness(cluster, history, bound=None) == []

    def test_scan_window_lag_beyond_bound_is_detected(self):
        cluster, history = self.fixture()
        rows = [(b"%08d" % i, b"seed-%06d" % i) for i in range(10)]
        history.scans.append(
            ScanObservation(
                history.next_seq(),
                history.next_seq(),
                b"",
                None,
                rows,
                max_entry_lag=99,
            )
        )
        assert any(
            "> bound 32" in v for v in self.staleness(cluster, history)
        )

    def test_scan_loss_excused_only_by_a_covering_missing_count(self):
        cluster, history = self.fixture()
        rows = [
            (b"%08d" % i, b"seed-%06d" % i) for i in range(10) if i != 7
        ]
        # missing_rows says every (single) pre-scan edit to row 7 was
        # unapplied on the serving follower: the omission is legal
        history.scans.append(
            ScanObservation(
                history.next_seq(),
                history.next_seq(),
                b"",
                None,
                list(rows),
                0,
                {b"%08d" % 7: 1},
            )
        )
        assert self.staleness(cluster, history) == []
        # an insufficient count (0 < 1 ack) stays a loss violation
        history.scans.append(
            ScanObservation(
                history.next_seq(),
                history.next_seq(),
                b"",
                None,
                list(rows),
                0,
                {},
            )
        )
        assert any(
            "was not delivered" in v for v in self.staleness(cluster, history)
        )
