"""Region/cluster/client behaviour: routing, DML primitives, scans,
compaction, recovery, size accounting, and cost charging."""

import pytest

from repro.config import ClusterConfig
from repro.errors import (
    RegionRetriesExhaustedError,
    RegionUnavailableError,
    ServerRecoveryError,
    TableExistsError,
    TableNotFoundError,
)
from repro.hbase import (
    Delete,
    Get,
    HBaseClient,
    HBaseCluster,
    Put,
    Scan,
)
from repro.hbase import client as client_module
from repro.hbase.bytes_util import prefix_stop
from repro.hbase.filters import AndFilter, ColumnValueFilter
from repro.sim.clock import Simulation
from tests.conftest import wal_pending

CF = b"cf"


def put(table, key, **cols):
    p = Put(key)
    for q, v in cols.items():
        p.add(CF, q.encode(), v)
    table.put(p)


@pytest.fixture
def table(client):
    return client.create_table("t", families=(CF,), split_keys=[b"m"])


class TestDdlAndRouting:
    def test_duplicate_create_rejected(self, client, table):
        with pytest.raises(TableExistsError):
            client.create_table("t")

    def test_unknown_table_rejected(self, client):
        with pytest.raises(TableNotFoundError):
            client.cluster.descriptor("nope")

    def test_split_keys_create_regions(self, cluster, client, table):
        desc = cluster.descriptor("t")
        assert len(desc.regions) == 2
        assert desc.region_for(b"a") is not desc.region_for(b"z")

    def test_regions_balanced_round_robin(self, cluster, client):
        for i in range(10):
            client.create_table(f"tbl{i}")
        counts = cluster.region_distribution()
        assert max(counts.values()) - min(counts.values()) <= 1


class TestDml:
    def test_put_get_roundtrip(self, table):
        put(table, b"k1", a=b"1", b=b"2")
        r = table.get(Get(b"k1"))
        assert r.value(CF, b"a") == b"1"
        assert r.value(CF, b"b") == b"2"

    def test_get_missing_returns_none(self, table):
        assert table.get(Get(b"nope")) is None

    def test_put_overwrites_newest(self, table):
        put(table, b"k", a=b"old")
        put(table, b"k", a=b"new")
        assert table.get(Get(b"k")).value(CF, b"a") == b"new"

    def test_delete_row(self, table):
        put(table, b"k", a=b"1")
        table.delete(Delete(b"k"))
        assert table.get(Get(b"k")) is None

    def test_check_and_put_success_and_failure(self, table):
        p = Put(b"lk")
        p.add(CF, b"l", b"\x01")
        assert table.check_and_put(b"lk", CF, b"l", None, p) is True
        assert table.check_and_put(b"lk", CF, b"l", None, p) is False
        assert table.check_and_put(b"lk", CF, b"l", b"\x01", p) is True

    def test_put_batch_single_wal_sync_per_region(self, client, table):
        puts = []
        for i in range(10):
            p = Put(f"a{i}".encode())
            p.add(CF, b"v", b"x")
            puts.append(p)
        cluster = client.cluster
        before = sum(s.wal.total_appends for s in cluster.servers)
        table.put_batch(puts)
        after = sum(s.wal.total_appends for s in cluster.servers)
        assert after - before == 10  # entries logged
        # but only one synchronous group sync charged for the region
        assert cluster.sim.metrics.counters().get("client.rpc", 0) >= 1


class TestScan:
    def test_full_scan_sorted_across_regions(self, table):
        for k in (b"z", b"a", b"m", b"c"):
            put(table, k, v=k)
        assert [r.row for r in table.scan()] == [b"a", b"c", b"m", b"z"]

    def test_range_scan(self, table):
        for k in (b"a", b"b", b"c", b"d"):
            put(table, k, v=k)
        rows = [r.row for r in table.scan(Scan(start_row=b"b", stop_row=b"d"))]
        assert rows == [b"b", b"c"]

    @pytest.mark.parametrize("max_versions", [0, -1])
    def test_fewer_than_one_version_is_refused(self, max_versions):
        with pytest.raises(ValueError, match="Get.max_versions"):
            Get(b"k", max_versions=max_versions)
        with pytest.raises(ValueError, match="Scan.max_versions"):
            Scan(max_versions=max_versions)

    def test_column_value_filter(self, table):
        put(table, b"k1", v=b"yes")
        put(table, b"k2", v=b"no")
        scan = Scan(filter=ColumnValueFilter(CF, b"v", "=", b"yes"))
        assert [r.row for r in table.scan(scan)] == [b"k1"]

    def test_prefix_filter(self, table):
        put(table, b"aa1", v=b"x")
        put(table, b"ab2", v=b"x")
        put(table, b"a", v=b"x")
        scan = Scan(start_row=b"aa", stop_row=prefix_stop(b"aa"))
        assert [r.row for r in table.scan(scan)] == [b"aa1"]

    def test_and_filter(self, table):
        put(table, b"k1", a=b"1", b=b"2")
        put(table, b"k2", a=b"1", b=b"9")
        f = AndFilter((ColumnValueFilter(CF, b"a", "=", b"1"),
                       ColumnValueFilter(CF, b"b", "<", b"5")))
        assert [r.row for r in table.scan(Scan(filter=f))] == [b"k1"]

    def test_filtered_rows_still_cost_server_reads(self, client, table):
        for i in range(10):
            put(table, f"k{i}".encode(), v=b"no")
        sim = client.cluster.sim
        before = sum(
            v for k, v in sim.metrics.counters().items() if ".rows_read" in k
        )
        list(table.scan(Scan(filter=ColumnValueFilter(CF, b"v", "=", b"yes"))))
        after = sum(
            v for k, v in sim.metrics.counters().items() if ".rows_read" in k
        )
        assert after - before == 10  # all examined despite empty result


class TestFlushCompactionAndSize:
    def test_flush_preserves_reads(self, cluster, client, table):
        put(table, b"k", v=b"1")
        for region in cluster.descriptor("t").regions:
            region.flush()
        assert table.get(Get(b"k")).value(CF, b"v") == b"1"
        put(table, b"k", v=b"2")  # newer write in memstore wins over hfile
        assert table.get(Get(b"k")).value(CF, b"v") == b"2"

    def test_major_compact_reclaims_deletes(self, cluster, client, table):
        put(table, b"k1", v=b"1")
        put(table, b"k2", v=b"2")
        size_before = table.cluster.table_size_bytes("t")
        table.delete(Delete(b"k1"))
        cluster.major_compact()
        assert table.cluster.table_row_count("t") == 1
        assert table.cluster.table_size_bytes("t") < size_before

    def test_row_count_ignores_tombstones(self, cluster, table):
        for i in range(5):
            put(table, f"k{i}".encode(), v=b"x")
        table.delete(Delete(b"k0"))
        assert table.cluster.table_row_count("t") == 4

    def test_auto_flush_threshold(self, cluster, client):
        t = client.create_table("small")
        region = cluster.descriptor("small").regions[0]
        region.flush_threshold_rows = 5
        for i in range(12):
            put(t, f"k{i:02d}".encode(), v=b"x")
        assert len(region.hfiles) >= 2
        assert len(list(t.scan())) == 12


class TestFailureRecovery:
    def test_crash_makes_region_unavailable(self, cluster, client, table):
        put(table, b"a", v=b"1")
        server = cluster.server_for(cluster.descriptor("t").region_for(b"a"))
        server.crash()
        with pytest.raises(RegionUnavailableError):
            table.get(Get(b"a"))

    def test_recovery_replays_wal(self, cluster, client, table):
        put(table, b"a", v=b"1")
        put(table, b"z", v=b"2")
        for server in list(cluster.servers):
            if server.regions:
                server.crash()
        for server in list(cluster.servers):
            if not server.alive:
                cluster.recover_server(server)
        assert table.get(Get(b"a")).value(CF, b"v") == b"1"
        assert table.get(Get(b"z")).value(CF, b"v") == b"2"

    def test_recovery_preserves_hfiles_and_wal_tail(self, cluster, client, table):
        put(table, b"a", v=b"flushed")
        region = cluster.descriptor("t").region_for(b"a")
        server = cluster.server_for(region)
        server.flush_region(region)
        put(table, b"b", v=b"in-wal")
        server.crash()
        cluster.recover_server(server)
        assert table.get(Get(b"a")).value(CF, b"v") == b"flushed"
        assert table.get(Get(b"b")).value(CF, b"v") == b"in-wal"

    def test_recovering_a_live_server_is_a_typed_error(self, cluster, table):
        server = cluster.server_for(cluster.descriptor("t").region_for(b"a"))
        with pytest.raises(ServerRecoveryError):
            cluster.recover_server(server)

    def test_double_recovery_is_a_typed_error(self, cluster, client, table):
        """Recovering twice would replay a WAL whose edits already
        landed (and were flushed) on the regions' new hosts — it must
        fail loudly, not silently re-move regions."""
        put(table, b"a", v=b"1")
        server = cluster.server_for(cluster.descriptor("t").region_for(b"a"))
        server.crash()
        assert cluster.recover_server(server) >= 1
        with pytest.raises(ServerRecoveryError):
            cluster.recover_server(server)
        # the guarded double recovery changed nothing for clients
        assert table.get(Get(b"a")).value(CF, b"v") == b"1"

    def test_restarted_server_rejoins_empty_and_recyclable(
        self, cluster, client, table
    ):
        put(table, b"a", v=b"1")
        server = cluster.server_for(cluster.descriptor("t").region_for(b"a"))
        server.crash()
        cluster.recover_server(server)
        server.restart()
        assert server.alive and not server.regions and not server.recovered
        assert wal_pending(server.wal) == 0
        # a full second crash/recover cycle works after the restart
        put(table, b"a", v=b"2")
        victim = cluster.server_for(cluster.descriptor("t").region_for(b"a"))
        victim.crash()
        cluster.recover_server(victim)
        assert table.get(Get(b"a")).value(CF, b"v") == b"2"

    def test_restarting_a_live_server_is_rejected(self, cluster, table):
        with pytest.raises(Exception, match="already alive"):
            cluster.servers[0].restart()

    def test_recovery_with_no_live_server_is_a_typed_error(
        self, cluster, client, table
    ):
        put(table, b"a", v=b"1")
        for server in cluster.servers:
            server.crash()
        victim = next(s for s in cluster.servers if s.regions)
        with pytest.raises(Exception, match="no live region server"):
            cluster.recover_server(victim)


class TestRelocationRetryBudget:
    def test_unresolvable_region_fails_bounded_and_typed(
        self, sim, cluster, client, table
    ):
        """A key range that keeps resolving to an unavailable region
        must surface the typed exhaustion error after a bounded number
        of meta retries — not loop on meta lookups forever."""
        for i in range(4):
            put(table, b"a%d" % i, v=b"x")
        parent = table._locate(b"a0")
        cluster.split_region(parent)  # parent offline, daughters own it
        # pin resolution to the offline parent: the meta table keeps
        # "answering" with a location that never becomes servable
        table._locate = lambda row: parent
        rpc_before = sim.metrics.counters().get("client.rpc", 0)
        with pytest.raises(RegionRetriesExhaustedError):
            table.get(Get(b"a0"))
        paid = sim.metrics.counters()["client.rpc"] - rpc_before
        # every relocation attempt paid its failed RPC + meta lookup
        assert paid == 2 * client_module.MAX_LOCATION_RETRIES

    def test_exhaustion_error_is_a_region_unavailable_error(self):
        assert issubclass(RegionRetriesExhaustedError, RegionUnavailableError)

    def test_budget_is_the_module_constant(
        self, monkeypatch, sim, cluster, client, table
    ):
        """``MAX_LOCATION_RETRIES`` bounds the meta-retry loop at exactly
        that many attempts."""
        monkeypatch.setattr(client_module, "MAX_LOCATION_RETRIES", 3)
        for i in range(4):
            put(table, b"a%d" % i, v=b"x")
        parent = table._locate(b"a0")
        cluster.split_region(parent)
        table._locate = lambda row: parent
        rpc_before = sim.metrics.counters().get("client.rpc", 0)
        with pytest.raises(RegionRetriesExhaustedError):
            table.get(Get(b"a0"))
        paid = sim.metrics.counters()["client.rpc"] - rpc_before
        assert paid == 2 * 3  # failed RPC + meta lookup per attempt

    def test_put_batch_relocation_is_bounded_too(self, cluster, client, table):
        """The batched write path shares the bounded budget: it must
        not recurse forever (or overflow the stack) when a group's
        region keeps resolving to an unavailable location."""
        for i in range(4):
            put(table, b"a%d" % i, v=b"x")
        parent = table._locate(b"a0")
        cluster.split_region(parent)
        table._locate = lambda row: parent
        p = Put(b"a0")
        p.add(CF, b"v", b"y")
        with pytest.raises(RegionRetriesExhaustedError):
            table.put_batch([p])

    def test_crash_without_successor_fails_fast(self, sim, cluster, client, table):
        """An unrecovered crash does not burn the retry budget: the
        first relocation attempt finds no successor and re-raises."""
        put(table, b"a", v=b"1")
        server = cluster.server_for(cluster.descriptor("t").region_for(b"a"))
        server.crash()
        rpc_before = sim.metrics.counters().get("client.rpc", 0)
        with pytest.raises(RegionUnavailableError):
            table.get(Get(b"a"))
        # one failed op RPC, no meta-retry charges
        assert sim.metrics.counters()["client.rpc"] - rpc_before == 1


class TestRegionLocationCache:
    def test_point_ops_reuse_cached_region(self, cluster, client, table):
        put(table, b"a", v=b"1")
        assert table._cached_region is cluster.descriptor("t").region_for(b"a")
        # a hit must not consult the descriptor at all
        calls = []
        original = table.desc.region_for
        table.desc.region_for = lambda row: calls.append(row) or original(row)
        put(table, b"b", v=b"2")  # same region as b"a" (split at b"m")
        assert calls == []
        table.get(Get(b"z"))  # other region: miss, one meta lookup
        assert calls == [b"z"]
        table.desc.region_for = original

    def test_cache_invalidated_by_recovery(self, cluster, client, table):
        put(table, b"a", v=b"1")
        stale = table._cached_region
        server = cluster.server_for(stale)
        server.crash()
        cluster.recover_server(server)
        put(table, b"a", v=b"2")  # must re-resolve, not use the dead region
        assert table._cached_region is not stale
        assert table.get(Get(b"a")).value(CF, b"v") == b"2"

    def test_descriptor_version_moves_on_layout_change(self, cluster, client, table):
        desc = cluster.descriptor("t")
        v0 = desc.version
        region = desc.region_for(b"a")
        server = cluster.server_for(region)
        server.crash()
        cluster.recover_server(server)
        assert desc.version > v0


class TestCheckAndPutCharging:
    def test_rmw_read_charges_seek_and_transfer(self, sim, client, table):
        put(table, b"lk", l=b"\x01")
        counters = sim.metrics.counters
        seeks_before = sum(
            v for k, v in counters().items() if k.endswith(".seek")
        )
        bytes_before = counters().get("client.bytes", 0)
        p = Put(b"lk")
        p.add(CF, b"l", b"\x02")
        assert table.check_and_put(b"lk", CF, b"l", b"\x01", p) is True
        seeks_after = sum(
            v for k, v in counters().items() if k.endswith(".seek")
        )
        assert seeks_after == seeks_before + 1  # the read half seeks
        assert counters()["client.bytes"] > bytes_before  # compared bytes

    def test_missing_row_charges_no_transfer(self, sim, client, table):
        bytes_before = sim.metrics.counters().get("client.bytes", 0)
        p = Put(b"absent")
        p.add(CF, b"l", b"\x01")
        assert table.check_and_put(b"absent", CF, b"l", None, p) is True
        # the read found nothing, so no result bytes crossed the wire
        # (the successful put itself transfers nothing back)
        assert sim.metrics.counters().get("client.bytes", 0) == bytes_before


class TestCostCharging:
    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_mutate_charges_one_sync_then_each_row_separately(self, jitter):
        """One region group = one WAL sync, then n one-row write charges
        in row order: one jitter draw per row (bit-identical to 1 + n
        ``charge`` calls on a twin simulation), also when the group
        flushes mid-loop."""
        n = 10

        def twin():
            sim = Simulation(seed=7, jitter_fraction=jitter)
            cluster = HBaseCluster(sim, ClusterConfig())
            HBaseClient(cluster).create_table("t")
            region = cluster.tables["t"].regions[0]
            region.flush_threshold_rows = 4
            return sim, cluster, region

        sim, cluster, region = twin()
        server = cluster.server_for(region)
        puts = [Put(b"%04d" % i).add(b"cf", b"q", b"v") for i in range(n)]
        server.mutate(region, puts, cluster.reserve_timestamps)
        assert len(region.hfiles) == 2  # flushed at rows 4 and 8
        counters = sim.metrics.counters()
        assert counters[f"rs.{server.name}.rows_written"] == n
        assert counters[f"rs.{server.name}.wal_append"] == 1

        reference, _, _ = twin()
        reference.charge("wal_append", "wal_append_ms", 1)
        for _ in range(n):
            reference.charge("rows_written", "write_row_ms", 1)
        assert sim.clock.now_ms == reference.clock.now_ms
        assert sim._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_get_charges_rpc(self, sim, client, table):
        before = sim.clock.now_ms
        table.get(Get(b"missing"))
        assert sim.clock.now_ms > before

    def test_scan_batches_charge_per_batch(self, sim, cluster):
        client = HBaseClient(cluster)
        t = client.create_table("big")
        for i in range(2500):
            put(t, f"{i:06d}".encode(), v=b"x")
        rpc_before = sim.metrics.counters().get("client.rpc", 0)
        list(t.scan())
        rpc_after = sim.metrics.counters()["client.rpc"]
        # 1 open + ceil(2500/1000) batches = 4 RPCs
        assert rpc_after - rpc_before == 4

    def test_virtual_time_scales_with_rows_scanned(self, sim, cluster):
        client = HBaseClient(cluster)
        t = client.create_table("rows")
        for i in range(1000):
            put(t, f"{i:06d}".encode(), v=b"x")
        sw = sim.stopwatch()
        list(t.scan())
        small = sw.stop()
        for i in range(1000, 5000):
            put(t, f"{i:06d}".encode(), v=b"x")
        sw = sim.stopwatch()
        list(t.scan())
        large = sw.stop()
        assert large > small * 2
