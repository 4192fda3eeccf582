"""Region splitting, rebalancing and the client relocation machinery:
mid-key splits with zero-copy inheritance, auto-split thresholds, the
split-vs-open-scan and split-vs-checkAndPut races, balancer policies,
relocation-cache invalidation, and WAL routing for regions that split
between a write and a crash."""

import pytest

from repro.config import ClusterConfig
from repro.errors import RegionSplitError, RegionUnavailableError
from repro.hbase import (
    Delete,
    Get,
    HBaseClient,
    HBaseCluster,
    Put,
    RegionBalancer,
    Scan,
)
from repro.sim.clock import Simulation
from tests.conftest import wal_pending

CF = b"cf"


def put(table, key, value=b"x"):
    p = Put(key)
    p.add(CF, b"v", value)
    table.put(p)


def fill(table, n, prefix=b"k", value=b"x"):
    puts = []
    for i in range(n):
        p = Put(prefix + b"%04d" % i)
        p.add(CF, b"v", value)
        puts.append(p)
    table.put_batch(puts)


@pytest.fixture
def table(client):
    return client.create_table("t", families=(CF,))


def only_region(cluster, name="t"):
    regions = cluster.descriptor(name).regions
    assert len(regions) == 1
    return regions[0]


class TestSplitMechanics:
    def test_mid_key_split_tiles_and_preserves_data(self, cluster, table):
        fill(table, 40)
        parent = only_region(cluster)
        cluster.server_for(parent).flush_region(parent)  # HFile half
        fill(table, 40, prefix=b"m")  # memstore half
        low, high = cluster.split_region(parent)
        assert low.start_key == parent.start_key
        assert low.end_key == high.start_key
        assert high.end_key == parent.end_key
        assert len(cluster.descriptor("t").regions) == 2
        rows = [r.row for r in table.scan()]
        assert len(rows) == 80 and rows == sorted(rows)
        assert table.get(Get(b"k0000")) is not None
        assert table.get(Get(b"m0039")) is not None

    def test_split_shares_row_entries_by_reference(self, cluster, table):
        fill(table, 10)
        parent = only_region(cluster)
        parent_entries = dict(parent.memstore._entries)
        low, high = cluster.split_region(parent)
        for daughter in (low, high):
            for row, entry in daughter.memstore._entries.items():
                assert entry is parent_entries[row]  # payloads not copied

    def test_hfile_split_views_share_entry_dict(self, cluster, table):
        fill(table, 10)
        parent = only_region(cluster)
        cluster.server_for(parent).flush_region(parent)
        hfile = parent.hfiles[0]
        low, high = cluster.split_region(parent)
        assert low.hfiles[0]._entries is hfile._entries
        assert high.hfiles[0]._entries is hfile._entries
        assert len(low.hfiles[0]) + len(high.hfiles[0]) == 10

    def test_single_row_region_refuses_to_split(self, cluster, table):
        put(table, b"only")
        with pytest.raises(RegionSplitError):
            cluster.split_region(only_region(cluster))

    def test_empty_region_refuses_to_split(self, cluster, table):
        with pytest.raises(RegionSplitError):
            cluster.split_region(only_region(cluster))

    def test_split_key_must_be_interior(self, cluster, table):
        fill(table, 10)
        with pytest.raises(RegionSplitError):
            cluster.split_region(only_region(cluster), split_key=b"")

    def test_parent_goes_offline_and_version_moves(self, cluster, table):
        fill(table, 10)
        parent = only_region(cluster)
        version = cluster.descriptor("t").version
        cluster.split_region(parent)
        assert not parent.online
        assert parent.split_daughters is not None
        assert cluster.descriptor("t").version > version
        assert parent.name not in cluster._region_host

    def test_daughters_open_on_parents_server(self, cluster, table):
        fill(table, 10)
        parent = only_region(cluster)
        server = cluster.server_for(parent)
        low, high = cluster.split_region(parent)
        assert cluster.server_for(low) is server
        assert cluster.server_for(high) is server

    def test_daughter_sizes_sum_to_parent(self, cluster, table):
        fill(table, 32)
        parent = only_region(cluster)
        parent_size = parent.approx_size_bytes
        low, high = cluster.split_region(parent)
        assert low.approx_size_bytes + high.approx_size_bytes == parent_size
        assert low.approx_size_bytes > 0 and high.approx_size_bytes > 0


class TestAutoSplit:
    def auto_cluster(self, threshold=2048):
        sim = Simulation(seed=7)
        cluster = HBaseCluster(
            sim, ClusterConfig(region_split_threshold_bytes=threshold)
        )
        return cluster, HBaseClient(cluster)

    def test_put_batch_triggers_recursive_split(self):
        cluster, client = self.auto_cluster()
        table = client.create_table("t", families=(CF,))
        fill(table, 500)
        regions = cluster.descriptor("t").regions
        assert len(regions) > 2
        assert all(
            r.approx_size_bytes < 2048 or len(list(r.iter_keys(r.start_key, r.end_key))) < 2
            for r in regions
        )
        assert [r.row for r in table.scan()] == [b"k%04d" % i for i in range(500)]

    def test_single_puts_trigger_split_too(self):
        cluster, client = self.auto_cluster(threshold=512)
        table = client.create_table("t", families=(CF,))
        for i in range(60):
            put(table, b"k%04d" % i)
        assert len(cluster.descriptor("t").regions) > 1
        assert table.get(Get(b"k0000")) is not None

    def test_hot_single_row_region_keeps_growing(self):
        cluster, client = self.auto_cluster(threshold=256)
        table = client.create_table("t", families=(CF,))
        for _ in range(50):
            put(table, b"hot", b"v" * 32)  # one row can never split
        assert len(cluster.descriptor("t").regions) == 1


class TestSplitDuringScan:
    def test_scan_crosses_a_split_that_lands_mid_stream(self, cluster, table):
        fill(table, 60)
        parent = only_region(cluster)
        stream = table.scan(Scan())
        seen = [next(stream).row for _ in range(10)]
        cluster.split_region(parent)  # scanned region goes offline
        seen.extend(r.row for r in stream)
        assert seen == [b"k%04d" % i for i in range(60)]  # no gap, no repeat

    def test_scan_survives_repeated_splits(self, cluster, table):
        fill(table, 64)
        stream = table.scan(Scan())
        seen = []
        for i, result in enumerate(stream):
            seen.append(result.row)
            if i % 10 == 0:
                desc = cluster.descriptor("t")
                region = desc.region_for(result.row)
                try:
                    cluster.split_region(region)
                except RegionSplitError:
                    pass
        assert seen == [b"k%04d" % i for i in range(64)]

    def test_abandoned_scan_settles_the_inflight_batch(self, sim, cluster, table):
        fill(table, 30)
        stream = table.scan(Scan())
        for _ in range(5):
            next(stream)
        rpc_before = sim.metrics.counters()["client.rpc"]
        bytes_before = sim.metrics.counters().get("client.bytes", 0)
        stream.close()  # consumer abandons mid-region
        counters = sim.metrics.counters()
        assert counters["client.rpc"] == rpc_before + 1  # delivered batch
        assert counters["client.bytes"] > bytes_before

    def test_scan_still_raises_on_crash(self, cluster, table):
        fill(table, 30)
        region = only_region(cluster)
        stream = table.scan(Scan())
        next(stream)
        cluster.server_for(region).crash()
        with pytest.raises(RegionUnavailableError):
            list(stream)


class TestClientRelocation:
    def stale_handle(self, cluster, table, row):
        """Simulate the race window: a client whose meta cache answered
        just before the split landed — the cached region is the (now
        offline) parent but the cached version looks current."""
        parent = table._locate(row)
        cluster.split_region(parent)
        table._cached_region = parent
        table._cached_version = table.desc.version
        return parent

    def test_check_and_put_racing_a_split_relocates(self, cluster, table):
        fill(table, 20)
        parent = self.stale_handle(cluster, table, b"k0005")
        p = Put(b"k0005")
        p.add(CF, b"l", b"\x01")
        assert table.check_and_put(b"k0005", CF, b"l", None, p) is True
        assert table._cached_region is not parent
        daughter = cluster.descriptor("t").region_for(b"k0005")
        assert daughter.read_row(b"k0005", [(CF, b"l")]) is not None

    def test_get_and_put_racing_a_split_relocate(self, cluster, table):
        fill(table, 20)
        self.stale_handle(cluster, table, b"k0001")
        assert table.get(Get(b"k0001")) is not None
        table._cached_region = self.stale_handle(cluster, table, b"k0001")
        put(table, b"k0001", b"fresh")
        assert table.get(Get(b"k0001")).value(CF, b"v") == b"fresh"

    def test_delete_racing_a_split_relocates(self, cluster, table):
        fill(table, 20)
        self.stale_handle(cluster, table, b"k0002")
        table.delete(Delete(b"k0002"))
        assert table.get(Get(b"k0002")) is None

    def test_crashes_are_not_masked_by_the_retry(self, cluster, table):
        fill(table, 20)
        region = only_region(cluster)
        cluster.server_for(region).crash()
        with pytest.raises(RegionUnavailableError):
            table.get(Get(b"k0001"))

    def test_relocation_charges_one_meta_round_trip(self, sim, cluster, table):
        fill(table, 20)
        self.stale_handle(cluster, table, b"k0003")
        rpc_before = sim.metrics.counters().get("client.rpc", 0)
        table.get(Get(b"k0003"))
        rpc_after = sim.metrics.counters()["client.rpc"]
        # failed attempt + relocation + successful retry
        assert rpc_after - rpc_before == 3


class TestBalancer:
    def grown_cluster(self, num_servers=2, tables=1):
        sim = Simulation(seed=11)
        cluster = HBaseCluster(
            sim,
            ClusterConfig(
                num_region_servers=num_servers,
                region_split_threshold_bytes=1024,
            ),
        )
        client = HBaseClient(cluster)
        for t in range(tables):
            table = client.create_table(f"t{t}", families=(CF,))
            fill(table, 300)
        return cluster, client

    def test_load_aware_rebalance_evens_out_bytes(self):
        cluster, client = self.grown_cluster(num_servers=4)
        # all daughters sit on the parent's server before balancing
        assert max(cluster.region_distribution().values()) == len(
            cluster.descriptor("t0").regions
        )
        moved = RegionBalancer(cluster).rebalance()
        assert moved > 0
        counts = cluster.region_distribution()
        assert max(counts.values()) - min(counts.values()) <= 1
        assert [r.row for r in client.table("t0").scan()] == [
            b"k%04d" % i for i in range(300)
        ]

    def test_rebalance_is_deterministic(self):
        def distribution():
            cluster, _ = self.grown_cluster(num_servers=3)
            RegionBalancer(cluster).rebalance()
            return {
                r.start_key: cluster.server_for(r).name
                for r in cluster.descriptor("t0").regions
            }

        assert distribution() == distribution()

    def test_rebalance_skips_dead_servers(self):
        cluster, client = self.grown_cluster(num_servers=3)
        balancer = RegionBalancer(cluster)
        balancer.rebalance()  # spread regions across all three
        dead = next(s for s in cluster.servers if s.regions)
        stranded = set(dead.regions)
        dead.crash()
        balancer.rebalance()  # must not raise on the dead host
        assert set(dead.regions) == stranded  # recovery's job, not ours
        counts = cluster.region_distribution()
        live = [s.name for s in cluster.servers if s.alive]
        assert all(counts[name] > 0 for name in live)

    def test_scale_out_then_rebalance_uses_new_servers(self):
        cluster, client = self.grown_cluster(num_servers=1)
        cluster.add_servers(3)
        assert len(cluster.servers) == 4
        RegionBalancer(cluster).rebalance()
        counts = cluster.region_distribution()
        assert sum(1 for c in counts.values() if c > 0) == 4
        assert client.table("t0").get(Get(b"k0000")) is not None

    def test_rebalance_invalidates_relocation_caches(self):
        cluster, client = self.grown_cluster(num_servers=2)
        table = client.table("t0")
        table.get(Get(b"k0000"))  # warm the location cache
        version = table.desc.version
        moved = RegionBalancer(cluster).rebalance()
        assert moved > 0
        assert table.desc.version > version  # cache keys off this
        assert table._cached_version != table.desc.version
        assert table.get(Get(b"k0000")) is not None  # re-resolves cleanly
        assert table._cached_version == table.desc.version


class TestWalRoutingAcrossSplits:
    def test_recovery_replays_parent_log_into_daughters(self, cluster, table):
        # rows live only in the memstore + the parent's WAL when the
        # region splits; the crash then loses both daughters' memstores
        fill(table, 30)
        parent = only_region(cluster)
        server = cluster.server_for(parent)
        low, high = cluster.split_region(parent)
        assert cluster.server_for(low) is server
        server.crash()
        assert cluster.recover_server(server) == 2
        rows = [r.row for r in table.scan()]
        assert rows == [b"k%04d" % i for i in range(30)]

    def test_recovery_after_two_generations_of_splits(self, cluster, table):
        fill(table, 40)
        parent = only_region(cluster)
        server = cluster.server_for(parent)
        low, high = cluster.split_region(parent)
        cluster.split_region(low)  # grand-daughters inherit the lineage
        server.crash()
        cluster.recover_server(server)
        assert [r.row for r in table.scan()] == [b"k%04d" % i for i in range(40)]

    def test_daughter_flush_truncates_its_slice_of_the_parent_log(
        self, cluster, table
    ):
        fill(table, 30)
        parent = only_region(cluster)
        server = cluster.server_for(parent)
        low, high = cluster.split_region(parent)
        assert wal_pending(server.wal, parent.name) == 30
        server.flush_region(low)
        remaining = server.wal.entries_for(parent.name)
        assert remaining  # high's half is still unflushed
        assert all(e.row >= high.start_key for e in remaining)
        server.flush_region(high)
        assert wal_pending(server.wal, parent.name) == 0

    def test_recovered_edits_survive_a_second_failover(self, cluster, table):
        fill(table, 10)  # unflushed: only in the memstore + rs1's WAL
        first = cluster.server_for(only_region(cluster))
        first.crash()
        cluster.recover_server(first)
        # recovery must persist the replayed edits on the new host —
        # the dead server's log is gone, so an unflushed re-open would
        # lose everything on the next crash
        second = cluster.server_for(only_region(cluster))
        second.crash()
        cluster.recover_server(second)
        assert [r.row for r in table.scan()] == [b"k%04d" % i for i in range(10)]

    def test_recovery_does_not_double_count_replayed_bytes(self, cluster, table):
        fill(table, 20)  # all unflushed: in the memstore + the WAL
        region = only_region(cluster)
        size_before = region.approx_size_bytes
        assert size_before == region._component_size_bytes()
        server = cluster.server_for(region)
        server.crash()
        cluster.recover_server(server)
        recovered = only_region(cluster)
        # the replayed rows must not be counted on top of the old total
        # (an inflated size would trip the split threshold spuriously)
        assert recovered.approx_size_bytes == size_before
        assert recovered.approx_size_bytes == recovered._component_size_bytes()

    def test_moved_daughter_carries_no_wal_dependency(self, cluster, table):
        fill(table, 30)
        parent = only_region(cluster)
        source = cluster.server_for(parent)
        low, high = cluster.split_region(parent)
        target = next(s for s in cluster.servers if s is not source)
        assert cluster.move_region(high, target)  # flushes before moving
        put(table, high.start_key, b"after-move")
        target.crash()
        cluster.recover_server(target)
        assert table.get(Get(high.start_key)).value(CF, b"v") == b"after-move"
        # and the stay-behind daughter still recovers from the old log
        source.crash()
        cluster.recover_server(source)
        assert table.get(Get(b"k0000")) is not None
