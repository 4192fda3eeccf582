"""The one write path: a put, a delete and a batch are one mutation
batch, applied per region group by ``RegionServer.mutate``, and every
WAL entry reaches a region through ``Region.apply`` — live, in crash
replay, in follower shipping and in promotion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig
from repro.hbase import HBaseClient, HBaseCluster
from repro.hbase.ops import Delete, Put
from repro.sim.clock import Simulation
from tests.conftest import wal_pending

CF = b"cf"
QUALIFIERS = (b"a", b"b")
ROWS = (b"b", b"c", b"d", b"e", b"h", b"i", b"k", b"m", b"q", b"r", b"x", b"y")
SPLITS = [b"g", b"p"]
VERSIONS = 3


def build(jitter: float = 0.0, replicas: int = 1):
    """A 3-server cluster with table ``t`` split into three regions (of
    four ``ROWS`` each) that flush every 4 memstore rows and keep
    ``VERSIONS`` versions."""
    sim = Simulation(seed=7, jitter_fraction=jitter)
    cluster = HBaseCluster(
        sim,
        ClusterConfig(
            num_region_servers=3,
            seed=7,
            replica_count=replicas,
        ),
    )
    table = HBaseClient(cluster).create_table(
        "t", families=(CF,), split_keys=SPLITS, max_versions=VERSIONS
    )
    if replicas > 1:
        cluster.replication.replicate_table("t")
    for region in table.desc.regions:
        region.flush_threshold_rows = 4
    return sim, cluster, table


def put(row: bytes, qualifier: bytes = b"a", value: bytes = b"v") -> Put:
    return Put(row).add(CF, qualifier, value)


def region_cells(region) -> list:
    """Every visible cell of one region, all kept versions included."""
    return [
        (row, result.cells)
        for row, result in region.scan(max_versions=VERSIONS)
        if result is not None
    ]


def table_cells(cluster) -> list:
    out = []
    for region in cluster.descriptor("t").regions:
        out.extend(region_cells(region))
    return out


def state(sim, cluster) -> tuple:
    """What a write may touch: the clock, the jitter RNG, the counters,
    the logged entries and the stored cells."""
    wal = [
        (e.kind, e.row, e.payload, e.timestamp)
        for server in cluster.servers
        for buffer in server.wal._entries.values()
        for e in buffer
    ]
    return (
        sim.clock.now_ms,
        sim._rng.bit_generator.state,
        sim.metrics.counters(),
        wal,
        table_cells(cluster),
    )


SCRIPT = [
    put(b"b"),
    put(b"h", b"b", b"w"),
    Delete(b"b"),
    put(b"x"),
    put(b"b", b"a", b"again"),
    Delete(b"h"),
    put(b"k"),
    put(b"q", b"b"),
    put(b"d"),
    Delete(b"x"),
    put(b"h", b"a", b"back"),
    put(b"k", b"b", b"w2"),
    put(b"c"),
    Delete(b"e"),
    put(b"i"),
    put(b"m", b"b"),
    put(b"b", b"b", b"after"),
]
"""Puts and deletes across all three regions, four rows apiece in the
first two: enough to flush them."""


class TestBatchOfOne:
    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_single_ops_equal_groups_of_one(self, jitter):
        sim_a, cluster_a, table_a = build(jitter)
        sim_b, cluster_b, table_b = build(jitter)
        for op in SCRIPT:
            if isinstance(op, Put):
                table_a.put(op)
                table_b.put_batch([op])
            else:
                table_a.delete(op)
                table_b._mutate([op])  # put_batch takes puts only
        assert any(r.hfiles for r in table_a.desc.regions)  # flushes ran
        assert state(sim_a, cluster_a) == state(sim_b, cluster_b)

    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_single_op_pays_one_rpc_one_sync_one_row(self, jitter):
        """Each put or delete draws exactly what it drew before it was a
        batch of one: the RPC, the WAL sync, one row write, in order."""
        sim, _, table = build(jitter)
        for op in SCRIPT:
            (table.put if isinstance(op, Put) else table.delete)(op)
        reference = Simulation(seed=7, jitter_fraction=jitter)
        for _ in SCRIPT:
            reference.charge("rpc", "rpc_base_ms", 1)
            reference.charge("wal_append", "wal_append_ms", 1)
            reference.charge("rows_written", "write_row_ms", 1)
        assert sim.clock.now_ms == reference.clock.now_ms
        assert sim._rng.bit_generator.state == reference._rng.bit_generator.state

    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_check_and_put_applies_through_the_server_group(self, jitter):
        """A check-and-put is its read half plus a group of one handed
        to ``RegionServer.mutate``; a failed compare writes nothing."""
        sim_a, cluster_a, table_a = build(jitter)
        sim_b, cluster_b, table_b = build(jitter)
        steps = [
            (b"d", None, put(b"d", b"a", b"1")),  # absent: applies
            (b"d", None, put(b"d", b"a", b"2")),  # present: refused
            (b"d", b"1", put(b"d", b"a", b"3")),  # matches: applies
            (b"q", b"x", put(b"q", b"a", b"4")),  # absent != b"x": refused
        ]
        outcomes = []
        for row, expected, op in steps:
            outcomes.append(table_a.check_and_put(row, CF, b"a", expected, op))
            region = table_b._locate(row)
            server = cluster_b.server_for(region)
            table_b.charge.check_and_put()
            result = server.read_point(region, row, [(CF, b"a")])
            current = None
            if result is not None:
                table_b.charge.transfer(result.size_bytes)
                current = result.value(CF, b"a")
            if current == expected:
                server.mutate(region, [op], cluster_b.reserve_timestamps)
        assert outcomes == [True, False, True, False]
        assert state(sim_a, cluster_a) == state(sim_b, cluster_b)

    def test_dead_server_pays_no_sync_and_takes_no_timestamp(self):
        """The alive check comes before anything is logged or charged."""
        sim, cluster, table = build()
        region = table.desc.regions[0]
        server = cluster.server_for(region)
        server.crash()
        before = (sim.clock.now_ms, cluster._ts, sim.metrics.counters())
        with pytest.raises(Exception, match="is down"):
            server.mutate(region, [put(b"b")], cluster.reserve_timestamps)
        assert (sim.clock.now_ms, cluster._ts, sim.metrics.counters()) == before
        assert not server.wal._entries


OPS = st.one_of(
    st.tuples(
        st.just("put"),
        st.sampled_from(ROWS),
        st.sampled_from(QUALIFIERS),
        st.binary(min_size=1, max_size=3),
    ),
    st.tuples(st.just("delete_row"), st.sampled_from(ROWS)),
    st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(st.sampled_from(ROWS), st.sampled_from(QUALIFIERS)),
            min_size=1,
            max_size=6,
        ),
    ),
)


def run_op(table, op, n: int) -> None:
    kind = op[0]
    if kind == "put":
        table.put(put(op[1], op[2], op[3]))
    elif kind == "delete_row":
        table.delete(Delete(op[1]))
    else:
        table.put_batch(
            [put(row, q, b"b%d.%d" % (n, i)) for i, (row, q) in enumerate(op[1])]
        )


class TestRecoveryEqualsTheUncrashedTwin:
    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(OPS, min_size=4, max_size=30),
        replicas=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_crash_recover_and_ship(self, ops, replicas, data):
        """Crash the server with the most unflushed log part-way
        through, recover it (WAL replay, or promotion of a follower),
        finish the sequence: every cell, all versions included, equals
        the uncrashed twin's. Replicated, every follower reads like its
        primary once shipping drains."""
        crash_at = data.draw(st.integers(min_value=1, max_value=len(ops)))
        _, cluster, table = build(replicas=replicas)
        _, twin, twin_table = build(replicas=replicas)
        for n, op in enumerate(ops):
            if n == crash_at:
                crash_and_recover(cluster)
            run_op(table, op, n)
            run_op(twin_table, op, n)
        if crash_at == len(ops):
            crash_and_recover(cluster)
        assert table_cells(cluster) == table_cells(twin)
        if replicas == 1:
            return
        manager = cluster.replication
        while manager.ship_pending():
            pass
        for group in manager.groups.values():
            primary = region_cells(group.primary)
            assert group.followers
            for follower in group.followers:
                assert region_cells(follower.region) == primary


def crash_and_recover(cluster) -> None:
    """Crash and recover the server holding the longest unflushed log
    (the first such server on a tie)."""
    dead = max(cluster.servers, key=lambda s: wal_pending(s.wal))
    dead.crash()
    cluster.recover_server(dead)
