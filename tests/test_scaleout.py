"""Scale-out behaviour under the deterministic scheduler: per-server
serial routing, throughput scaling with server count, and byte-identical
reruns of the scale-out experiment."""

import json

import pytest

from repro.bench.suites.scaleout import _scaleout_cell, _scaleout_ops, run_scaleout
from repro.config import ClusterConfig
from repro.hbase import Get, HBaseClient, HBaseCluster, Put, RegionBalancer, chaos
from repro.hbase.client import HTable
from repro.sim.clock import Simulation
from repro.sim.rng import derive_rng
from repro.sim.scheduler import DeterministicScheduler

CF = b"cf"


def build_cluster(num_servers, rows=256, threshold=1024, seed=3):
    sim = Simulation(seed=seed)
    cluster = HBaseCluster(
        sim,
        ClusterConfig(
            num_region_servers=num_servers,
            region_split_threshold_bytes=threshold,
        ),
    )
    client = HBaseClient(cluster)
    table = client.create_table("s", families=(CF,))
    puts = []
    for i in range(rows):
        p = Put(b"%06d" % i)
        p.add(CF, b"v", b"x" * 16)
        puts.append(p)
    table.put_batch(puts)
    RegionBalancer(cluster).rebalance()
    sim.reset_clock()
    return sim, cluster


def drive(sim, cluster, clients, ops=30, rows=256):
    scheduler = DeterministicScheduler(sim)
    for i in range(clients):
        handle = HTable(cluster, "s")

        def program(vc, handle=handle, i=i):
            for j in range(ops):
                yield "op"
                handle.get(Get(b"%06d" % ((i * 37 + j * 11) % rows)))
                vc.stats.committed += 1

        scheduler.add_client(f"c{i}", program)
    return scheduler.run()


class TestServerRouting:
    def test_ops_queue_on_the_owning_server(self):
        sim, cluster = build_cluster(num_servers=1)
        report = drive(sim, cluster, clients=8)
        assert report.serial_wait_count > 0  # one server: real queueing
        assert report.committed == 8 * 30

    def test_more_servers_mean_more_parallelism(self):
        makespans = {}
        for servers in (1, 4):
            sim, cluster = build_cluster(num_servers=servers)
            makespans[servers] = drive(sim, cluster, clients=8).makespan_ms
        assert makespans[4] < makespans[1]

    def test_single_client_pays_no_queueing(self):
        sim, cluster = build_cluster(num_servers=2)
        report = drive(sim, cluster, clients=1)
        assert report.serial_wait_count == 0


class TestScaleoutExperiment:
    def run_small(self):
        return run_scaleout(
            server_counts=(1, 2, 4),
            client_counts=(8,),
            ops_per_client=16,
            preload_rows=512,
            split_threshold=2048,
        )

    def test_throughput_monotone_in_server_count(self):
        results = self.run_small()
        series = results["throughput"].series[0]
        values = [series.points[n].mean for n in (1, 2, 4)]
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_rerun_is_byte_identical(self):
        a = {k: r.to_dict() for k, r in self.run_small().items()}
        b = {k: r.to_dict() for k, r in self.run_small().items()}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cell_reports_balanced_layout(self):
        report, regions, distribution = _scaleout_cell(
            num_servers=4,
            clients=4,
            ops_per_client=8,
            preload_rows=512,
            split_threshold=2048,
            value_bytes=16,
            seed=20170904,
        )
        assert regions >= 4
        assert max(distribution.values()) - min(distribution.values()) <= 1
        assert report.committed == 4 * 8


class TestScaleoutGate:
    def test_puts_write_distinct_values_of_one_length(self):
        ops = _scaleout_ops(derive_rng(7, "scaleout/client-3"), 200, 512, 16, 3)
        values = [op[2] for op in ops if op[0] == "put"]
        assert len(values) > 10
        assert len(set(values)) == len(values)
        assert {len(v) for v in values} == {16}

    def test_a_violated_invariant_aborts_the_sweep(self, monkeypatch):
        monkeypatch.setattr(
            chaos, "check_invariants", lambda *_a, **_k: ["planted violation"]
        )
        with pytest.raises(RuntimeError, match="planted violation"):
            run_scaleout(
                server_counts=(2,), client_counts=(2,), ops_per_client=4,
                preload_rows=64, split_threshold=2048,
            )
