"""The one cluster cell composes by choosing fields: auto-split +
balance, the row cache and admission control, follower reads and the
fault injector run together with no driver of their own, every cell is
checked against the durability / read / staleness oracle, and its rerun
is byte-identical."""

from __future__ import annotations

import json

import pytest

from repro.bench.suites.faults import build_chaos_ops
from repro.config import ClusterConfig, ServingConfig
from repro.hbase.chaos import FaultConfig, FaultInjector, Layout, run_cell
from repro.hbase.replication import ReplicationShipper
from repro.sim.rng import derive_rng

ROWS = 1024
CLIENTS = 16
SERVING = ServingConfig(
    row_cache_bytes=16 * 1024, admission_queue_ms=2.0, p99_budget_ms=1.5
)


def injector(cluster, history):
    return FaultInjector(
        cluster,
        FaultConfig(cycles=3, first_crash_ms=10.0, crash_interval_ms=30.0),
        history,
    )


def shipper(cluster, _history):
    return ReplicationShipper(cluster.replication)


def cell(layout: Layout, rows: int, participants, seed: int):
    streams = [
        build_chaos_ops(derive_rng(seed, f"cell/client-{i}"), 40, rows, 8, i)
        for i in range(CLIENTS)
    ]
    preload = [(b"%08d" % i, b"seed-%06d" % i) for i in range(rows)]
    return run_cell(layout, preload, streams, "failover", participants)


def fingerprint(run) -> str:
    return json.dumps({
        "run": run.as_dict(),
        "response_times": run.report.response_times,
        "acked": [[s, r.hex(), v.hex()] for s, r, v in run.history.acked],
        "scans": [[[r.hex(), v.hex()] for r, v in s.rows] for s in run.history.scans],
        "events": run.history.events,
        "serving": run.cluster.serving_stats()["totals"],
        "layout": run.cluster.layout_fingerprint(),
    }, sort_keys=True)


def split_cache_admission_under_crashes(seed: int):
    """The scaleout layout (one region split by size during the preload,
    then balanced) with the serving machinery on, under crash cycles."""
    layout = Layout(
        ClusterConfig(
            num_region_servers=4,
            region_split_threshold_bytes=4096,
            seed=seed,
            serving=SERVING,
        ),
        "cell",
    )
    return cell(layout, ROWS, [injector], seed)


def follower_reads_cache_shedding_under_crashes(seed: int):
    """Two replicas per pre-split region with follower reads, the
    serving machinery on, under crash cycles; the staleness bound is
    enforced by the cell's own check."""
    rows = 480
    layout = Layout(
        ClusterConfig(
            num_region_servers=4,
            seed=seed,
            replica_count=2,
            serving=SERVING,
        ),
        "cell",
        [b"%08d" % (rows * i // 8) for i in range(1, 8)],
    )
    return cell(layout, rows, [injector, shipper], seed)


class TestComposedCells:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_split_balance_cache_admission_under_crashes(self, seed):
        run = split_cache_admission_under_crashes(seed)
        assert len(run.cluster.descriptor("cell").regions) > 4  # it split
        assert run.cluster.serving_stats()["totals"]["shed"] > 0
        assert run.history.crash_count >= 2
        assert run.violations == []
        assert run.report.committed == CLIENTS * 40
        assert fingerprint(run) == fingerprint(
            split_cache_admission_under_crashes(seed)
        )

    @pytest.mark.parametrize("seed", [1, 4])
    def test_follower_reads_cache_shedding_under_crashes(self, seed):
        run = follower_reads_cache_shedding_under_crashes(seed)
        assert run.cluster.serving_stats()["totals"]["shed"] > 0
        assert run.history.crash_count == 3
        assert run.replication["promotions"] > 0
        assert run.replication["follower_gets"] > 0
        assert run.violations == []
        assert run.report.committed == CLIENTS * 40
        assert fingerprint(run) == fingerprint(
            follower_reads_cache_shedding_under_crashes(seed)
        )
