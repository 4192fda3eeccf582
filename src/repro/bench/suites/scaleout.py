"""Aggregate throughput and tail latency vs region-server count."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    SEED,
    ExperimentResult,
    Grid,
    per_second,
    percentile_or_zero,
)
from repro.bench.suite import Flag, IntList, Smoke, Suite, mean
from repro.config import ClusterConfig
from repro.hbase.chaos import Layout, run_cell
from repro.sim import derive_rng

PRELOAD_ROWS = 2048
SPLIT_THRESHOLD_BYTES = 8 * 1024
"""The size at which a region splits while the preload grows it."""
VALUE_BYTES = 16


def _scaleout_ops(
    rng, ops_per_client: int, key_space: int, value_bytes: int, client: int
):
    """One client's deterministic op mix: 70% point gets, 20% puts,
    10% short range scans (8 rows), keys drawn uniformly from the
    loaded space; every put writes a distinct ``value_bytes`` value."""
    ops = []
    for n in range(ops_per_client):
        r = float(rng.random())
        k = int(rng.integers(0, key_space))
        key = b"%08d" % k
        if r < 0.70:
            ops.append(("get", key))
        elif r < 0.90:
            value = (b"c%03d-%05d" % (client, n)).ljust(value_bytes, b"y")
            ops.append(("put", key, value))
        else:
            ops.append(("scan", key, b"%08d" % min(k + 8, key_space)))
    return ops


def _scaleout_cell(
    num_servers: int,
    clients: int,
    ops_per_client: int,
    preload_rows: int,
    split_threshold: int,
    value_bytes: int,
    seed: int,
):
    """One cluster at ``num_servers``: the table grows through
    auto-splits during the preload and is balanced, then ``clients``
    virtual clients drive it on the one
    :func:`~repro.hbase.chaos.run_cell`. Returns (report, region_count,
    distribution); a violated invariant raises."""
    layout = Layout(
        ClusterConfig(
            num_region_servers=num_servers,
            region_split_threshold_bytes=split_threshold,
            seed=seed,
        ),
        "scale",
    )
    payload = b"x" * value_bytes
    # the RNG label excludes both the server and the client count, so
    # client i replays the same op mix in every cell of the grid
    ops = [
        _scaleout_ops(
            derive_rng(seed, f"scaleout/client-{i}"),
            ops_per_client, preload_rows, value_bytes, i,
        )
        for i in range(clients)
    ]
    run = run_cell(
        layout, [(b"%08d" % i, payload) for i in range(preload_rows)], ops
    )
    if run.violations:
        raise RuntimeError(
            f"scaleout cell ({num_servers} servers, {clients} clients) "
            f"violated invariants: {run.violations}"
        )
    desc = run.cluster.descriptor("scale")
    return run.report, len(desc.regions), run.cluster.region_distribution()


def run_scaleout(
    server_counts: tuple[int, ...] = (1, 2, 4, 8),
    client_counts: tuple[int, ...] = (4, 16),
    ops_per_client: int = 60,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Aggregate throughput and tail latency vs region-server count.

    Every cell loads the same table through the size-triggered split
    path (one region recursively splits into dozens), rebalances the
    daughters across the cell's servers with the load-aware policy, and
    drives N closed-loop virtual clients through the deterministic
    scheduler. Operations queue on the region server hosting the
    addressed region, so the throughput curve directly measures how
    much parallelism the region layout exposes. Every cell ends in the
    durability / read-oracle check, and a violation aborts the sweep.
    Everything derives from virtual time and seeded draws: reruns are
    byte-identical.
    """
    say = progress or (lambda _m: None)
    grid = Grid(
        "region servers", server_counts,
        throughput=(
            "ScaleoutThroughput",
            "Aggregate committed ops per second vs region servers",
            "ops/s (virtual)",
        ),
        p99=(
            "ScaleoutP99",
            "99th percentile operation response time vs region servers",
            "ms",
        ),
    )
    layout_notes: list[str] = []
    for clients in client_counts:
        for servers in server_counts:
            say(f"[scaleout] {servers} servers x {clients} clients")
            report, regions, distribution = _scaleout_cell(
                servers, clients, ops_per_client, PRELOAD_ROWS,
                SPLIT_THRESHOLD_BYTES, VALUE_BYTES, SEED,
            )
            ops = report.committed
            label = f"{clients} clients"
            grid.set("throughput", label, servers,
                     per_second(ops, report.makespan_ms))
            grid.set("p99", label, servers,
                     percentile_or_zero(report.response_times, 0.99), ops)
            if clients == client_counts[-1]:
                spread = (
                    f"{min(distribution.values())}-{max(distribution.values())}"
                )
                layout_notes.append(
                    f"{servers} servers: {regions} regions after auto-split "
                    f"({spread} per server), {report.serial_wait_count} "
                    f"server-queue waits @ {clients} clients"
                )
    return grid.finish(
        f"{PRELOAD_ROWS} preloaded rows, {SPLIT_THRESHOLD_BYTES}B split threshold, "
        f"{ops_per_client} ops/client (70/20/10 get/put/scan), seed {SEED}; "
        "closed loop, zero think time, load-aware balancing",
        *layout_notes,
    )


def _throughput_rises(e) -> bool:
    curve = [mean(e, "ScaleoutThroughput", "16 clients", n) for n in (1, 2, 4, 8)]
    return curve == sorted(curve) and curve[0] < curve[-1]


SCALEOUT = Suite(
    "scaleout",
    lambda opts, say: list(run_scaleout(
        opts.servers,
        opts.scaleout_clients,
        ops_per_client=opts.scaleout_ops,
        progress=say,
    ).values()),
    flags=(
        Flag("servers", IntList(1), (1, 2, 4, 8),
             "comma-separated region-server counts"),
        Flag("scaleout_clients", IntList(1), (4, 16),
             "comma-separated client counts"),
        Flag("scaleout_ops", int, 60, "operations per virtual client"),
    ),
    smoke=Smoke(
        flags="--servers 1,2,4,8 --scaleout-clients 16 --scaleout-ops 40",
        checks=(
            ("throughput must rise monotonically with server count",
             _throughput_rises),
        ),
    ),
)
