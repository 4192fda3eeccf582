"""Chaos sweep: crash rate x client count, gated on the durability oracle."""

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
from repro.hbase.chaos import (
    ChaosRun,
    FaultConfig,
    FaultInjector,
    Layout,
    Participant,
    run_cell,
)
from repro.hbase.replication import ReplicationShipper
from repro.sim.rng import derive_rng

NUM_SERVERS = 3
PRELOAD_ROWS = 240
CHAOS_HORIZON_MS = 160.0
"""The virtual window a sweep cell compresses its crash cycles into."""


def build_chaos_ops(
    rng, ops_per_client: int, key_space: int, scan_window: int, client: int
) -> list[tuple]:
    """Client ``client``'s deterministic op mix: 55% puts, 30% point
    gets, 15% short range scans, keys uniform over the preloaded space;
    op ``n``'s put writes ``c<client>-<n>``."""
    ops: list[tuple] = []
    for opnum in range(1, ops_per_client + 1):
        r = float(rng.random())
        k = int(rng.integers(0, key_space))
        row = b"%08d" % k
        if r < 0.55:
            ops.append(("put", row, b"c%02d-%04d" % (client, opnum)))
        elif r < 0.85:
            ops.append(("get", row))
        else:
            stop = b"%08d" % min(k + scan_window, key_space)
            ops.append(("scan", row, stop))
    return ops


def chaos_cell(
    num_servers: int = NUM_SERVERS,
    clients: int = 4,
    ops_per_client: int = 32,
    preload_rows: int = PRELOAD_ROWS,
    scan_window: int = 24,
    fault_config: FaultConfig | None = None,
    replica_count: int = 1,
    participants: tuple[Participant, ...] = (),
) -> ChaosRun:
    """The chaos suites' cell: a table pre-split into two regions per
    server (every crash takes real data offline), ``preload_rows``
    seeded rows, ``clients`` put/get/scan mixes under the failover
    protocol, and the :class:`FaultInjector` — then, with
    ``replica_count >= 2``, the replication shipper, then
    ``participants``."""
    fault_config = fault_config or FaultConfig()
    regions = max(2 * num_servers, 2)
    layout = Layout(
        ClusterConfig(
            num_region_servers=num_servers,
            seed=SEED,
            replica_count=replica_count,
        ),
        "chaos",
        [b"%08d" % (preload_rows * i // regions) for i in range(1, regions)],
    )
    ops = [
        build_chaos_ops(
            derive_rng(SEED, f"{fault_config.label}/chaos-client-{i}"),
            ops_per_client, preload_rows, scan_window, i,
        )
        for i in range(clients)
    ]
    chain: list[Participant] = [
        lambda cluster, history: FaultInjector(cluster, fault_config, history)
    ]
    if replica_count >= 2:
        chain.append(lambda cluster, _: ReplicationShipper(cluster.replication))
    return run_cell(
        layout,
        [(b"%08d" % i, b"seed-%06d" % i) for i in range(preload_rows)],
        ops,
        "failover",
        [*chain, *participants],
    )


def chaos_counters(prefix: str) -> dict[str, tuple[str, str, str]]:
    """The fault counters :func:`chaos_sweep_cell` records, as
    :class:`Grid` metrics named ``<prefix><Counter>``."""
    return {
        key: (f"{prefix}{name}", f"{what} vs injected crash cycles", "count")
        for key, name, what in (
            ("crashes", "Crashes", "Region-server crashes"),
            ("recoveries", "Recoveries", "Master recoveries run (quiesce included)"),
            ("regions_recovered", "RegionsRecovered", "Regions failed over"),
            ("failover_retries", "FailoverRetries", "Client failover retries"),
        )
    }


def chaos_sweep_cell(
    grid: Grid,
    label: str,
    what: str,
    *,
    cycles: int,
    recovery_replay_ms_per_entry: float = 0.0,
    **cell,
) -> ChaosRun:
    """Run one chaos cell of a sweep and record its ``throughput`` /
    ``p99`` / ``recovery`` metrics and its :func:`chaos_counters` under
    series ``label`` (shared with the replication suite). The requested
    cycle count is compressed into a fixed ``CHAOS_HORIZON_MS`` window,
    so the x-axis is a genuine crash *rate*: more cycles = denser faults
    over the same workload, not extra faults after it ended. Any
    invariant violation aborts the sweep. ``cell`` is forwarded to
    :func:`chaos_cell`."""
    run = chaos_cell(
        fault_config=FaultConfig(
            cycles=cycles,
            first_crash_ms=25.0,
            crash_interval_ms=CHAOS_HORIZON_MS / max(cycles, 1),
            recovery_replay_ms_per_entry=recovery_replay_ms_per_entry,
        ),
        **cell,
    )
    if run.violations:
        raise RuntimeError(f"{what} violated invariants: {run.violations}")
    report = run.report
    rts = report.response_times
    stalls = run.history.stalls_ms
    grid.set("throughput", label, cycles,
             per_second(report.committed, report.makespan_ms))
    grid.set("p99", label, cycles, percentile_or_zero(rts, 0.99), len(rts))
    grid.set("recovery", label, cycles,
             sum(stalls) / len(stalls) if stalls else 0.0, len(stalls))
    counters = run.as_dict()
    counters["recoveries"] += counters["quiesce_recoveries"]
    for metric in chaos_counters(""):
        grid.set(metric, label, cycles, counters[metric])
    return run


def run_faults(
    cycle_counts: tuple[int, ...] = (0, 1, 2, 4),
    client_counts: tuple[int, ...] = (4, 8),
    ops_per_client: int = 64,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Chaos sweep: crash rate (crash/recover cycles) x client count.

    Every cell preloads the same pre-split table and drives N chaos
    clients (put/get/scan with bounded failover retry) while the
    deterministic fault injector crashes, fails over and restarts
    region servers at seeded virtual timestamps (see
    :func:`chaos_sweep_cell` for the crash-rate axis). Reported per
    cell: committed ops per virtual second, p99 op response time
    (failover stalls included), and the mean client-observed recovery
    stall, plus the :func:`chaos_counters`. A cell with any
    durability/scan-consistency invariant violation aborts the
    experiment — chaos is a correctness gate, not just a perf curve.
    Everything derives from virtual time and seeded draws: reruns are
    byte-identical.
    """
    say = progress or (lambda _m: None)
    grid = Grid(
        "crash cycles", cycle_counts,
        throughput=(
            "FaultsThroughput",
            "Committed ops per second vs injected crash/recover cycles",
            "ops/s (virtual)",
        ),
        p99=(
            "FaultsP99",
            "99th percentile op response time vs injected crash cycles",
            "ms",
        ),
        recovery=(
            "FaultsRecovery",
            "Mean client-observed failover stall vs injected crash cycles",
            "ms",
        ),
        **chaos_counters("Faults"),
    )
    for clients in client_counts:
        for cycles in cycle_counts:
            say(f"[faults] {cycles} crash cycles x {clients} clients")
            chaos_sweep_cell(
                grid, f"{clients} clients",
                f"chaos cell ({cycles} cycles, {clients} clients)",
                cycles=cycles, clients=clients, ops_per_client=ops_per_client,
            )
    return grid.finish(
        f"{NUM_SERVERS} servers, {PRELOAD_ROWS} preloaded rows, "
        f"{ops_per_client} ops/client (55/30/15 put/get/scan), seed {SEED}; "
        "closed loop, bounded backoff-and-retry failover",
    )


FAULTS = Suite(
    "faults",
    lambda opts, say: list(run_faults(
        opts.crash_cycles,
        opts.faults_clients,
        ops_per_client=opts.faults_ops,
        progress=say,
    ).values()),
    flags=(
        Flag("crash_cycles", IntList(0), (0, 1, 2, 4),
             "comma-separated crash/recover cycle counts"),
        Flag("faults_clients", IntList(1), (4, 8),
             "comma-separated client counts"),
        Flag("faults_ops", int, 64, "operations per virtual client"),
    ),
    smoke=Smoke(
        # an invariant violation or a give-up aborts the sweep itself
        flags="--crash-cycles 0,2,4 --faults-clients 8 --faults-ops 48",
        checks=(
            ("fewer than 2 crash cycles injected",
             lambda e: mean(e, "FaultsCrashes", "8 clients") >= 2),
            ("fewer than 2 recoveries ran",
             lambda e: mean(e, "FaultsRecoveries", "8 clients") >= 2),
            ("no region ever failed over",
             lambda e: mean(e, "FaultsRegionsRecovered", "8 clients") > 0),
            ("no client ever hit the outage",
             lambda e: mean(e, "FaultsFailoverRetries", "8 clients") > 0),
        ),
    ),
)
