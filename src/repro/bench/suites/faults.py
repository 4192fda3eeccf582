"""Chaos sweep: crash rate x client count, gated on the durability oracle."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    ExperimentResult,
    Grid,
    per_second,
    percentile_or_zero,
)
from repro.bench.suite import Flag, IntList, Smoke, Suite
from repro.sim.faults import ChaosRun, FaultConfig, run_chaos_cell


def chaos_sweep_cell(
    grid: Grid,
    label: str,
    what: str,
    *,
    cycles: int,
    chaos_horizon_ms: float,
    recovery_replay_ms_per_entry: float = 0.0,
    **cell,
) -> tuple[ChaosRun, float]:
    """Run one chaos cell of a sweep and record its ``throughput`` /
    ``p99`` / ``recovery`` metrics under series ``label`` (shared with
    the replication suite). The requested cycle count is compressed
    into a fixed ``chaos_horizon_ms`` window, so the x-axis is a genuine
    crash *rate*: more cycles = denser faults over the same workload,
    not extra faults after it ended. Any invariant violation aborts the
    sweep. ``cell`` is forwarded to :func:`run_chaos_cell`. Returns
    ``(run, mean client-observed stall ms)``."""
    run = run_chaos_cell(
        fault_config=FaultConfig(
            cycles=cycles,
            first_crash_ms=25.0,
            crash_interval_ms=chaos_horizon_ms / max(cycles, 1),
            recovery_replay_ms_per_entry=recovery_replay_ms_per_entry,
        ),
        **cell,
    )
    if run.violations:
        raise RuntimeError(f"{what} violated invariants: {run.violations}")
    report = run.report
    rts = report.response_times
    stalls = run.history.stalls_ms
    mean_stall = sum(stalls) / len(stalls) if stalls else 0.0
    grid.set("throughput", label, cycles,
             per_second(report.committed, report.makespan_ms))
    grid.set("p99", label, cycles, percentile_or_zero(rts, 0.99), len(rts))
    grid.set("recovery", label, cycles, mean_stall, len(stalls))
    return run, mean_stall


def run_faults(
    cycle_counts: tuple[int, ...] = (0, 1, 2, 4),
    client_counts: tuple[int, ...] = (4, 8),
    ops_per_client: int = 64,
    num_servers: int = 3,
    preload_rows: int = 240,
    chaos_horizon_ms: float = 160.0,
    seed: int = 20170904,
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
    stall. A cell with any durability/scan-consistency invariant
    violation aborts the experiment — chaos is a correctness gate, not
    just a perf curve. Everything derives from virtual time and seeded
    draws: reruns are byte-identical.
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
    )
    chaos_notes: list[str] = []
    for clients in client_counts:
        for cycles in cycle_counts:
            say(f"[faults] {cycles} crash cycles x {clients} clients")
            run, _ = chaos_sweep_cell(
                grid, f"{clients} clients",
                f"chaos cell ({cycles} cycles, {clients} clients)",
                cycles=cycles, chaos_horizon_ms=chaos_horizon_ms,
                num_servers=num_servers, clients=clients,
                ops_per_client=ops_per_client, preload_rows=preload_rows,
                seed=seed,
            )
            if clients == client_counts[-1]:
                h = run.history
                chaos_notes.append(
                    f"{cycles} cycles @ {clients} clients: {h.crash_count} "
                    f"crashes, {h.regions_recovered} regions recovered, "
                    f"{h.failover_retries} failover retries, "
                    f"{len(h.stalls_ms)} stalled ops, 0 invariant violations"
                )
    return grid.finish(
        f"{num_servers} servers, {preload_rows} preloaded rows, "
        f"{ops_per_client} ops/client (55/30/15 put/get/scan), seed {seed}; "
        "closed loop, bounded backoff-and-retry failover",
        *chaos_notes,
    )


def faults_smoke(
    clients: int = 8,
    cycles: int = 3,
    ops_per_client: int = 32,
    seed: int = 20170904,
) -> dict:
    """CI smoke: one high-contention chaos cell; returns its
    ``ChaosRun.as_dict()`` counters (the gate asserts real crash/recover
    cycles were ridden out with zero violations)."""
    return run_chaos_cell(
        clients=clients,
        ops_per_client=ops_per_client,
        fault_config=FaultConfig(cycles=cycles),
        seed=seed,
    ).as_dict()


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
        # the invariant gate: every acked write survives failover, no
        # scan duplicates or loses rows, nothing gives up
        fn=faults_smoke,
        checks=(
            ("fewer than 2 crash cycles injected", lambda o: o["crashes"] >= 2),
            ("fewer than 2 recoveries ran",
             lambda o: o["recoveries"] + o["quiesce_recoveries"] >= 2),
            ("no region ever failed over",
             lambda o: o["regions_recovered"] > 0),
            ("no client ever hit the outage",
             lambda o: o["failover_retries"] > 0),
            ("chaos invariants violated", lambda o: o["violations"] == []),
            ("ops gave up under chaos", lambda o: o["committed"] == 8 * 32),
        ),
        flags="--crash-cycles 0,2,4 --faults-clients 8 --faults-ops 48",
    ),
)
