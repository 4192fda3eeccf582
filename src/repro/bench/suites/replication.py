"""Replication sweep: replica count x crash rate, plus the staleness oracle."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import ExperimentResult, Grid
from repro.bench.suite import Flag, IntList, Smoke, Suite
from repro.bench.suites.faults import chaos_sweep_cell
from repro.config import ReplicationConfig
from repro.sim.faults import FaultConfig, run_chaos_cell


def run_replication(
    replica_counts: tuple[int, ...] = (1, 2, 3),
    cycle_counts: tuple[int, ...] = (0, 2, 4),
    clients: int = 6,
    ops_per_client: int = 48,
    num_servers: int = 4,
    preload_rows: int = 240,
    chaos_horizon_ms: float = 160.0,
    recovery_replay_ms_per_entry: float = 0.4,
    seed: int = 20170904,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Replication sweep: replica count x crash rate.

    Same chaos cell as :func:`~repro.bench.suites.faults.run_faults` —
    pre-split preloaded table, closed-loop put/get/scan clients with
    bounded failover retry, seeded fault plan — but with a nonzero
    per-entry recovery replay cost, so the unavailability window is
    proportional to the state master failover must replay. That is
    where replication earns its keep: with ``replica_count >= 2`` a
    crashed primary is *promoted* from its most-caught-up follower
    (replaying only the un-shipped ship-log suffix) instead of rebuilt
    from the dead server's whole pending WAL, and follower reads keep
    serving through the outage. Reported per replica count: throughput,
    p99 op response time and the mean client-observed recovery stall —
    the single-copy series is the baseline the replicated ones must
    beat. Every cell is checked against the full durability *and*
    staleness oracle and aborts the experiment on any violation.
    Byte-identical across reruns.
    """
    say = progress or (lambda _m: None)
    grid = Grid(
        "crash cycles", cycle_counts,
        throughput=(
            "ReplicationThroughput",
            "Committed ops per second vs crash cycles, by replica count",
            "ops/s (virtual)",
        ),
        p99=(
            "ReplicationP99",
            "99th percentile op response time vs crash cycles, by replica count",
            "ms",
        ),
        recovery=(
            "ReplicationRecovery",
            "Mean client-observed recovery stall vs crash cycles, by replica count",
            "ms",
        ),
    )
    mean_stalls: dict[int, dict[int, float]] = {}
    rep_notes: list[str] = []
    for replicas in replica_counts:
        mean_stalls[replicas] = {}
        for cycles in cycle_counts:
            say(f"[replication] {replicas} replicas x {cycles} crash cycles")
            run, mean_stalls[replicas][cycles] = chaos_sweep_cell(
                grid, f"{replicas} replica{'s' if replicas != 1 else ''}",
                f"replication cell ({replicas} replicas, {cycles} cycles)",
                cycles=cycles, chaos_horizon_ms=chaos_horizon_ms,
                recovery_replay_ms_per_entry=recovery_replay_ms_per_entry,
                replication=(
                    ReplicationConfig(replica_count=replicas)
                    if replicas >= 2
                    else None
                ),
                num_servers=num_servers, clients=clients,
                ops_per_client=ops_per_client, preload_rows=preload_rows,
                seed=seed,
            )
            if cycles == cycle_counts[-1] and run.replication is not None:
                s = run.replication
                rep_notes.append(
                    f"{replicas} replicas @ {cycles} cycles: "
                    f"{s['promotions']} promotions, "
                    f"{s['followers_rebuilt']} followers rebuilt, "
                    f"{s['entries_shipped']} entries shipped, "
                    f"{s['follower_gets']} follower gets, "
                    f"{s['follower_scan_windows']} follower scan windows, "
                    "0 violations (durability + staleness)"
                )
    crashiest = cycle_counts[-1]
    baseline = mean_stalls.get(1, {}).get(crashiest)
    if baseline:
        for replicas in replica_counts:
            if replicas < 2:
                continue
            stall = mean_stalls[replicas][crashiest]
            rep_notes.append(
                f"mean recovery stall @ {crashiest} cycles: "
                f"{stall:.2f} ms with {replicas} replicas vs "
                f"{baseline:.2f} ms single-copy "
                f"({stall / baseline:.2f}x)"
            )
    return grid.finish(
        f"{num_servers} servers, {preload_rows} preloaded rows, "
        f"{clients} clients x {ops_per_client} ops (55/30/15 put/get/scan), "
        f"replay cost {recovery_replay_ms_per_entry} ms/entry, seed {seed}; "
        "promotion-on-crash + bounded-staleness follower reads",
        *rep_notes,
    )


def replication_smoke(
    replica_count: int = 2,
    clients: int = 8,
    cycles: int = 3,
    ops_per_client: int = 32,
    seed: int = 20170904,
) -> dict:
    """CI smoke: one replicated high-contention chaos cell; returns its
    ``ChaosRun.as_dict()`` counters, replication block included (the
    gate asserts promotions and follower reads actually happened, with
    zero violations on the durability *and* staleness axes)."""
    return run_chaos_cell(
        num_servers=4,
        clients=clients,
        ops_per_client=ops_per_client,
        fault_config=FaultConfig(
            cycles=cycles, recovery_replay_ms_per_entry=0.4
        ),
        seed=seed,
        replication=ReplicationConfig(replica_count=replica_count),
    ).as_dict()


def _promotion_beats_single_copy(experiments) -> bool:
    series = experiments["ReplicationRecovery"]["series"]
    return series["2 replicas"]["3"]["mean"] < series["1 replica"]["3"]["mean"]


REPLICATION = Suite(
    "replication",
    lambda opts, say: list(run_replication(
        opts.replicas,
        opts.replication_cycles,
        clients=opts.replication_clients,
        ops_per_client=opts.replication_ops,
        progress=say,
    ).values()),
    flags=(
        Flag("replicas", IntList(1), (1, 2, 3),
             "comma-separated replica counts (1 = no replication)"),
        Flag("replication_cycles", IntList(0), (0, 2, 4),
             "comma-separated crash cycle counts"),
        Flag("replication_clients", int, 6, "virtual clients"),
        Flag("replication_ops", int, 48, "operations per virtual client"),
    ),
    smoke=Smoke(
        # the replication gate: crashes promote followers, follower
        # reads stay within the staleness bound and pinned to their
        # applied-WAL watermark, and the durability oracle stays clean
        fn=replication_smoke,
        checks=(
            ("fewer than 2 crash cycles injected", lambda o: o["crashes"] >= 2),
            ("fewer than 2 recoveries ran",
             lambda o: o["recoveries"] + o["quiesce_recoveries"] >= 2),
            ("no crash ever promoted a follower",
             lambda o: o["replication"]["promotions"] > 0),
            ("the shipper never ran",
             lambda o: o["replication"]["entries_shipped"] > 0),
            ("no get was served by a follower",
             lambda o: o["replication"]["follower_gets"] > 0),
            ("no scan window was served by a follower",
             lambda o: o["replication"]["follower_scan_windows"] > 0),
            ("durability/staleness invariants violated",
             lambda o: o["violations"] == []),
            ("ops gave up under chaos", lambda o: o["committed"] == 8 * 32),
        ),
        flags="--replicas 1,2 --replication-cycles 0,3 "
              "--replication-clients 6 --replication-ops 32",
        sweep_checks=(
            ("replication did not reduce the recovery stall",
             _promotion_beats_single_copy),
        ),
    ),
)
