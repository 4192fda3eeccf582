"""Replication sweep: replica count x crash rate, plus the staleness oracle."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import SEED, ExperimentResult, Grid
from repro.bench.suite import Flag, IntList, Smoke, Suite, mean
from repro.bench.suites.faults import PRELOAD_ROWS, chaos_counters, chaos_sweep_cell

NUM_SERVERS = 4
RECOVERY_REPLAY_MS_PER_ENTRY = 0.4
"""Master failover's replay cost per pending WAL entry."""

#: ``ChaosRun.replication`` counters the sweep reports per replicated
#: cell, as ``Replication<Name>`` experiments.
REPLICATION_COUNTERS = {
    "promotions": ("Promotions", "Followers promoted on crash"),
    "followers_rebuilt": ("FollowersRebuilt", "Followers rebuilt"),
    "entries_shipped": ("EntriesShipped", "WAL entries shipped"),
    "follower_gets": ("FollowerGets", "Gets served by a follower"),
    "follower_scan_windows": ("FollowerScanWindows",
                              "Scan windows served by a follower"),
}


def run_replication(
    replica_counts: tuple[int, ...] = (1, 2, 3),
    cycle_counts: tuple[int, ...] = (0, 2, 4),
    clients: int = 6,
    ops_per_client: int = 48,
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
    beat — plus the chaos and :data:`REPLICATION_COUNTERS` counters.
    Every cell is checked against the full durability *and* staleness
    oracle and aborts the experiment on any violation.
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
        **chaos_counters("Replication"),
        **{
            key: (f"Replication{name}", f"{what} vs crash cycles", "count")
            for key, (name, what) in REPLICATION_COUNTERS.items()
        },
    )
    for replicas in replica_counts:
        label = f"{replicas} replica{'s' if replicas != 1 else ''}"
        for cycles in cycle_counts:
            say(f"[replication] {replicas} replicas x {cycles} crash cycles")
            run = chaos_sweep_cell(
                grid, label,
                f"replication cell ({replicas} replicas, {cycles} cycles)",
                cycles=cycles,
                recovery_replay_ms_per_entry=RECOVERY_REPLAY_MS_PER_ENTRY,
                replica_count=replicas, num_servers=NUM_SERVERS,
                clients=clients, ops_per_client=ops_per_client,
            )
            if run.replication is not None:
                for metric in REPLICATION_COUNTERS:
                    grid.set(metric, label, cycles, run.replication[metric])
    return grid.finish(
        f"{NUM_SERVERS} servers, {PRELOAD_ROWS} preloaded rows, "
        f"{clients} clients x {ops_per_client} ops (55/30/15 put/get/scan), "
        f"replay cost {RECOVERY_REPLAY_MS_PER_ENTRY} ms/entry, seed {SEED}; "
        "promotion-on-crash + bounded-staleness follower reads",
    )


def _replicated(e, counter: str) -> float:
    """``counter`` of the 2-replica cell at the sweep's crashiest x."""
    return mean(e, f"Replication{counter}", "2 replicas")


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
        # an invariant violation (durability or staleness) or a give-up
        # aborts the sweep itself
        flags="--replicas 1,2 --replication-cycles 0,3 "
              "--replication-clients 6 --replication-ops 32",
        checks=(
            ("fewer than 2 crash cycles injected",
             lambda e: _replicated(e, "Crashes") >= 2),
            ("fewer than 2 recoveries ran",
             lambda e: _replicated(e, "Recoveries") >= 2),
            ("no crash ever promoted a follower",
             lambda e: _replicated(e, "Promotions") > 0),
            ("the shipper never ran",
             lambda e: _replicated(e, "EntriesShipped") > 0),
            ("no get was served by a follower",
             lambda e: _replicated(e, "FollowerGets") > 0),
            ("no scan window was served by a follower",
             lambda e: _replicated(e, "FollowerScanWindows") > 0),
            ("replication did not reduce the recovery stall",
             lambda e: _replicated(e, "Recovery")
             < mean(e, "ReplicationRecovery", "1 replica")),
        ),
    ),
)
