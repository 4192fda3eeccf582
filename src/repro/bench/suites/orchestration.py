"""Rolling operations: a staged scale-out rollout riding through chaos."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import SEED, ExperimentResult, Grid, percentile_or_zero
from repro.bench.suite import Flag, IntList, Smoke, Suite, mean
from repro.bench.suites.faults import chaos_cell
from repro.config import ClusterConfig
from repro.hbase import HBaseClient, HBaseCluster, Put
from repro.orchestration import (
    AddServers,
    ClusterPlan,
    DrainServer,
    MergeRegions,
    MoveRegion,
    Orchestrator,
    PoisonStep,
    Rebalance,
    SetReplicas,
    SplitRegion,
    TablePlan,
    cluster_snapshot,
    verify_cluster,
)
from repro.hbase.chaos import FAMILY, QUALIFIER, FaultConfig
from repro.sim import Simulation

PRELOAD_ROWS = 120
#: The rollout's target: 2 -> 4 servers and 2 -> 3 replicas, starting
#: this many virtual ms into the workload.
TARGET_SERVERS = 4
TARGET_REPLICAS = 3
ROLLOUT_START_MS = 10.0


def run_orchestration_cell(
    cycles: int,
    clients: int = 4,
    ops_per_client: int = 48,
    with_rollout: bool = True,
):
    """One orchestration chaos cell: a closed-loop chaos workload rides
    through a staged rolling scale-out (add servers -> raise replicas ->
    rebalance) while the fault injector crashes region servers.

    This is :func:`~repro.bench.suites.faults.chaos_cell` on a 2-server
    cluster with ``replica_count=2`` plus one more participant: the
    orchestrator joins the scheduler as a non-daemon, so rollout steps
    interleave with client ops and fault events at their virtual
    timestamps. After the run the full durability + staleness oracle
    and the cluster-layout invariants are checked. Everything derives
    from virtual time and seeded draws: reruns are byte-identical.

    Returns ``(scheduler_report, rollout_report_or_None, history,
    violations, layout_issues)``.
    """
    plan = ClusterPlan(
        servers=TARGET_SERVERS,
        tables={"chaos": TablePlan(replicas=TARGET_REPLICAS)},
    )
    run = chaos_cell(
        num_servers=2,
        clients=clients,
        ops_per_client=ops_per_client,
        preload_rows=PRELOAD_ROWS,
        scan_window=16,
        fault_config=FaultConfig(cycles=cycles, label="orchestration"),
        replica_count=2,
        participants=(
            lambda cluster, _: Orchestrator(
                cluster, plan=plan, start_delay_ms=ROLLOUT_START_MS
            ),
        ) if with_rollout else (),
    )
    # a workload can end mid-outage (crashed process not yet
    # restarted): short replication groups are then expected transient
    # state, not corruption — only *fatal* layout issues gate the cell
    _transient, fatal = verify_cluster(run.cluster)
    rollout = run.participants[-1].report if with_rollout else None
    return run.report, rollout, run.history, run.violations, fatal


def run_orchestration(
    cycle_counts: tuple[int, ...] = (0, 2),
    clients: int = 4,
    ops_per_client: int = 48,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Rolling-operations experiment: staged scale-out under chaos.

    Each cell drives the same chaos workload twice — once with the
    orchestrated rollout (2 -> 4 servers, 2 -> 3 replicas, rebalance)
    installed and once without — at each crash-cycle count. Reported:
    rollout duration (virtual ms, only the rollout runs) and client p99
    with vs without the rollout, so the cost a rolling operation
    imposes on the workload is the visible delta, plus the rollout's
    counters (stages planned and committed, crashes and recoveries it
    rode out, layout epochs). Any durability / staleness / layout
    violation, or a stage that fails to commit, aborts the experiment.
    The two rollback drills (:func:`orchestration_rollback_drill`,
    :func:`orchestration_step_drill`) run last, as the
    ``OrchestrationDrills`` experiment. Byte-identical across reruns.
    """
    say = progress or (lambda _m: None)
    grid = Grid(
        "crash cycles", cycle_counts,
        duration=(
            "OrchestrationDuration",
            "Staged rollout duration vs injected crash cycles",
            "virtual ms",
        ),
        p99=(
            "OrchestrationP99",
            "Client p99 op response time, with vs without a rolling rollout",
            "ms",
        ),
        rollout=(
            "OrchestrationRollout",
            "Staged rollout counters vs injected crash cycles",
            "count",
        ),
    )
    for cycles in cycle_counts:
        say(f"[orchestration] rollout under {cycles} crash cycles")
        report, rollout, history, violations, layout = run_orchestration_cell(
            cycles, clients=clients, ops_per_client=ops_per_client,
        )
        if violations or layout:
            raise RuntimeError(
                f"orchestration cell ({cycles} cycles) violated invariants: "
                f"{violations + layout}"
            )
        if rollout.status != "committed":
            raise RuntimeError(
                f"orchestration cell ({cycles} cycles): rollout "
                f"{rollout.status}, stages "
                f"{[(s.name, s.status, s.error) for s in rollout.stages]}"
            )
        base_report, _, _, base_violations, base_layout = (
            run_orchestration_cell(
                cycles, clients=clients, ops_per_client=ops_per_client,
                with_rollout=False,
            )
        )
        if base_violations or base_layout:
            raise RuntimeError(
                f"orchestration baseline ({cycles} cycles) violated "
                f"invariants: {base_violations + base_layout}"
            )
        grid.set("duration", "staged rollout", cycles,
                 rollout.duration_ms, len(rollout.stages))
        for label, rts in (
            ("with rollout", report.response_times),
            ("no rollout", base_report.response_times),
        ):
            grid.set("p99", label, cycles,
                     percentile_or_zero(rts, 0.99), len(rts))
        for label, value in (
            ("stages planned", len(rollout.stages)),
            ("stages committed", rollout.committed_stages),
            ("crashes", history.crash_count),
            ("recoveries", history.recover_count),
            ("layout epochs", rollout.as_dict()["stages"][-1]["epoch"]),
        ):
            grid.set("rollout", label, cycles, value)
    say("[orchestration] rollback drills")
    outcomes = {
        "poisoned stage": orchestration_rollback_drill(),
        **orchestration_step_drill(),
    }
    drills = Grid("drill", outcomes, drills=(
        "OrchestrationDrills",
        "Rollback drills: a poisoned stage must unwind to the exact "
        "pre-rollout state",
        "count",
    ))
    for drill, counters in outcomes.items():
        for label, value in counters.items():
            drills.set("drills", label, drill, value)
    return grid.finish(
        f"2 -> {TARGET_SERVERS} servers, 2 -> {TARGET_REPLICAS} replicas "
        "+ load-aware rebalance; "
        f"{clients} clients x {ops_per_client} ops (55/30/15 put/get/scan), "
        f"seed {SEED}; orchestrator is a scheduler participant "
        "(steps interleave with chaos at virtual timestamps)",
    ) | drills.finish()


def orchestration_rollback_drill() -> dict[str, int]:
    """Fault drill: a stage that mixes real steps with a poisoned step
    must roll back to *exactly* the pre-rollout state — compared
    row-for-row (cell snapshots) and by layout fingerprint."""
    sim = Simulation(seed=SEED)
    cluster = HBaseCluster(sim, ClusterConfig(num_region_servers=2, seed=SEED))
    client = HBaseClient(cluster)
    table = client.create_table("drill", families=(FAMILY,))
    puts = []
    for i in range(60):
        puts.append(
            Put(b"%08d" % i).add(FAMILY, QUALIFIER, b"v-%06d" % i)
        )
    table.put_batch(puts)
    client.create_table("empty", families=(FAMILY,))
    before_rows = cluster_snapshot(cluster)
    before_layout = cluster.layout_fingerprint()
    orch = Orchestrator(cluster, stages=[
        ("1:drill", [
            AddServers(2),
            SplitRegion("drill", b"%08d" % 30),
            SetReplicas("empty", 2),
            PoisonStep(),
        ]),
    ])
    rollout = orch.run()
    rows_intact = cluster_snapshot(cluster) == before_rows
    layout_intact = cluster.layout_fingerprint() == before_layout
    return {
        "rolled back": int(rollout.status == "rolled-back"),
        "stages planned": len(rollout.stages),
        "rows intact": int(rows_intact),
        "layout intact": int(layout_intact),
    }


def orchestration_step_drill() -> dict[str, dict[str, int]]:
    """Fault drill over every other step kind, on a 3-server cluster
    with replication: a poisoned stage of add-server, rebalance, replica
    raise on an already-replicated table, drain, move and merge must
    roll back to exactly the pre-rollout state. Then a committed scale-in
    plan drains its retiring member for real, rebuilding its followers
    elsewhere."""
    sim = Simulation(seed=SEED)
    cluster = HBaseCluster(sim, ClusterConfig(
        num_region_servers=3, seed=SEED, replica_count=2,
    ))
    client = HBaseClient(cluster)
    split = b"%08d" % 30
    drill = client.create_table("drill", families=(FAMILY,), split_keys=[split])
    drill.put_batch([
        Put(b"%08d" % i).add(FAMILY, QUALIFIER, b"v-%06d" % i)
        for i in range(60)
    ])
    replicated = client.create_table(
        "replicated", families=(FAMILY,), split_keys=[b"%08d" % 7, b"%08d" % 14]
    )
    cluster.replication.replicate_table("replicated")
    replicated.put_batch([
        Put(b"%08d" % i).add(FAMILY, QUALIFIER, b"r-%06d" % i)
        for i in range(20)
    ])
    before_rows = cluster_snapshot(cluster)
    before_layout = cluster.layout_fingerprint()
    low_host = cluster.server_for(cluster.descriptor("drill").regions[0])
    # a member hosting a primary and a follower, so its drain moves both
    victim = next(
        s for s in cluster.servers
        if s is not low_host and s.regions and s.follower_regions
    )
    rollback = Orchestrator(cluster, stages=[
        ("1:every-step", [
            AddServers(names=["rs4"]),
            Rebalance(),
            SetReplicas("replicated", 3),
            DrainServer(victim.name),
            MoveRegion("drill", b"", "rs4"),
            MergeRegions("drill", b"", split),
            PoisonStep(),
        ]),
    ]).run()
    rebuilt = cluster.replication.followers_rebuilt
    rolled_back = {
        "rolled back": int(rollback.status == "rolled-back"),
        "rows intact": int(cluster_snapshot(cluster) == before_rows),
        "layout intact": int(cluster.layout_fingerprint() == before_layout),
    }
    retiring = cluster.servers[-1]
    scale_in = Orchestrator(
        cluster, plan=ClusterPlan(servers=len(cluster.servers) - 1)
    ).run()
    _transient, fatal = verify_cluster(cluster)
    return {
        "every step": rolled_back,
        "scale-in": {
            "committed": int(scale_in.status == "committed"),
            "drained": int(
                retiring.draining
                and not retiring.regions
                and not retiring.follower_regions
            ),
            "followers rebuilt": cluster.replication.followers_rebuilt - rebuilt,
            "rows intact": int(cluster_snapshot(cluster) == before_rows),
            "layout issues": len(fatal),
        },
    }


def _rollout(e, counter: str) -> float:
    """The rollout's ``counter`` at the sweep's crashiest x."""
    return mean(e, "OrchestrationRollout", counter)


def _drill(e, counter: str, drill: str) -> float:
    return mean(e, "OrchestrationDrills", counter, drill)


ORCHESTRATION = Suite(
    "orchestration",
    lambda opts, say: list(run_orchestration(
        opts.orchestration_cycles,
        clients=opts.orchestration_clients,
        ops_per_client=opts.orchestration_ops,
        progress=say,
    ).values()),
    flags=(
        Flag("orchestration_cycles", IntList(0), (0, 2),
             "comma-separated crash cycle counts (0 = no chaos)"),
        Flag("orchestration_clients", int, 4, "virtual clients"),
        Flag("orchestration_ops", int, 48, "operations per virtual client"),
    ),
    smoke=Smoke(
        # a violation, a fatal layout finding or a rollout that does not
        # commit aborts the sweep itself
        flags="--orchestration-cycles 0,2 --orchestration-ops 64",
        checks=(
            ("rollout did not plan 3 stages",
             lambda e: _rollout(e, "stages planned") == 3),
            ("a rollout stage failed",
             lambda e: _rollout(e, "stages committed") == 3),
            ("fewer than 2 crash cycles injected",
             lambda e: _rollout(e, "crashes") >= 2),
            ("no recovery ran mid-rollout",
             lambda e: _rollout(e, "recoveries") >= 1),
            ("poisoned stage did not roll back",
             lambda e: _drill(e, "rolled back", "poisoned stage") == 1),
            ("rollback lost or mutated rows",
             lambda e: _drill(e, "rows intact", "poisoned stage") == 1),
            ("rollback left the layout dirty",
             lambda e: _drill(e, "layout intact", "poisoned stage") == 1),
            ("every-step stage did not roll back",
             lambda e: _drill(e, "rolled back", "every step") == 1),
            ("every-step rollback lost or mutated rows",
             lambda e: _drill(e, "rows intact", "every step") == 1),
            ("every-step rollback left the layout dirty",
             lambda e: _drill(e, "layout intact", "every step") == 1),
            ("scale-in plan did not commit",
             lambda e: _drill(e, "committed", "scale-in") == 1),
            ("scale-in left state on the retired server",
             lambda e: _drill(e, "drained", "scale-in") == 1),
            ("scale-in rebuilt no follower",
             lambda e: _drill(e, "followers rebuilt", "scale-in") >= 1),
            ("scale-in lost or mutated rows",
             lambda e: _drill(e, "rows intact", "scale-in") == 1),
            ("scale-in corrupted the layout",
             lambda e: _drill(e, "layout issues", "scale-in") == 0),
        ),
    ),
)
