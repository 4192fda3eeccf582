"""Rolling operations: a staged scale-out rollout riding through chaos."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import ExperimentResult, Grid, percentile_or_zero
from repro.bench.suite import Flag, IntList, Smoke, Suite
from repro.config import ClusterConfig, ReplicationConfig
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
from repro.sim import Simulation
from repro.sim.faults import FAMILY, QUALIFIER, FaultConfig, run_chaos_cell


def run_orchestration_cell(
    cycles: int,
    clients: int = 4,
    ops_per_client: int = 48,
    preload_rows: int = 120,
    seed: int = 20170904,
    with_rollout: bool = True,
    target_servers: int = 4,
    target_replicas: int = 3,
    rollout_start_ms: float = 10.0,
):
    """One orchestration chaos cell: a closed-loop chaos workload rides
    through a staged rolling scale-out (add servers -> raise replicas ->
    rebalance) while the fault injector crashes region servers.

    This is :func:`repro.sim.faults.run_chaos_cell` on a 2-server
    cluster with ``replica_count=2`` plus one more participant: the
    orchestrator joins the scheduler as a non-daemon, so rollout steps
    interleave with client ops and fault events at their virtual
    timestamps. After the run the full durability + staleness oracle
    and the cluster-layout invariants are checked. Everything derives
    from virtual time and seeded draws: reruns are byte-identical.

    Returns ``(scheduler_report, rollout_report_or_None, history,
    violations, layout_issues)``.
    """
    seen: dict = {}

    def install(cluster, scheduler):
        seen["cluster"] = cluster
        if with_rollout:
            plan = ClusterPlan(
                servers=target_servers,
                tables={"chaos": TablePlan(replicas=target_replicas)},
            )
            seen["orchestrator"] = Orchestrator(
                cluster, plan=plan, start_delay_ms=rollout_start_ms
            )
            seen["orchestrator"].install(scheduler)

    run = run_chaos_cell(
        num_servers=2,
        clients=clients,
        ops_per_client=ops_per_client,
        preload_rows=preload_rows,
        scan_window=16,
        fault_config=FaultConfig(cycles=cycles, label="orchestration"),
        seed=seed,
        replication=ReplicationConfig(replica_count=2),
        install=install,
    )
    # a workload can end mid-outage (crashed process not yet
    # restarted): short replication groups are then expected transient
    # state, not corruption — only *fatal* layout issues gate the cell
    _transient, fatal = verify_cluster(seen["cluster"])
    rollout = seen["orchestrator"].report if with_rollout else None
    return run.report, rollout, run.history, run.violations, fatal


def run_orchestration(
    cycle_counts: tuple[int, ...] = (0, 2),
    clients: int = 4,
    ops_per_client: int = 48,
    seed: int = 20170904,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Rolling-operations experiment: staged scale-out under chaos.

    Each cell drives the same chaos workload twice — once with the
    orchestrated rollout (2 -> 4 servers, 2 -> 3 replicas, rebalance)
    installed and once without — at each crash-cycle count. Reported:
    rollout duration (virtual ms, only the rollout runs) and client p99
    with vs without the rollout, so the cost a rolling operation
    imposes on the workload is the visible delta. Any durability /
    staleness / layout violation, or a stage that fails to commit,
    aborts the experiment. Byte-identical across reruns.
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
    )
    notes: list[str] = []
    for cycles in cycle_counts:
        say(f"[orchestration] rollout under {cycles} crash cycles")
        report, rollout, history, violations, layout = run_orchestration_cell(
            cycles, clients=clients, ops_per_client=ops_per_client, seed=seed,
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
                seed=seed, with_rollout=False,
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
        notes.append(
            f"{cycles} cycles: {rollout.committed_stages}/"
            f"{len(rollout.stages)} stages committed in "
            f"{rollout.duration_ms:.2f} virtual ms, "
            f"{history.crash_count} crashes ridden out, "
            f"{rollout.as_dict()['stages'][-1]['epoch']} layout epochs, "
            "0 violations (durability + staleness + layout)"
        )
    return grid.finish(
        f"2 -> 4 servers, 2 -> 3 replicas + load-aware rebalance; "
        f"{clients} clients x {ops_per_client} ops (55/30/15 put/get/scan), "
        f"seed {seed}; orchestrator is a scheduler participant "
        "(steps interleave with chaos at virtual timestamps)",
        *notes,
    )


def orchestration_smoke(
    cycles: int = 2,
    clients: int = 4,
    ops_per_client: int = 64,
    seed: int = 20170904,
) -> dict[str, int]:
    """CI smoke: one 3-stage rollout (add servers -> raise replicas ->
    rebalance) under chaos; returns the rollout and invariant counters
    (the gate asserts every stage committed with zero violations)."""
    report, rollout, history, violations, layout = run_orchestration_cell(
        cycles, clients=clients, ops_per_client=ops_per_client, seed=seed,
    )
    return {
        "stages_committed": rollout.committed_stages,
        "stages_total": len(rollout.stages),
        "rollout_committed": int(rollout.status == "committed"),
        "crashes": history.crash_count,
        "recoveries": history.recover_count,
        "failover_retries": history.failover_retries,
        "committed_ops": report.committed,
        "violations": len(violations),
        "layout_issues": len(layout),
    }


def orchestration_rollback_smoke(seed: int = 20170904) -> dict[str, int]:
    """CI fault drill: a stage that mixes real steps with a poisoned
    step must roll back to *exactly* the pre-rollout state — compared
    row-for-row (cell snapshots) and by layout fingerprint."""
    sim = Simulation(seed=seed)
    cluster = HBaseCluster(
        sim, ClusterConfig(num_region_servers=2, seed=seed)
    )
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
        "rolled_back": int(rollout.status == "rolled-back"),
        "stages_total": len(rollout.stages),
        "rows_intact": int(rows_intact),
        "layout_intact": int(layout_intact),
    }


def orchestration_step_drill(seed: int = 20170904) -> dict[str, dict[str, int]]:
    """CI fault drill over every other step kind, on a 3-server cluster
    with replication: a poisoned stage of add-server, rebalance, replica
    raise on an already-replicated table, drain, move and merge must
    unwind (split, move back, undrain, restore followers, restore moves,
    remove) to exactly the pre-rollout state. Then a committed scale-in
    plan drains its retiring member for real, rebuilding its followers
    elsewhere."""
    sim = Simulation(seed=seed)
    cluster = HBaseCluster(sim, ClusterConfig(
        num_region_servers=3, seed=seed,
        replication=ReplicationConfig(replica_count=2),
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
        "rolled_back": int(rollback.status == "rolled-back"),
        "rows_intact": int(cluster_snapshot(cluster) == before_rows),
        "layout_intact": int(cluster.layout_fingerprint() == before_layout),
    }
    retiring = cluster.servers[-1]
    scale_in = Orchestrator(
        cluster, plan=ClusterPlan(servers=len(cluster.servers) - 1)
    ).run()
    _transient, fatal = verify_cluster(cluster)
    return {
        "every_step": rolled_back,
        "scale_in": {
            "committed": int(scale_in.status == "committed"),
            "drained": int(
                retiring.draining
                and not retiring.regions
                and not retiring.follower_regions
            ),
            "followers_rebuilt": cluster.replication.followers_rebuilt - rebuilt,
            "rows_intact": int(cluster_snapshot(cluster) == before_rows),
            "layout_issues": len(fatal),
        },
    }


def _smoke() -> dict[str, dict[str, int]]:
    """The orchestration gate is three drills: the rollout under chaos,
    the induced-failure rollback, and the every-step rollback followed
    by a committed scale-in."""
    return {
        "rollout": orchestration_smoke(),
        "drill": orchestration_rollback_smoke(),
        **orchestration_step_drill(),
    }


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
        # the rolling-operations gate: every stage of the scale-out
        # (add servers -> raise replicas -> rebalance) must commit while
        # the fault injector crashes servers mid-rollout, with zero
        # durability/staleness/layout violations; and a stage poisoned
        # after real steps applied must unwind to exactly the
        # pre-rollout state, row-for-row and by layout fingerprint
        fn=_smoke,
        checks=(
            ("rollout did not plan 3 stages",
             lambda o: o["rollout"]["stages_total"] == 3),
            ("a rollout stage failed",
             lambda o: o["rollout"]["stages_committed"] == 3),
            ("rollout did not commit",
             lambda o: o["rollout"]["rollout_committed"] == 1),
            ("fewer than 2 crash cycles injected",
             lambda o: o["rollout"]["crashes"] >= 2),
            ("no recovery ran mid-rollout",
             lambda o: o["rollout"]["recoveries"] >= 1),
            ("chaos invariants violated",
             lambda o: o["rollout"]["violations"] == 0),
            ("cluster layout corrupted",
             lambda o: o["rollout"]["layout_issues"] == 0),
            ("poisoned stage did not roll back",
             lambda o: o["drill"]["rolled_back"] == 1),
            ("rollback lost or mutated rows",
             lambda o: o["drill"]["rows_intact"] == 1),
            ("rollback left the layout dirty",
             lambda o: o["drill"]["layout_intact"] == 1),
            ("every-step stage did not roll back",
             lambda o: o["every_step"]["rolled_back"] == 1),
            ("every-step rollback lost or mutated rows",
             lambda o: o["every_step"]["rows_intact"] == 1),
            ("every-step rollback left the layout dirty",
             lambda o: o["every_step"]["layout_intact"] == 1),
            ("scale-in plan did not commit",
             lambda o: o["scale_in"]["committed"] == 1),
            ("scale-in left state on the retired server",
             lambda o: o["scale_in"]["drained"] == 1),
            ("scale-in rebuilt no follower",
             lambda o: o["scale_in"]["followers_rebuilt"] >= 1),
            ("scale-in lost or mutated rows",
             lambda o: o["scale_in"]["rows_intact"] == 1),
            ("scale-in corrupted the layout",
             lambda o: o["scale_in"]["layout_issues"] == 0),
        ),
        flags="--orchestration-cycles 0,2 --orchestration-clients 4 "
              "--orchestration-ops 48",
    ),
)
