"""Orchestration under chaos: rollouts interleaved with the fault
injector, crash-racing steps, and deterministic reruns."""

from __future__ import annotations

import json

import pytest

from repro.bench.suite import failed
from repro.bench.suites.orchestration import (
    ORCHESTRATION,
    run_orchestration,
    run_orchestration_cell,
)
from repro.hbase.ops import Put
from repro.hbase.replication import ReplicationShipper
from repro.orchestration import orchestrator
from repro.orchestration import (
    AddServers,
    MoveRegion,
    Orchestrator,
    PoisonStep,
    SplitRegion,
    cluster_snapshot,
    verify_cluster,
)
from repro.hbase.chaos import FaultConfig, FaultInjector, ChaosHistory
from repro.sim.scheduler import DeterministicScheduler
from tests.conftest import build_cluster

FAM = b"cf"


def reset_cluster(**kwargs):
    """:func:`~tests.conftest.build_cluster` with the clock back at 0."""
    cluster, client = build_cluster(**kwargs)
    cluster.sim.reset_clock()
    return cluster, client


def surgical_faulter(cluster, victim, t_crash, t_recover, t_restart=None):
    """A deterministic one-victim chaos daemon (crash -> master
    recovery -> optional process restart at fixed virtual times)."""

    def program(vc):
        vc.clock.advance(t_crash)
        yield "crash"
        victim.crash()
        vc.clock.advance(t_recover - t_crash)
        yield "recover"
        cluster.recover_server(victim)
        if t_restart is not None:
            vc.clock.advance(t_restart - t_recover)
            yield "restart"
            victim.restart()

    return program


class TestRolloutUnderChaos:
    @pytest.fixture(scope="class")
    def gate(self):
        """The suite's own gate checks, held against a sweep at the
        gate's crash point (2 cycles, 64 ops/client) exactly as
        ``python -m repro.bench --smoke orchestration`` (and so CI)
        evaluates them."""
        results = run_orchestration((2,), ops_per_client=64)
        out = {r.experiment_id: r.to_dict() for r in results.values()}
        return out, failed(ORCHESTRATION.smoke.checks, out)

    @staticmethod
    def _drill(out, drill):
        return {
            label: points[drill]["mean"]
            for label, points in out["OrchestrationDrills"]["series"].items()
            if drill in points
        }

    def test_rollout_commits_through_crash_cycles(self, gate):
        out, failures = gate
        # 3/3 stages committed through >= 2 crash cycles, zero
        # durability/staleness/layout violations, drill rolled back
        assert failures == []
        rollout = out["OrchestrationRollout"]["series"]
        assert rollout["stages committed"]["2"]["mean"] == 3
        assert rollout["stages planned"]["2"]["mean"] == 3

    def test_induced_rollback_restores_state(self, gate):
        out, _ = gate
        assert self._drill(out, "poisoned stage") == {
            "rolled back": 1,
            "stages planned": 1,
            "rows intact": 1,
            "layout intact": 1,
        }

    def test_every_step_kind_rolls_back(self, gate):
        """Drain, move, merge, add/remove and a replica raise on a
        replicated table all unwind exactly."""
        out, _ = gate
        assert self._drill(out, "every step") == {
            "rolled back": 1,
            "rows intact": 1,
            "layout intact": 1,
        }

    def test_scale_in_commits(self, gate):
        """A scale-in plan drains its retiring member for real."""
        out, _ = gate
        assert self._drill(out, "scale-in") == {
            "committed": 1,
            "drained": 1,
            "followers rebuilt": 1,
            "rows intact": 1,
            "layout issues": 0,
        }

    def test_chaos_rollout_rerun_is_byte_identical(self):
        def run():
            report, rollout, history, violations, fatal = (
                run_orchestration_cell(cycles=2)
            )
            return json.dumps({
                "rollout": rollout.as_dict(),
                "makespan_ms": report.makespan_ms,
                "committed": report.committed,
                "crashes": history.crash_count,
                "recoveries": history.recover_count,
                "violations": violations,
                "fatal": fatal,
            }, sort_keys=True)

        assert run() == run()

    def test_scheduled_rollback_under_chaos_is_deterministic(self):
        """A poisoned stage racing real crash/recover cycles must still
        unwind its own effects — and reruns must agree byte-for-byte."""

        def run():
            cluster, _ = reset_cluster(splits=[b"%05d" % 20])
            rows_before = cluster_snapshot(cluster)
            scheduler = DeterministicScheduler(cluster.sim)
            history = ChaosHistory()
            FaultInjector(
                cluster,
                FaultConfig(cycles=1, first_crash_ms=5.0, label="orch-test"),
                history,
            ).install(scheduler)
            orch = Orchestrator(cluster, stages=[
                ("1:doomed", [
                    AddServers(2),
                    SplitRegion("t", b"%05d" % 10),
                    PoisonStep(),
                ]),
            ], start_delay_ms=8.0)
            orch.install(scheduler)
            scheduler.run()
            for server in cluster.servers:
                if not server.alive and not server.recovered:
                    cluster.recover_server(server)
            assert orch.report.status == "rolled-back"
            # the stage's own effects are gone...
            assert len(cluster.servers) == 2
            assert len(cluster.tables["t"].regions) == 2
            # ...and no acked row went with them
            assert cluster_snapshot(cluster) == rows_before
            _transient, fatal = verify_cluster(cluster)
            assert fatal == []
            return json.dumps({
                "rollout": orch.report.as_dict(),
                "layout": cluster.layout_fingerprint(),
            }, sort_keys=True)

        assert run() == run()


class TestMoveRacingChaos:
    @pytest.fixture(autouse=True)
    def quick_retries(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "RETRY_BACKOFF_MS", 4.0)

    def test_move_retries_through_target_outage(self):
        """The move's target crashes before the rollout starts; the step
        must wait out recovery + restart and then land the region."""
        cluster, _ = reset_cluster()
        region = cluster.tables["t"].regions[0]
        target = next(
            s for s in cluster.servers
            if s is not cluster.server_for(region)
        )
        scheduler = DeterministicScheduler(cluster.sim)
        scheduler.add_client(
            "faulter",
            surgical_faulter(
                cluster, target, t_crash=2.0, t_recover=20.0, t_restart=30.0
            ),
            daemon=True,
        )
        orch = Orchestrator(
            cluster,
            stages=[
                ("1:move-region", [MoveRegion("t", region.start_key, target.name)])
            ],
            start_delay_ms=5.0,
        )
        orch.install(scheduler)
        scheduler.run()
        report = orch.report
        assert report.status == "committed"
        assert report.stages[0].attempts > 1  # the outage was observed
        moved = cluster.tables["t"].regions[0]
        assert moved.start_key == region.start_key
        assert cluster.server_for(moved) is target
        assert moved.row_count() == 40

    def test_move_racing_source_crash(self):
        """The region's host crashes mid-rollout; retry must chase the
        region onto its recovery host (a fresh incarnation under the
        same boundaries) and still complete the move."""
        cluster, _ = reset_cluster(servers=3, splits=[b"%05d" % 20])
        region = cluster.tables["t"].regions[0]
        source = cluster.server_for(region)
        target = next(
            s for s in cluster.servers if s is not source
        )
        scheduler = DeterministicScheduler(cluster.sim)
        scheduler.add_client(
            "faulter",
            surgical_faulter(cluster, source, t_crash=2.0, t_recover=25.0),
            daemon=True,
        )
        orch = Orchestrator(
            cluster,
            stages=[("1:move-region", [MoveRegion("t", b"", target.name)])],
            start_delay_ms=5.0,
        )
        orch.install(scheduler)
        scheduler.run()
        assert orch.report.status == "committed"
        landed = cluster.tables["t"].regions[0]
        assert cluster.server_for(landed) is target
        assert landed.row_count() == 20
        _transient, fatal = verify_cluster(cluster)
        assert fatal == []

    def test_move_racing_promotion(self):
        """Crash a replicated region's primary: recovery promotes its
        follower into a *renamed* primary under the same boundaries.
        A move addressed by (table, start_key) must resolve the promoted
        incarnation, and anti-affinity must hold afterwards."""
        cluster, client = reset_cluster(
            servers=3,
            replica_count=2,
            rows=0,
        )
        client.create_table("r", families=(FAM,))
        cluster.replication.replicate_table("r")
        table = client.table("r")
        for i in range(20):
            table.put(Put(b"%05d" % i).add(FAM, b"q", b"x%05d" % i))
        cluster.sim.reset_clock()
        region = cluster.tables["r"].regions[0]
        original_name = region.name
        primary_host = cluster.server_for(region)

        scheduler = DeterministicScheduler(cluster.sim)
        ReplicationShipper(cluster.replication).install(scheduler)
        scheduler.add_client(
            "faulter",
            surgical_faulter(
                cluster, primary_host,
                t_crash=2.0, t_recover=8.0, t_restart=15.0,
            ),
            daemon=True,
        )
        # move the (about to be promoted) primary back onto the crashed
        # server once it has restarted empty
        orch = Orchestrator(
            cluster,
            stages=[("1:move-region", [MoveRegion("r", b"", primary_host.name)])],
            start_delay_ms=20.0,
        )
        orch.install(scheduler)
        scheduler.run()
        assert orch.report.status == "committed"
        promoted = cluster.tables["r"].regions[0]
        assert promoted.name != original_name  # promotion renamed it
        assert cluster.server_for(promoted) is primary_host
        assert promoted.row_count() == 20
        group = cluster.replication.groups[promoted.name]
        assert len(group.live_followers()) == 1
        for follower in group.followers:
            assert follower.server is not primary_host  # anti-affinity
        _transient, fatal = verify_cluster(cluster)
        assert fatal == []
