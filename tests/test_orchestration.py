"""Declarative orchestration: plans, diffs, fenced steps, rollback."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig
from repro.errors import (
    ClusterConfigError,
    PlanValidationError,
    RegionUnavailableError,
    StaleStepError,
)
from repro.hbase.ops import Put
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
    diff,
    verify_cluster,
)
from tests.conftest import build_cluster

FAM = b"cf"


# ------------------------------------------------------------ config guards
class TestConfigValidation:
    def test_rejects_nonpositive_server_count(self):
        with pytest.raises(ClusterConfigError):
            ClusterConfig(num_region_servers=0)

    def test_rejects_nonpositive_split_threshold(self):
        with pytest.raises(ClusterConfigError):
            ClusterConfig(region_split_threshold_bytes=0)
        with pytest.raises(ClusterConfigError):
            ClusterConfig(region_split_threshold_bytes=-1)
        # None disables auto-splitting and stays legal
        ClusterConfig(region_split_threshold_bytes=None)

    @pytest.mark.parametrize("max_versions", [0, -1])
    def test_rejects_nonpositive_max_versions(self, max_versions):
        # refused per table, never clamped or silently replaced by the
        # default
        cluster, client = build_cluster()
        with pytest.raises(ClusterConfigError):
            client.create_table("v", max_versions=max_versions)

    def test_rejects_bad_replication_config(self):
        with pytest.raises(ClusterConfigError):
            ClusterConfig(replica_count=0)


# ------------------------------------------------------------ membership
class TestMembership:
    def test_add_servers_rejects_existing_name(self):
        cluster, _ = build_cluster()
        with pytest.raises(ClusterConfigError, match="already exists"):
            cluster.add_servers(names=["rs1"])
        # the failed call must not have half-applied
        assert [s.name for s in cluster.servers] == ["rs1", "rs2"]

    def test_add_servers_rejects_duplicate_in_request(self):
        cluster, _ = build_cluster()
        with pytest.raises(ClusterConfigError, match="duplicate"):
            cluster.add_servers(names=["rs9", "rs9"])
        assert len(cluster.servers) == 2

    def test_generated_names_skip_explicit_members(self):
        cluster, _ = build_cluster()
        cluster.add_servers(names=["rs3"])
        fresh = cluster.add_servers(1)
        assert fresh[0].name == "rs4"

    def test_remove_server_refuses_nonempty(self):
        cluster, _ = build_cluster()
        hosting = next(s for s in cluster.servers if s.regions)
        with pytest.raises(ClusterConfigError, match="drain"):
            cluster.remove_server(hosting)

    def test_drain_then_remove(self):
        cluster, _ = build_cluster()
        hosting = next(s for s in cluster.servers if s.regions)
        hosted = list(hosting.regions.values())
        cluster.drain_server(hosting)
        assert hosted and not hosting.regions
        for region in hosted:
            target = cluster.server_for(region)
            assert target is not hosting and target.alive
        cluster.remove_server(hosting)
        assert hosting not in cluster.servers

    def test_drain_dead_server_raises(self):
        cluster, _ = build_cluster()
        victim = cluster.servers[0]
        victim.crash()
        with pytest.raises(RegionUnavailableError):
            cluster.drain_server(victim)


# ------------------------------------------------------------ plan validation
class TestPlanValidation:
    def test_table_plan_guards(self):
        with pytest.raises(PlanValidationError):
            TablePlan(replicas=0)
        with pytest.raises(PlanValidationError):
            TablePlan(split_points=(b"",))
        with pytest.raises(PlanValidationError):
            TablePlan(split_points=(b"b", b"a"))
        with pytest.raises(PlanValidationError):
            TablePlan(replicas=2, split_points=(b"m",))

    def test_cluster_plan_guards(self):
        with pytest.raises(PlanValidationError):
            ClusterPlan(servers=0)
        with pytest.raises(PlanValidationError):
            ClusterPlan(servers=2, balance="random")
        with pytest.raises(PlanValidationError):
            ClusterPlan(servers=2, drain=("rs1", "rs1"))
        with pytest.raises(PlanValidationError):
            # anti-affinity needs one server per copy
            ClusterPlan(servers=2, tables={"t": TablePlan(replicas=3)})

    def test_diff_rejects_unknown_targets(self):
        cluster, _ = build_cluster()
        with pytest.raises(PlanValidationError):
            diff(ClusterPlan(servers=2, drain=("rs9",)), cluster)
        with pytest.raises(PlanValidationError):
            diff(ClusterPlan(servers=2, tables={"nope": TablePlan()}), cluster)

    def test_diff_rejects_enabling_replication_on_nonempty_table(self):
        cluster, _ = build_cluster(rows=10)
        plan = ClusterPlan(servers=2, tables={"t": TablePlan(replicas=2)})
        with pytest.raises(PlanValidationError, match="non-empty"):
            diff(plan, cluster)

    def test_diff_is_empty_when_plan_matches_cluster(self):
        cluster, _ = build_cluster()
        assert diff(ClusterPlan(servers=2), cluster) == []

    def test_diff_orders_steps_canonically(self):
        cluster, _ = build_cluster(
            servers=3, rows=40, splits=[b"%05d" % 20]
        )
        plan = ClusterPlan(
            servers=4,
            tables={"t": TablePlan(split_points=(b"%05d" % 10,))},
            drain=("rs3",),
            balance=True,
        )
        kinds = [s.kind for s in diff(plan, cluster)]
        assert kinds == [
            "add-servers", "add-servers", "drain-server",
            "split-region", "rebalance",
        ] or kinds == [
            "add-servers", "drain-server", "split-region", "rebalance",
        ]
        # draining rs3 removes capacity, so the deficit is 2 servers
        steps = diff(plan, cluster)
        assert steps[0].kind == "add-servers" and steps[0].count == 2

    def test_diff_scale_in_retires_latest_members(self):
        cluster, _ = build_cluster(servers=4)
        steps = diff(ClusterPlan(servers=2, balance=False), cluster)
        assert [s.kind for s in steps] == ["drain-server", "drain-server"]
        assert {s.name for s in steps} == {"rs4", "rs3"}


# ------------------------------------------------------------ step fencing
class TestFencing:
    def test_apply_without_fence_is_stale(self):
        cluster, _ = build_cluster()
        step = AddServers(1)
        with pytest.raises(StaleStepError, match="without a fence"):
            step.apply(cluster)

    def test_layout_epoch_moves_between_fence_and_apply(self):
        cluster, _ = build_cluster()
        step = AddServers(1)
        step.fence(cluster)
        cluster.add_servers(1)  # concurrent topology change
        with pytest.raises(StaleStepError, match="layout epoch"):
            step.apply(cluster)

    def test_move_region_fence_requires_live_target(self):
        cluster, _ = build_cluster()
        region = cluster.tables["t"].regions[0]
        target = next(
            s for s in cluster.servers
            if s is not cluster.server_for(region)
        )
        target.crash()
        step = MoveRegion("t", region.start_key, target.name)
        with pytest.raises(RegionUnavailableError):
            step.fence(cluster)

    def test_move_region_fence_rejects_draining_target(self):
        cluster, _ = build_cluster(servers=3)
        region = cluster.tables["t"].regions[0]
        target = next(
            s for s in cluster.servers
            if s is not cluster.server_for(region)
        )
        cluster.drain_server(target)
        step = MoveRegion("t", region.start_key, target.name)
        with pytest.raises(StaleStepError, match="draining"):
            step.fence(cluster)

    def test_split_fence_rejects_existing_boundary(self):
        cluster, _ = build_cluster(splits=[b"%05d" % 20])
        step = SplitRegion("t", b"%05d" % 20)
        with pytest.raises(StaleStepError, match="boundary"):
            step.fence(cluster)

    def test_dissolved_boundary_is_stale(self):
        cluster, _ = build_cluster(splits=[b"%05d" % 20])
        step = MoveRegion("t", b"%05d" % 20, "rs1")
        step.fence(cluster)
        low = cluster.tables["t"].regions[0]
        high = cluster.tables["t"].regions[1]
        cluster.merge_regions(low, high)
        with pytest.raises(StaleStepError):
            step.fence(cluster)


# ------------------------------------------------------------ rollback
def assert_rollback_restores_state(cluster, steps):
    """Poison a stage after ``steps`` and check the unwind lands exactly
    on the pre-rollout state — row-for-row and by layout fingerprint."""
    rows_before = cluster_snapshot(cluster)
    layout_before = cluster.layout_fingerprint()
    epoch_before = cluster.layout_epoch
    orch = Orchestrator(
        cluster,
        stages=[("1:drill", list(steps) + [PoisonStep()])],
    )
    report = orch.run()
    assert report.status == "rolled-back"
    assert report.committed_stages == 0
    assert cluster_snapshot(cluster) == rows_before
    assert cluster.layout_fingerprint() == layout_before
    # the epoch only ever moves forward: rollback is new history, not
    # time travel
    assert cluster.layout_epoch >= epoch_before
    transient, fatal = verify_cluster(cluster)
    assert fatal == [] and transient == []


class TestRollback:
    def test_add_servers_rolls_back(self):
        cluster, _ = build_cluster()
        assert_rollback_restores_state(cluster, [AddServers(2)])
        assert len(cluster.servers) == 2

    def test_split_rolls_back_via_merge(self):
        cluster, _ = build_cluster()
        assert_rollback_restores_state(
            cluster, [SplitRegion("t", b"%05d" % 13)]
        )
        assert len(cluster.tables["t"].regions) == 1

    def test_merge_rolls_back_via_split(self):
        cluster, _ = build_cluster(splits=[b"%05d" % 20])
        assert_rollback_restores_state(
            cluster, [MergeRegions("t", b"", b"%05d" % 20)]
        )
        assert len(cluster.tables["t"].regions) == 2

    def test_move_rolls_back(self):
        cluster, _ = build_cluster()
        region = cluster.tables["t"].regions[0]
        target = next(
            s for s in cluster.servers
            if s is not cluster.server_for(region)
        )
        assert_rollback_restores_state(
            cluster, [MoveRegion("t", region.start_key, target.name)]
        )

    def test_drain_rolls_back_and_regions_come_home(self):
        cluster, _ = build_cluster(splits=[b"%05d" % 20])
        hosting = next(s for s in cluster.servers if s.regions)
        assert_rollback_restores_state(cluster, [DrainServer(hosting.name)])
        assert not hosting.draining
        assert hosting.regions

    def test_rebalance_rolls_back(self):
        cluster, _ = build_cluster(
            splits=[b"%05d" % k for k in (10, 20, 30)]
        )
        cluster.add_servers(2)
        # rebalance inside a poisoned stage: its recorded moves replay
        # in reverse, so hosting returns to the skewed layout
        assert_rollback_restores_state(cluster, [Rebalance()])

    def test_enabling_replication_rolls_back_to_unmanaged(self):
        cluster, client = build_cluster(replica_count=2, rows=0)
        client.create_table("empty", families=(FAM,))
        assert_rollback_restores_state(cluster, [SetReplicas("empty", 2)])
        assert cluster.replication.groups_for("empty") == []

    def test_raising_replicas_rolls_back_to_old_target(self):
        cluster, client = build_cluster(servers=3, replica_count=2, rows=0)
        client.create_table("r", families=(FAM,))
        cluster.replication.replicate_table("r")
        table = client.table("r")
        for i in range(20):
            table.put(Put(b"%05d" % i).add(FAM, b"q", b"x%05d" % i))
        assert_rollback_restores_state(cluster, [SetReplicas("r", 3)])
        assert cluster.replication.target_for("r") == 2

    def test_lone_drain_on_replicated_cluster_restores_followers(self):
        """The drain rebuilt the member's followers elsewhere: the
        rollback must put them back, not only the primaries."""
        cluster, _ = replicated_cluster()
        victim = next(s for s in cluster.servers if s.follower_regions)
        assert_rollback_restores_state(cluster, [DrainServer(victim.name)])

    def test_move_then_raise_rolls_back_past_a_follower_on_the_old_host(self):
        """The raise places a follower on the primary's old host; the
        rollback must drop it before moving the primary home."""
        cluster, _ = replicated_cluster()
        region = cluster.tables["r"].regions[0]
        home = cluster.server_for(region)
        group = cluster.replication.groups[region.name]
        taken = {home} | {f.server for f in group.followers}
        target = next(s for s in cluster.servers if s not in taken)
        assert_rollback_restores_state(cluster, [
            MoveRegion("r", b"", target.name),
            SetReplicas("r", 3),
        ])

    def test_split_then_enable_replication_rolls_back(self):
        """The rollback must drop the daughters' groups before it can
        merge them: replicated regions refuse a merge."""
        cluster, _ = unreplicated_cluster()
        assert_rollback_restores_state(cluster, [
            SplitRegion("e", b"%05d" % 5),
            SetReplicas("e", 2),
        ])


def replicated_cluster():
    """3 servers, ``replica_count=2``: table ``t`` (40 rows,
    unreplicated), ``r`` (20 rows, three replicated regions) and the
    empty ``e``."""
    cluster, client = build_cluster(servers=3, replica_count=2)
    client.create_table(
        "r", families=(FAM,), split_keys=[b"%05d" % 7, b"%05d" % 14]
    )
    cluster.replication.replicate_table("r")
    table = client.table("r")
    for i in range(20):
        table.put(Put(b"%05d" % i).add(FAM, b"q", b"x%05d" % i))
    client.create_table("e", families=(FAM,))
    return cluster, ("t", "r", "e")


def unreplicated_cluster():
    """2 servers, no replication: table ``t`` (40 rows, three regions)
    and the empty ``e``."""
    cluster, client = build_cluster(splits=[b"%05d" % 10, b"%05d" % 20])
    client.create_table("e", families=(FAM,))
    return cluster, ("t", "e")


def stage_steps(tables):
    """1-4 forward steps over ``tables``: names, keys and counts come
    from small sets, so many steps refuse (a stale target, a replicated
    region, a draining member) and fail the stage themselves."""
    table = st.sampled_from(tables)
    server = st.sampled_from(["rs1", "rs2", "rs3", "rs4"])
    key = st.sampled_from([b"%05d" % k for k in (5, 10, 14, 20, 30)])
    start = st.sampled_from([b"", b"%05d" % 10, b"%05d" % 14])
    step = st.one_of(
        st.builds(AddServers, st.integers(1, 2)),
        st.builds(DrainServer, server),
        st.builds(MoveRegion, table, start, server),
        st.builds(SplitRegion, table, key),
        st.builds(MergeRegions, table, start, key),
        st.builds(Rebalance),
        st.builds(SetReplicas, table, st.integers(1, 3)),
    )
    return st.lists(step, min_size=1, max_size=4)


class TestRollbackComposes:
    """Any poisoned stage, whatever its steps did or refused, restores
    the rows, the layout fingerprint and a clean ``verify_cluster``."""

    @pytest.mark.parametrize(
        "build", [unreplicated_cluster, replicated_cluster]
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_poisoned_stage_restores_state(self, build, data):
        cluster, tables = build()
        steps = data.draw(stage_steps(tables))
        assert_rollback_restores_state(cluster, steps)


# ------------------------------------------------------------ rollouts
class TestRollout:
    def test_full_plan_commits_and_reaches_target(self):
        cluster, client = build_cluster(replica_count=2, rows=0)
        client.create_table("r", families=(FAM,))
        cluster.replication.replicate_table("r")
        table = client.table("r")
        for i in range(30):
            table.put(Put(b"%05d" % i).add(FAM, b"q", b"x%05d" % i))
        plan = ClusterPlan(
            servers=4, tables={"r": TablePlan(replicas=3)},
        )
        report = Orchestrator(cluster, plan=plan).run()
        assert report.status == "committed"
        assert report.committed_stages == len(report.stages)
        assert len([s for s in cluster.servers if not s.draining]) == 4
        assert cluster.replication.target_for("r") == 3
        for group in cluster.replication.groups_for("r"):
            assert len(group.live_followers()) == 2
        transient, fatal = verify_cluster(cluster)
        assert fatal == [] and transient == []

    def test_drain_step_degrades_to_recovery_then_drain(self):
        cluster, _ = build_cluster(splits=[b"%05d" % 20])
        victim = next(s for s in cluster.servers if s.regions)
        victim.crash()
        step = DrainServer(victim.name)
        step.fence(cluster)
        step.apply(cluster)
        assert victim.recovered
        assert victim.draining
        # the crashed server's regions were failed over by recovery, so
        # the drain itself had nothing left to move
        assert not victim.regions
        transient, fatal = verify_cluster(cluster)
        assert fatal == []

    def test_committed_stages_stay_committed_after_later_failure(self):
        cluster, _ = build_cluster()
        orch = Orchestrator(cluster, stages=[
            ("1:grow", [AddServers(1)]),
            ("2:doomed", [SplitRegion("t", b"%05d" % 17), PoisonStep()]),
        ])
        report = orch.run()
        assert [s.status for s in report.stages] == [
            "committed", "rolled-back",
        ]
        # stage 1 (the scale-out) survives; stage 2's split unwound
        assert len(cluster.servers) == 3
        assert len(cluster.tables["t"].regions) == 1

    def test_report_json_shape(self):
        cluster, _ = build_cluster()
        report = Orchestrator(
            cluster, plan=ClusterPlan(servers=3, balance=False)
        ).run()
        payload = report.as_dict()
        assert payload["status"] == "committed"
        assert payload["committed_stages"] == payload["total_stages"] == 1
        assert payload["epoch_end"] > payload["epoch_start"]
        stage = payload["stages"][0]
        assert stage["steps"] == ["add-servers(+1)"]
        assert stage["epoch"] == payload["epoch_end"]

    def test_orchestrator_requires_exactly_one_source(self):
        cluster, _ = build_cluster()
        with pytest.raises(ValueError):
            Orchestrator(cluster)
        with pytest.raises(ValueError):
            Orchestrator(
                cluster,
                plan=ClusterPlan(servers=2),
                stages=[("1:add-servers", [AddServers(1)])],
            )
