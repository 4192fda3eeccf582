"""Declarative cluster orchestration: plan → diff → staged apply.

A :class:`~repro.orchestration.plan.ClusterPlan` declares the desired
topology (server count, per-table replica counts and split points,
balancing, drains); ``diff(plan, cluster)`` turns the gap between
plan and reality into an ordered list of typed
:class:`~repro.orchestration.steps.Step` objects, and the
:class:`~repro.orchestration.orchestrator.Orchestrator` executes them
in stages — each stage is apply → verify → commit-or-rollback, with
layout-epoch fencing and bounded retry on ``RegionUnavailableError``.
A rollback is ``restore(layout, cluster)``: the steps back to the
:class:`~repro.orchestration.plan.Layout` recorded at the stage's
start. Installed on a ``DeterministicScheduler``, the rollout
interleaves deterministically with the chaos engine's
``FaultInjector``. See docs/OPERATIONS.md.
"""

from repro.orchestration.orchestrator import (
    Orchestrator,
    RolloutReport,
    StageReport,
    cluster_snapshot,
    verify_cluster,
)
from repro.orchestration.plan import (
    ClusterPlan,
    Layout,
    TablePlan,
    diff,
    restore,
)
from repro.orchestration.steps import (
    AddServers,
    DrainServer,
    MergeRegions,
    MoveRegion,
    PoisonStep,
    Rebalance,
    RemoveServers,
    SetFollowers,
    SetReplicas,
    SplitRegion,
    Step,
    UndrainServer,
)

__all__ = [
    "AddServers",
    "ClusterPlan",
    "DrainServer",
    "Layout",
    "MergeRegions",
    "MoveRegion",
    "Orchestrator",
    "PoisonStep",
    "Rebalance",
    "RemoveServers",
    "RolloutReport",
    "SetFollowers",
    "SetReplicas",
    "SplitRegion",
    "StageReport",
    "Step",
    "TablePlan",
    "UndrainServer",
    "cluster_snapshot",
    "diff",
    "restore",
    "verify_cluster",
]
