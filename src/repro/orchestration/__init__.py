"""Declarative cluster orchestration: plan → diff → staged apply.

A :class:`~repro.orchestration.plan.ClusterPlan` declares the desired
topology (server count, per-table replica counts and split points,
balancing, drains); ``diff(plan, cluster)`` turns the gap between
plan and reality into an ordered list of typed
:class:`~repro.orchestration.steps.Step` objects, and the
:class:`~repro.orchestration.orchestrator.Orchestrator` executes them
in stages — each stage is apply → verify → commit-or-rollback, with
layout-epoch fencing, bounded retry on ``RegionUnavailableError`` and
a recorded inverse per applied step. Installed on a
``DeterministicScheduler``, the rollout interleaves deterministically
with the chaos engine's ``FaultInjector``. See docs/OPERATIONS.md.
"""

from repro.orchestration.orchestrator import (
    Orchestrator,
    RolloutReport,
    StageReport,
    cluster_snapshot,
    verify_cluster,
)
from repro.orchestration.plan import ClusterPlan, TablePlan, diff
from repro.orchestration.steps import (
    AddServers,
    Dereplicate,
    DrainServer,
    MergeRegions,
    MoveRegion,
    PoisonStep,
    Rebalance,
    RemoveServers,
    RestoreFollowers,
    RestoreMoves,
    SetReplicas,
    SplitRegion,
    Step,
    UndrainServer,
)

__all__ = [
    "AddServers",
    "ClusterPlan",
    "Dereplicate",
    "DrainServer",
    "MergeRegions",
    "MoveRegion",
    "Orchestrator",
    "PoisonStep",
    "Rebalance",
    "RemoveServers",
    "RestoreFollowers",
    "RestoreMoves",
    "RolloutReport",
    "SetReplicas",
    "SplitRegion",
    "StageReport",
    "Step",
    "TablePlan",
    "UndrainServer",
    "cluster_snapshot",
    "diff",
    "verify_cluster",
]
