"""Merge: rebuild a split SELECT over its fragment leaves as a plan-node
tree. The tree is composed by the single-system planner's own
:class:`~repro.phoenix.planner.SelectComposer` and lowered by
:func:`~repro.phoenix.operators.compile_plan` like any other plan, so
routed execution returns the rows — under the names — a single system
returns."""

from __future__ import annotations

from typing import Mapping

from repro.phoenix.planner import EquiCond, PlannedQuery, SelectComposer
from repro.phoenix.plans import PlanNode, SymmetricJoinNode
from repro.phoenix.stats import charge_operator_work
from repro.sim.clock import Simulation
from repro.sim.latency import LatencyCharger
from repro.sql.analyzer import AnalyzedSelect


class MergeHost:
    """The :class:`~repro.phoenix.plans.OperatorHost` of a merge tree:
    merge-side work (hash-join shuffle, sort, group-by) is priced like
    Phoenix's and metered on the mediator's own virtual clock. There is
    no cluster here to broadcast a build side to, which is why
    :func:`plan_merge` joins symmetrically."""

    def __init__(self, sim: Simulation) -> None:
        self.charge = LatencyCharger(sim, "federation")

    def operator_work(self, kind: str, rows: int) -> None:
        charge_operator_work(self.charge, 1, kind, rows)


def symmetric_join(
    plan: PlanNode, right: PlanNode, binding: str, conds: list[EquiCond]
) -> PlanNode:
    return SymmetricJoinNode(
        left=plan,
        right=right,
        left_keys=tuple(joined_key for _, _, joined_key in conds),
        right_keys=tuple((binding, attr) for _, attr, _ in conds),
    )


def plan_merge(
    composer: SelectComposer,
    analyzed: AnalyzedSelect,
    leaves: Mapping[str, PlanNode],
) -> PlannedQuery:
    """Join ``leaves`` (one per FROM binding) in the composer's FROM
    order; every attach is the non-blocking symmetric hash join, so
    fragments are pulled lazily and alternately. Residual predicates and
    the SELECT's tail come from the composer."""
    plan, consumed = composer.join_in_from_order(analyzed, leaves, symmetric_join)
    plan = composer.residual_filter(plan, analyzed, consumed)
    return composer.finish(plan, analyzed)
