"""Merge: rebuild a split SELECT over its fragment leaves as a plan-node
tree. The tree is composed by the single-system planner's own
:class:`~repro.phoenix.planner.SelectComposer` and lowered by
:func:`~repro.phoenix.operators.compile_plan` like any other plan, so
routed execution returns the rows — under the names — a single system
returns."""

from __future__ import annotations

from typing import Mapping

from repro.phoenix.planner import PlannedQuery, SelectComposer
from repro.phoenix.plans import PlanNode, SymmetricJoinNode
from repro.sim.clock import Simulation
from repro.sim.latency import LatencyCharger
from repro.sql.analyzer import AnalyzedSelect


class MergeHost:
    """The :class:`~repro.phoenix.plans.OperatorHost` of a merge tree:
    merge-side work (hash-join shuffle, sort, group-by) is metered on
    the mediator's own virtual clock."""

    hashjoin_row_bytes = 150

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.charge = LatencyCharger(sim, "federation")


def plan_merge(
    composer: SelectComposer,
    analyzed: AnalyzedSelect,
    leaves: Mapping[str, PlanNode],
    derived_attrs: dict[str, tuple[str, ...]],
) -> PlannedQuery:
    """Join ``leaves`` (one per FROM binding) starting from the first
    binding in FROM order, attaching next whichever remaining binding an
    equi-join connects first; every attach is the non-blocking symmetric
    hash join (a :class:`MergeHost` has no cluster to broadcast a build
    side to), so fragments are pulled lazily and alternately. Residual
    predicates and the SELECT's tail come from the composer."""
    remaining = list(analyzed.bindings)
    joined = [remaining.pop(0)]
    plan = leaves[joined[0]]
    pending = list(enumerate(analyzed.joins))
    consumed: set[int] = set()
    while remaining:
        binding = composer.first_connected(remaining, joined, pending)
        remaining.remove(binding)
        conds = composer.equi_conds(
            binding, joined, [(i, j) for i, j in pending if i not in consumed]
        )
        plan = SymmetricJoinNode(
            left=plan,
            right=leaves[binding],
            left_keys=tuple(joined_key for _, _, joined_key in conds),
            right_keys=tuple((binding, attr) for _, attr, _ in conds),
        )
        consumed.update(i for i, _, _ in conds)
        joined.append(binding)
    plan = composer.residual_filter(plan, analyzed, consumed)
    return composer.finish(plan, analyzed, derived_attrs)
