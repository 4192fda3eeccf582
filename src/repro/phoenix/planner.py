"""Query planner: SQL AST -> physical plan.

Access-path selection mirrors Phoenix:

* equality predicates that cover a leading prefix of a table/index key
  become point gets or key-prefix scans;
* covered indexes are preferred; non-covered index access adds a
  per-row base-table lookup;
* joins run as **index nested loops** whenever the inner side has a
  usable key/index prefix on the join attributes, and as **broadcast
  hash joins** otherwise;
* leftover predicates (including theta-join residues like Q11's
  ``ol2.ol_i_id <> ol.ol_i_id``) are applied as post-join filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Union

from repro.config import DEFAULT_COST_MODEL
from repro.errors import PlanError
from repro.phoenix.stats import (
    FILTER_SELECTIVITY,
    StatisticsProvider,
    access_ms,
    charge_operator_work,
    equi_join_rows,
)
from repro.phoenix.catalog import Catalog, CatalogEntry, CatalogNamespace, VIEW, VIEW_INDEX
from repro.sql.analyzer import (
    AnalyzedSelect,
    FilterCondition,
    JoinCondition,
    analyze_select,
)
from repro.sim.clock import Simulation
from repro.sim.latency import LatencyCharger
from repro.sql.ast import (
    ColumnRef,
    Expr,
    Select,
    Star,
)
from repro.phoenix.plans import (
    BROADCAST,
    GROUP_BY,
    SORT,
    AccessSpec,
    ColumnPredicate,
    FilterNode,
    DistinctNode,
    GroupByNode,
    HashJoinNode,
    LimitNode,
    NestedLoopJoinNode,
    PlanNode,
    Predicate,
    Row,
    ScanNode,
    SortNode,
    Source,
    SubqueryNode,
    ValuePredicate,
    slots,
    tuple_getter,
)

PrefixSource = Union[Source, Expr]


@dataclass
class PlannedQuery:
    """Root plan plus the projection spec used to shape output rows."""

    root: PlanNode
    output: tuple[tuple[str, Source], ...]
    """(output column name, row source) pairs: the analysis's ``output``."""

    select: Select

    def __post_init__(self) -> None:
        self._names = tuple(name for name, _ in self.output)
        sources = (src for _, src in self.output)
        self._values = tuple_getter(slots(self.root.schema, sources, "the SELECT list"))

    def explain(self) -> str:
        return self.root.describe()

    def shape(self, row: Row) -> dict[str, Any]:
        """One row of the root's schema as an output dict."""
        return dict(zip(self._names, self._values(row)))


ALL_ATTRS = None  # sentinel: binding needs every attribute (SELECT *)

AccessChoice = tuple[tuple[str, ...], CatalogEntry, CatalogEntry | None]
"""(usable key prefix, entry to read, base entry to look up when not covered)."""

EquiCond = tuple[int, str, Source]
"""(join id, attr of the binding being attached, key on the joined side)."""


class SelectComposer:
    """How a SELECT is composed around its leaves, given its analysis
    (:func:`~repro.sql.analyzer.analyze_select`, the one column
    resolver, which also names the output columns): what each leaf must
    carry, which equi-joins attach a binding (within one system: as
    what hash join), which predicates stay residual above the joins,
    and the order the tail stacks in (group-by -> distinct -> sort ->
    limit).

    Everything here is independent of how the leaves are reached, so
    the single-system :class:`Planner` (catalog access paths below) and
    the federation mediator (backend fragments below) build the same
    tree above them and return rows under the same names.
    """

    def needed_attrs(self, analyzed: AnalyzedSelect) -> dict[str, set[str] | None]:
        """Per binding, the attributes the statement reads anywhere:
        the one needed-set collector. ``ALL_ATTRS`` under a ``*``, and
        for a derived table, whose rows arrive whole from its subplan.
        A Phoenix access uses it to decide whether an index covers the
        binding and as its decode set; a VoltDB leaf and a federation
        fragment import carry exactly these attributes."""
        needed: dict[str, set[str] | None] = {
            b: set() if rel is not None else ALL_ATTRS
            for b, rel in analyzed.bindings.items()
        }
        for p in analyzed.select.projections:
            if isinstance(p, Star):
                for b in needed if p.qualifier is None else (p.qualifier,):
                    needed[b] = ALL_ATTRS
        sources = [src for _, src in analyzed.output]
        sources += [src for _, _, src in analyzed.aggregates if src is not None]
        sources += analyzed.group_keys
        sources += [src for src, _ in analyzed.order_keys]
        for j in analyzed.joins:
            sources += [(j.left_binding, j.left_attr), (j.right_binding, j.right_attr)]
        for f in analyzed.filters:
            sources.append((f.binding, f.attr))
            if isinstance(f.value, ColumnRef):
                sources.append((f.binding, f.value.name))
        for binding, attr in sources:
            s = needed.get(binding)
            if s is not None:
                s.add(attr)
        return needed

    # -- joins ------------------------------------------------------------------------
    @staticmethod
    def join_connects(j: JoinCondition, b: str, joined: list[str]) -> bool:
        if j.left_binding == b and j.right_binding in joined:
            return True
        if j.right_binding == b and j.left_binding in joined:
            return True
        return False

    def first_connected(
        self,
        remaining: list[str],
        joined: list[str],
        pending_joins: list[tuple[int, JoinCondition]],
    ) -> str:
        """Rule-based next binding: the first remaining one connected to
        the joined set by an equi-join, then by any join, else cross
        product."""
        for b in remaining:
            if any(
                self.join_connects(j, b, joined)
                for _, j in pending_joins
                if j.is_equi
            ):
                return b
        for b in remaining:
            if any(self.join_connects(j, b, joined) for _, j in pending_joins):
                return b
        return remaining[0]  # cross product

    def equi_conds(
        self,
        binding: str,
        joined: list[str],
        pending: list[tuple[int, JoinCondition]],
    ) -> list[EquiCond]:
        """The pending equi-join conditions connecting ``binding`` to
        the joined set."""
        conds: list[EquiCond] = []
        for i, j in pending:
            if not j.is_equi or not self.join_connects(j, binding, joined):
                continue
            if j.left_binding == binding:
                conds.append((i, j.left_attr, (j.right_binding, j.right_attr)))
            else:
                conds.append((i, j.right_attr, (j.left_binding, j.left_attr)))
        return conds

    @staticmethod
    def hash_join(
        plan: PlanNode, build: PlanNode, binding: str, conds: list[EquiCond]
    ) -> PlanNode:
        """Hash-join ``build`` (the rows of ``binding``) into ``plan`` on
        ``conds`` — cartesian when there are none."""
        return HashJoinNode(
            probe=plan,
            build=build,
            probe_keys=tuple(outer for _, _, outer in conds),
            build_keys=tuple((binding, attr) for _, attr, _ in conds),
        )

    def join_bindings(
        self,
        analyzed: AnalyzedSelect,
        order: list[str],
        first: Callable[[str], PlanNode],
        choose_next: Callable[..., str],
        attach: Callable[..., tuple[PlanNode, set[int]]],
    ) -> tuple[PlanNode, set[int]]:
        """The one join-attachment loop: start from ``first(order[0])``,
        then repeatedly let ``choose_next(remaining, joined, plan,
        pending)`` pick a binding and ``attach(plan, binding, joined,
        pending)`` join it in, returning (plan, consumed join ids)."""
        remaining = list(order)
        joined = [remaining.pop(0)]
        plan = first(joined[0])
        pending = list(enumerate(analyzed.joins))
        consumed: set[int] = set()
        while remaining:
            binding = choose_next(remaining, joined, plan, pending)
            remaining.remove(binding)
            plan, newly_consumed = attach(plan, binding, joined, pending)
            consumed.update(newly_consumed)
            joined.append(binding)
        return plan, consumed

    def join_in_from_order(
        self,
        analyzed: AnalyzedSelect,
        leaves: Mapping[str, PlanNode],
        join: Callable[[PlanNode, PlanNode, str, list[EquiCond]], PlanNode],
    ) -> tuple[PlanNode, set[int]]:
        """:meth:`join_bindings` over ``leaves`` (one per FROM binding)
        in FROM order: next is whichever binding :meth:`first_connected`
        picks, attached with ``join(plan, leaf, binding, conds)`` on the
        equi-conditions that connect it."""

        def attach(plan, binding, joined, pending):
            conds = self.equi_conds(binding, joined, pending)
            return (
                join(plan, leaves[binding], binding, conds),
                {i for i, _, _ in conds},
            )

        return self.join_bindings(
            analyzed,
            list(analyzed.bindings),
            leaves.__getitem__,
            lambda remaining, joined, _plan, pending: self.first_connected(
                remaining, joined, pending
            ),
            attach,
        )

    @staticmethod
    def residual_filter(
        plan: PlanNode, analyzed: AnalyzedSelect, consumed: set[int]
    ) -> PlanNode:
        """Filter ``plan`` by what no leaf or join applied: join
        predicates not in ``consumed`` (theta residues, unused
        equalities), same-binding column/column comparisons, and
        filters on derived-table bindings."""
        preds: list[Predicate] = [
            ColumnPredicate(
                left=(j.left_binding, j.left_attr),
                op=j.op,
                right=(j.right_binding, j.right_attr),
            )
            for i, j in enumerate(analyzed.joins)
            if i not in consumed
        ]
        for f in analyzed.filters:
            if isinstance(f.value, ColumnRef):
                preds.append(
                    ColumnPredicate(
                        left=(f.binding, f.attr),
                        op=f.op,
                        right=(f.binding, f.value.name),
                    )
                )
            elif analyzed.bindings[f.binding] is None:
                preds.append(
                    ValuePredicate(f.binding, f.attr, f.op, f.value)  # type: ignore[arg-type]
                )
        return FilterNode(plan, tuple(preds)) if preds else plan

    # -- tail -------------------------------------------------------------------------
    @staticmethod
    def finish(root: PlanNode, analyzed: AnalyzedSelect) -> PlannedQuery:
        """Stack the SELECT's tail on the joined-and-filtered ``root``."""
        select = analyzed.select
        output = analyzed.output
        if analyzed.grouped:
            root = GroupByNode(root, analyzed.group_keys, analyzed.aggregates)
        if select.distinct:
            root = DistinctNode(root, keys=tuple(src for _, src in output))
        if analyzed.order_keys:
            root = SortNode(root, analyzed.order_keys)
        if select.limit is not None:
            root = LimitNode(root, select.limit)
        return PlannedQuery(root=root, output=output, select=select)


class Planner(SelectComposer):
    def __init__(self, catalog: Catalog, dirty_check_views: bool = False) -> None:
        self.namespace = CatalogNamespace(catalog)
        self.catalog = catalog
        self.dirty_check_views = dirty_check_views

    # -- public ---------------------------------------------------------------------
    def plan_select(self, select: Select) -> PlannedQuery:
        return self.plan_analyzed(
            analyze_select(select, self.namespace)  # type: ignore[arg-type]
        )

    def plan_analyzed(self, analyzed: AnalyzedSelect) -> PlannedQuery:
        # derived tables become sub-plans streamed under their alias
        derived = {
            binding: self._plan_derived(binding, sub)
            for binding, sub in analyzed.derived.items()
        }
        needed = self.needed_attrs(analyzed)
        root = self._plan_joins(analyzed, derived, needed)
        return self.finish(root, analyzed)

    # -- derived tables ----------------------------------------------------------------
    def _plan_derived(self, alias: str, sub: AnalyzedSelect) -> SubqueryNode:
        planned = self.plan_analyzed(sub)
        return SubqueryNode(
            subplan=planned.root,
            alias=alias,
            output_names=tuple(name for name, _ in planned.output),
            source_keys=tuple(source for _, source in planned.output),
        )

    # -- join planning ----------------------------------------------------------------
    def _entry_for_binding(
        self, binding: str, analyzed: AnalyzedSelect
    ) -> CatalogEntry | None:
        rel = analyzed.bindings[binding]
        if rel is None:
            return None
        return self.catalog.resolve_from_name(rel)

    def _plan_joins(
        self,
        analyzed: AnalyzedSelect,
        derived: dict[str, SubqueryNode],
        needed: dict[str, set[str] | None],
    ) -> PlanNode:
        bindings = list(analyzed.bindings)
        eq_filters: dict[str, dict[str, Expr]] = {b: {} for b in bindings}
        other_filters: dict[str, list[FilterCondition]] = {b: [] for b in bindings}
        for f in analyzed.filters:
            if isinstance(f.value, ColumnRef):
                # same-binding column/column: residual_filter applies it
                continue
            if f.op == "=":
                eq_filters[f.binding][f.attr] = f.value
            else:
                other_filters[f.binding].append(f)

        plan, consumed = self.join_bindings(
            analyzed,
            self._binding_order(bindings, analyzed, eq_filters, needed),
            lambda b: self._leaf_plan(
                b, analyzed, derived, eq_filters, other_filters, needed
            ),
            lambda remaining, joined, plan, pending: self._choose_next(
                remaining, joined, plan, analyzed, derived, eq_filters,
                other_filters, needed, pending,
            ),
            lambda plan, b, joined, pending: self._attach_binding(
                plan, b, joined, analyzed, derived, eq_filters, other_filters,
                needed, pending,
            ),
        )
        return self.residual_filter(plan, analyzed, consumed)

    # -- join-order hooks (overridden by CostBasedPlanner) ---------------------------
    def _binding_order(
        self,
        bindings: list[str],
        analyzed: AnalyzedSelect,
        eq_filters: dict[str, dict[str, Expr]],
        needed: dict[str, set[str] | None],
    ) -> list[str]:
        """Rule-based start order: strongest access path first, then
        smallest estimated row count; derived tables last."""

        def start_score(b: str) -> tuple:
            entry = self._entry_for_binding(b, analyzed)
            if entry is None:
                return (2, 0)
            prefix, _, _ = self._best_access(
                entry, set(eq_filters[b]), needed[b]
            )
            est = self.catalog.estimated_rows(entry.name)
            return (0 if prefix else 1, est)

        return sorted(bindings, key=start_score)

    def _choose_next(
        self,
        remaining: list[str],
        joined: list[str],
        plan: PlanNode,
        analyzed: AnalyzedSelect,
        derived: dict[str, SubqueryNode],
        eq_filters: dict[str, dict[str, Expr]],
        other_filters: dict[str, list[FilterCondition]],
        needed: dict[str, set[str] | None],
        pending_joins: list[tuple[int, JoinCondition]],
    ) -> str:
        return self.first_connected(remaining, joined, pending_joins)

    def _leaf_plan(
        self,
        binding: str,
        analyzed: AnalyzedSelect,
        derived: dict[str, SubqueryNode],
        eq_filters: dict[str, dict[str, Expr]],
        other_filters: dict[str, list[FilterCondition]],
        needed: dict[str, set[str] | None],
    ) -> PlanNode:
        if analyzed.bindings[binding] is None:
            return derived[binding]
        entry = self._entry_for_binding(binding, analyzed)
        assert entry is not None
        choice = self._best_access(entry, set(eq_filters[binding]), needed[binding])
        prefix_attrs, access_entry, _ = choice
        return ScanNode(
            access=self._access_spec(
                binding, choice, prefix_attrs, eq_filters, other_filters, needed
            ),
            prefix_exprs=tuple(eq_filters[binding][a] for a in prefix_attrs),
            check_dirty=self._check_dirty(access_entry),
        )

    def _check_dirty(self, entry: CatalogEntry) -> bool:
        return self.dirty_check_views and entry.kind in (VIEW, VIEW_INDEX)

    @staticmethod
    def _access_spec(
        binding: str,
        choice: AccessChoice,
        filter_bound: tuple[str, ...],
        eq_filters: dict[str, dict[str, Expr]],
        other_filters: dict[str, list[FilterCondition]],
        needed: dict[str, set[str] | None],
    ) -> AccessSpec:
        """``choice`` as the access to ``binding``. The key prefix itself
        applies the equality filters on ``filter_bound``; every other
        filter on the binding stays a residual; the rows it yields
        carry ``needed[binding]``."""
        wanted = needed[binding]
        prefix_attrs, entry, lookup = choice
        preds = [
            ValuePredicate(binding, attr, "=", expr)
            for attr, expr in eq_filters[binding].items()
            if attr not in filter_bound
        ]
        preds += [
            ValuePredicate(binding, f.attr, f.op, f.value)  # type: ignore[arg-type]
            for f in other_filters[binding]
        ]
        return AccessSpec(
            entry=entry,
            binding=binding,
            prefix_attrs=prefix_attrs,
            residuals=tuple(preds),
            lookup_entry=lookup,
            needed=None if wanted is None else frozenset(wanted),
        )

    def _access_candidates(
        self,
        entry: CatalogEntry,
        available: set[str],
        needed: set[str] | None,
    ) -> list[AccessChoice]:
        """The base entry and each of its indexes, with the key prefix
        ``available`` gives it and the base lookup it needs when it does
        not cover ``needed``."""
        candidates: list[AccessChoice] = []
        for cand in [entry, *self.catalog.indexes_for(entry)]:
            prefix: list[str] = []
            for k in cand.key_attrs:
                if k in available:
                    prefix.append(k)
                else:
                    break
            covered = (
                needed is None and set(cand.attrs) >= set(entry.attrs)
            ) or (needed is not None and needed <= set(cand.attrs))
            lookup = None if (cand is entry or covered) else entry
            candidates.append((tuple(prefix), cand, lookup))
        return candidates

    def _best_access(
        self,
        entry: CatalogEntry,
        available: set[str],
        needed: set[str] | None,
    ) -> AccessChoice:
        """Pick the physical entry (base or index) with the longest usable
        key prefix. Returns (prefix_attrs, chosen_entry, lookup_entry)."""

        def rank(c: AccessChoice):
            prefix, cand, lookup = c
            return (
                len(prefix),            # longest prefix wins
                cand is entry,          # prefer base table over index on ties
                lookup is None,         # prefer covered access
            )

        best = max(self._access_candidates(entry, available, needed), key=rank)
        if not best[0]:
            return ((), entry, None)  # full scan of the base entry
        return best

    def _attach_binding(
        self,
        plan: PlanNode,
        binding: str,
        joined: list[str],
        analyzed: AnalyzedSelect,
        derived: dict[str, SubqueryNode],
        eq_filters: dict[str, dict[str, Expr]],
        other_filters: dict[str, list[FilterCondition]],
        needed: dict[str, set[str] | None],
        pending: list[tuple[int, JoinCondition]],
    ) -> tuple[PlanNode, set[int]]:
        """Join ``binding`` into ``plan``; returns (plan, consumed join ids)."""
        conds = self.equi_conds(binding, joined, pending)
        entry = self._entry_for_binding(binding, analyzed)
        if entry is not None:
            available = set(eq_filters[binding]) | {attr for _, attr, _ in conds}
            choice = self._best_access(entry, available, needed[binding])
            prefix_attrs, access_entry, _ = choice
            if prefix_attrs:
                # index nested-loop join
                outer_keys: list[PrefixSource] = []
                filter_bound: list[str] = []
                consumed: set[int] = set()
                for attr in prefix_attrs:
                    join_source = next(
                        ((i, outer) for i, a, outer in conds if a == attr), None
                    )
                    if join_source is not None:
                        consumed.add(join_source[0])
                        outer_keys.append(join_source[1])
                    else:
                        outer_keys.append(eq_filters[binding][attr])
                        filter_bound.append(attr)
                # an equality filter on a prefix attr the JOIN binds is not
                # applied by the prefix: it stays a residual
                access = self._access_spec(
                    binding,
                    choice,
                    tuple(filter_bound),
                    eq_filters,
                    other_filters,
                    needed,
                )
                # equi conds not in the prefix remain as post-join predicates —
                # both sides are present in the merged row, handled by caller.
                node = NestedLoopJoinNode(
                    outer=plan,
                    inner=access,
                    outer_keys=tuple(outer_keys),  # type: ignore[arg-type]
                    check_dirty=self._check_dirty(access_entry),
                )
                return node, consumed

        # derived table, or no index path: broadcast hash join on the
        # equi conditions (cartesian when there are none)
        build = self._leaf_plan(
            binding, analyzed, derived, eq_filters, other_filters, needed
        )
        return self.hash_join(plan, build, binding, conds), {i for i, _, _ in conds}


class CostBasedPlanner(Planner):
    """Cost-based access-path and join-order selection.

    Replaces the rule-based heuristics (longest key prefix wins; first
    connected binding joins next) with estimates priced from region
    statistics via :mod:`repro.phoenix.stats`:

    * ``_best_access`` ranks base-vs-index (and view-vs-view-index)
      candidates by estimated access cost instead of prefix length, so
      a covered index wins exactly when it is cheaper — including
      narrow-index full scans the prefix rule can never pick;
    * the starting binding is the one with the cheapest total access,
      and each subsequent binding is the connected candidate whose join
      node (as ``_attach_binding`` builds it) has the lowest estimate;
    * every plan node is annotated with ``(est rows, est cost)``, which
      ``explain()`` renders — the costed plan tree.

    Operator work (a hash join's broadcast, a sort, a group-by) is
    priced by running :func:`~repro.phoenix.stats.charge_operator_work`
    over the estimated rows on the planner's own jitter-free clock, so
    an estimate pays exactly what the executor charges for the same
    rows and the backend's clock and counters never move.

    Two callers build it: a connection whose ``configure_engine``
    asks for ``cost_based=True``, and the federation mediator, which
    prices a statement on an HBase-backed backend with it
    (:func:`~repro.federation.estimate.phoenix_estimate`). The anchored
    experiments run the rule-based planner.
    """

    def __init__(
        self,
        catalog: Catalog,
        dirty_check_views: bool = False,
        cluster: Any = None,
        cost: Any = None,
    ) -> None:
        super().__init__(catalog, dirty_check_views=dirty_check_views)
        self.provider = StatisticsProvider(catalog, cluster)
        self._cost_model = cost if cost is not None else DEFAULT_COST_MODEL
        self._dry = LatencyCharger(Simulation(cost=self._cost_model), "phoenix")

    # -- public ---------------------------------------------------------------------
    def plan_select(self, select: Select) -> PlannedQuery:
        planned = super().plan_select(select)
        self.estimate(planned.root)  # annotate the tree for explain()
        return planned

    # -- access-path costing ----------------------------------------------------------
    def _access_estimate(
        self,
        prefix: tuple[str, ...],
        cand: CatalogEntry,
        lookup: CatalogEntry | None,
    ) -> tuple[float, float]:
        lookup_stats = (
            self.provider.stats_for(lookup) if lookup is not None else None
        )
        return access_ms(
            self._cost_model,
            self.provider.stats_for(cand),
            len(prefix),
            len(cand.key_attrs),
            lookup_stats,
        )

    def _operator_ms(self, kind: str, rows: float) -> float:
        """What the executor charges for ``kind`` work over ``rows``,
        run on the planner's own jitter-free clock."""
        sim = self._dry.sim
        sim.reset_clock()
        charge_operator_work(self._dry, self.provider.servers, kind, rows)
        return sim.clock.now_ms

    def _best_access(
        self,
        entry: CatalogEntry,
        available: set[str],
        needed: set[str] | None,
    ) -> AccessChoice:
        def rank(c: AccessChoice):
            prefix, cand, lookup = c
            _, ms = self._access_estimate(prefix, cand, lookup)
            # cheapest first; deterministic tie-break prefers the base
            # entry, covered access, then name
            return (ms, 0 if cand is entry else 1, 0 if lookup is None else 1, cand.name)

        return min(self._access_candidates(entry, available, needed), key=rank)

    # -- join-order costing ------------------------------------------------------------
    def _binding_order(
        self,
        bindings: list[str],
        analyzed: AnalyzedSelect,
        eq_filters: dict[str, dict[str, Expr]],
        needed: dict[str, set[str] | None],
    ) -> list[str]:
        def start_cost(item: tuple[int, str]) -> tuple:
            index, b = item
            entry = self._entry_for_binding(b, analyzed)
            if entry is None:
                # derived tables join in last (they always hash-join)
                return (math.inf, index)
            prefix, cand, lookup = self._best_access(
                entry, set(eq_filters[b]), needed[b]
            )
            _, ms = self._access_estimate(prefix, cand, lookup)
            return (ms, index)

        ordered = sorted(enumerate(bindings), key=start_cost)
        return [b for _, b in ordered]

    def _choose_next(
        self,
        remaining: list[str],
        joined: list[str],
        plan: PlanNode,
        analyzed: AnalyzedSelect,
        derived: dict[str, SubqueryNode],
        eq_filters: dict[str, dict[str, Expr]],
        other_filters: dict[str, list[FilterCondition]],
        needed: dict[str, set[str] | None],
        pending_joins: list[tuple[int, JoinCondition]],
    ) -> str:
        connected = [
            b for b in remaining
            if any(self.join_connects(j, b, joined) for _, j in pending_joins)
        ]
        candidates = connected or remaining  # cartesian fallback

        def attach_cost(item: tuple[int, str]) -> tuple:
            index, b = item
            node, _ = self._attach_binding(
                plan, b, joined, analyzed, derived, eq_filters, other_filters,
                needed, pending_joins,
            )
            return (self.estimate(node)[1], index)

        pool = [(i, b) for i, b in enumerate(remaining) if b in candidates]
        return min(pool, key=attach_cost)[1]

    # -- plan-tree estimation ----------------------------------------------------------
    def estimate(self, node: PlanNode) -> tuple[float, float]:
        """Bottom-up ``(rows, cost_ms)`` estimate; annotates every node
        (rendered by ``describe``/``explain``)."""
        if isinstance(node, ScanNode):
            rows, ms = self._access_estimate(
                node.access.prefix_attrs, node.access.entry, node.access.lookup_entry
            )
            rows *= FILTER_SELECTIVITY ** len(node.access.residuals)
        elif isinstance(node, SubqueryNode):
            rows, ms = self.estimate(node.subplan)
        elif isinstance(node, NestedLoopJoinNode):
            outer_rows, outer_ms = self.estimate(node.outer)
            per_probe_rows, per_probe_ms = self._access_estimate(
                node.inner.prefix_attrs, node.inner.entry, node.inner.lookup_entry
            )
            rows = outer_rows * per_probe_rows
            ms = outer_ms + outer_rows * per_probe_ms
        elif isinstance(node, HashJoinNode):
            probe_rows, probe_ms = self.estimate(node.probe)
            build_rows, build_ms = self.estimate(node.build)
            rows = equi_join_rows(probe_rows, build_rows, len(node.probe_keys))
            ms = probe_ms + build_ms + self._operator_ms(BROADCAST, build_rows)
        elif isinstance(node, FilterNode):
            rows, ms = self.estimate(node.child)
            rows *= FILTER_SELECTIVITY ** len(node.predicates)
        elif isinstance(node, SortNode):
            rows, ms = self.estimate(node.child)
            ms += self._operator_ms(SORT, rows)
        elif isinstance(node, GroupByNode):
            in_rows, ms = self.estimate(node.child)
            ms += self._operator_ms(GROUP_BY, in_rows)
            rows = in_rows ** 0.5 if node.group_keys else 1.0
        elif isinstance(node, LimitNode):
            rows, ms = self.estimate(node.child)
            rows = min(rows, float(node.limit))
        elif isinstance(node, DistinctNode):
            # nothing charges for DISTINCT work
            rows, ms = self.estimate(node.child)
        else:
            raise PlanError(
                f"the cost-based planner cannot price a {type(node).__name__}"
            )
        node._est = (rows, ms)
        return rows, ms
