"""A workload-driven, schema-relationship-UNaware view advisor.

Stands in for the SQL Server Database Engine Tuning Advisor the paper
uses to build MVCC-UA (Sec. IX-D2), in the spirit of Agrawal et al.
(VLDB'00): candidates are *syntactically relevant* views derived from
each query's join set, projected down to the attributes the query
touches (DTA's indexed views are narrow); selection is greedy by
estimated benefit under a storage budget.

"Unaware" means: no rooted-tree restriction, no single-hierarchy rule,
no coordination with any locking scheme — a candidate may span what
Synergy would treat as separate locking hierarchies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phoenix.planner import SelectComposer
from repro.relational.datatypes import DataType
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sql.analyzer import analyze_select
from repro.sql.ast import Select
from repro.synergy.graph import GraphEdge, build_schema_graph
from repro.synergy.heuristics import joins_match_edge
from repro.synergy.views import ViewDef

STORAGE_BUDGET_FRACTION = 0.6
"""Share of the estimated base-table bytes the recommended views may
take."""

MAX_VIEWS = 1
"""Recommendation cap. The paper's DTA run produced exactly one
materialized view (used by Q10), so MVCC-UA keeps the same cap."""


@dataclass
class AdvisorCandidate:
    """One candidate view: a join chain + the attribute projection."""

    view: ViewDef
    attributes: tuple[str, ...]
    benefit: float
    size_estimate: int
    source_queries: tuple[str, ...]


class TuningAdvisor:
    """Greedy benefit/storage view selection over syntactic candidates."""

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        row_estimates: dict[str, int],
    ) -> None:
        self.schema = schema
        self.workload = workload
        self.row_estimates = dict(row_estimates)
        self.graph = build_schema_graph(schema)

    # -- candidate enumeration ---------------------------------------------------------
    def _chain_from_query(self, select: Select) -> tuple[ViewDef, set[str]] | None:
        """Extract the longest FK chain equated by the query, if any.

        Ignores schema hierarchies entirely: any chain of key/FK equi
        joins is materializable for the advisor."""
        if select.uses_relation_twice():
            return None  # indexed views cannot contain self joins
        analyzed = analyze_select(select, self.schema)
        joins = analyzed.equi_joins()
        if not joins:
            return None
        matched: list[GraphEdge] = [
            e for e in self.graph.edges if joins_match_edge(e, joins)
        ]
        if not matched:
            return None
        # assemble the longest parent->child chain among matched edges
        children = {e.child for e in matched}
        starts = [e for e in matched if e.parent not in children]
        best_chain: list[GraphEdge] = []

        def extend(chain: list[GraphEdge]) -> None:
            nonlocal best_chain
            if len(chain) > len(best_chain):
                best_chain = list(chain)
            last = chain[-1].child
            for e in matched:
                if e.parent == last and e not in chain:
                    chain.append(e)
                    extend(chain)
                    chain.pop()

        for s in starts:
            extend([s])
        if not best_chain:
            return None
        relations = [best_chain[0].parent] + [e.child for e in best_chain]
        view = ViewDef(
            relations=tuple(relations),
            edges=tuple(best_chain),
            root=relations[0],
            name_override="ADV_" + "__".join(relations),
        )
        # every attribute the query reads of a chain relation
        needed: set[str] = set()
        for binding, attrs in SelectComposer().needed_attrs(analyzed).items():
            rel_name = analyzed.bindings[binding]
            if rel_name in relations:
                if attrs is None:
                    attrs = self.schema.relation(rel_name).attribute_names
                needed.update(attrs)
        return view, needed

    # -- cost/benefit model --------------------------------------------------------------
    _WIDTHS = {DataType.VARCHAR: 40}  # numeric/date types default to 8

    def _attr_width(self, relation: str, attr: str) -> int:
        dtype = self.schema.relation(relation).dtype_of(attr)
        return self._WIDTHS.get(dtype, 8)

    def _estimate(self, view: ViewDef, attrs: set[str], freq: float) -> tuple[float, int]:
        """(benefit, size). Benefit ~ rows the join algorithm would touch;
        size ~ view rows x total projected attribute width."""
        rows_joined = sum(
            self.row_estimates.get(r, 1000) for r in view.relations
        )
        benefit = freq * rows_joined
        view_rows = self.row_estimates.get(view.last, 1000)
        width = 0
        for rel_name in view.relations:
            rel = self.schema.relation(rel_name)
            for a in rel.attribute_names:
                if a in attrs:
                    width += self._attr_width(rel_name, a)
        size = view_rows * max(width, 8)
        return benefit, size

    def base_size_estimate(self) -> int:
        total = 0
        for rel in self.schema:
            row_width = sum(
                self._attr_width(rel.name, a) for a in rel.attribute_names
            )
            total += self.row_estimates.get(rel.name, 1000) * row_width
        return total

    # -- selection ----------------------------------------------------------------------
    def recommend(self) -> list[AdvisorCandidate]:
        candidates: dict[tuple[str, ...], AdvisorCandidate] = {}
        for stmt in self.workload:
            parsed = stmt.parsed
            if not isinstance(parsed, Select):
                continue
            chain = self._chain_from_query(parsed)
            if chain is None:
                continue
            view, attrs = chain
            attrs |= set(self.schema.relation(view.last).primary_key)
            benefit, size = self._estimate(view, attrs, stmt.frequency)
            key = view.relations
            if key in candidates:
                existing = candidates[key]
                merged_attrs = tuple(
                    dict.fromkeys(existing.attributes + tuple(sorted(attrs)))
                )
                candidates[key] = AdvisorCandidate(
                    view=existing.view,
                    attributes=merged_attrs,
                    benefit=existing.benefit + benefit,
                    size_estimate=max(existing.size_estimate, size),
                    source_queries=existing.source_queries
                    + (stmt.statement_id,),
                )
            else:
                ordered = tuple(
                    a
                    for rel_name in view.relations
                    for a in self.schema.relation(rel_name).attribute_names
                    if a in attrs
                )
                candidates[key] = AdvisorCandidate(
                    view=view,
                    attributes=ordered,
                    benefit=benefit,
                    size_estimate=size,
                    source_queries=(stmt.statement_id,),
                )

        budget = STORAGE_BUDGET_FRACTION * self.base_size_estimate()
        chosen: list[AdvisorCandidate] = []
        spent = 0
        for cand in sorted(
            candidates.values(), key=lambda c: (-c.benefit, c.size_estimate)
        ):
            if len(chosen) >= MAX_VIEWS:
                break
            if spent + cand.size_estimate > budget:
                continue
            chosen.append(cand)
            spent += cand.size_estimate
        return chosen
