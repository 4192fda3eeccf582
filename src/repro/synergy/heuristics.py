"""Candidate-selection heuristics (paper Sec. V-B2).

The paper uses "the number of overlapping joins" as a simple
workload-aware weight: an edge scores the (frequency-weighted) number of
workload queries whose join conditions equate the edge's PK attributes
with its FK attributes. Path weight is the sum of its edge weights.
Other heuristics plug in through the same two-method interface.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sql.analyzer import JoinCondition, analyze_select
from repro.sql.ast import Select
from repro.synergy.graph import GraphEdge


class Heuristic(Protocol):  # pragma: no cover - structural type
    def edge_weight(self, edge: GraphEdge) -> float: ...

    def path_weight(self, path: Iterable[GraphEdge]) -> float: ...


def joins_match_edge(
    edge: GraphEdge, joins: list[JoinCondition]
) -> bool:
    """True when ``joins`` equate every (PK, FK) attribute pair of the edge."""
    for pk_attr, fk_attr in zip(edge.pk_attrs, edge.fk_attrs):
        found = False
        for j in joins:
            if not j.is_equi:
                continue
            pair = j.attr_pair_for(edge.parent, edge.child)
            if pair == (pk_attr, fk_attr):
                found = True
                break
        if not found:
            return False
    return True


class JoinOverlapHeuristic:
    """Edge weight = frequency-weighted count of workload queries whose
    equi-join conditions cover the edge."""

    def __init__(self, schema: Schema, workload: Workload) -> None:
        self.schema = schema
        self._query_joins: list[tuple[float, list[JoinCondition]]] = []
        for stmt in workload:
            parsed = stmt.parsed
            if not isinstance(parsed, Select):
                continue
            if parsed.uses_relation_twice():
                continue  # self-joins never materialize (Sec. VIII-C)
            analyzed = analyze_select(parsed, schema)
            if analyzed.equi_joins():
                self._query_joins.append((stmt.frequency, analyzed.equi_joins()))

    def edge_weight(self, edge: GraphEdge) -> float:
        total = 0.0
        for freq, joins in self._query_joins:
            if joins_match_edge(edge, joins):
                total += freq
        return total

    def path_weight(self, path: Iterable[GraphEdge]) -> float:
        return sum(self.edge_weight(e) for e in path)
