"""Schema graph, DAG reduction and topological ordering (paper Sec. V).

Definitions 1-3: vertices are relations; a directed edge runs from a
relation ``Ri`` to ``Rj`` — represented as a ``(PK, FK)`` tuple — when a
foreign key of ``Rj`` references the primary key of ``Ri`` (parent →
child). Relations may be connected by multiple edges (Employee has both
a home and an office Address FK); the DAG reduction keeps the single
highest-weight edge per ordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import ViewSelectionError
from repro.relational.schema import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.synergy.heuristics import Heuristic


@dataclass(frozen=True)
class GraphEdge:
    """A (PK, FK) edge from ``parent`` to ``child`` (Definition 2)."""

    parent: str
    child: str
    fk_name: str
    pk_attrs: tuple[str, ...]
    fk_attrs: tuple[str, ...]


class SchemaGraph:
    """Directed (multi-)graph over a schema's relations."""

    def __init__(self, nodes: tuple[str, ...], edges: tuple[GraphEdge, ...]) -> None:
        self.nodes = nodes
        self.edges = edges
        self._out: dict[str, list[GraphEdge]] = {n: [] for n in nodes}
        self._in: dict[str, list[GraphEdge]] = {n: [] for n in nodes}
        for e in edges:
            self._out[e.parent].append(e)
            self._in[e.child].append(e)

    # -- DAG reduction (mechanism step 1) -------------------------------------------
    def to_dag(self, heuristic: "Heuristic") -> "SchemaGraph":
        """Keep at most one edge per (parent, child) pair — the edge with
        the maximum heuristic weight (first-declared wins ties)."""
        by_pair: dict[tuple[str, str], list[GraphEdge]] = {}
        for e in self.edges:
            by_pair.setdefault((e.parent, e.child), []).append(e)
        kept: list[GraphEdge] = []
        for pair_edges in by_pair.values():
            best = max(
                enumerate(pair_edges),
                key=lambda ie: (heuristic.edge_weight(ie[1]), -ie[0]),
            )[1]
            kept.append(best)
        # preserve original edge declaration order for determinism
        order = {e: i for i, e in enumerate(self.edges)}
        kept.sort(key=lambda e: order[e])
        dag = SchemaGraph(self.nodes, tuple(kept))
        dag.topological_order()  # raises on cycles
        return dag

    # -- topological ordering (mechanism step 2) ---------------------------------------
    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; ready nodes are taken in declaration order,
        which keeps the whole pipeline deterministic."""
        indeg = {n: len(self._in[n]) for n in self.nodes}
        order: list[str] = []
        ready = [n for n in self.nodes if indeg[n] == 0]
        while ready:
            node = ready.pop(0)
            order.append(node)
            newly = []
            for e in self._out[node]:
                indeg[e.child] -= 1
                if indeg[e.child] == 0:
                    newly.append(e.child)
            # maintain declaration order among ready nodes
            ready = sorted(
                ready + newly, key=lambda n: self.nodes.index(n)
            )
        if len(order) != len(self.nodes):
            cyclic = [n for n in self.nodes if indeg[n] > 0]
            raise ViewSelectionError(
                f"schema graph contains a cycle through {cyclic}; the paper "
                "assumes schemas free of simple and transitive circular "
                "references (Sec. V)"
            )
        return tuple(order)

    # -- path enumeration --------------------------------------------------------------
    def paths(self, source: str, target: str) -> list[tuple[GraphEdge, ...]]:
        """All simple directed paths source -> target (graph must be a DAG
        for this to terminate on all inputs we feed it)."""
        out: list[tuple[GraphEdge, ...]] = []

        def dfs(node: str, acc: list[GraphEdge], seen: set[str]) -> None:
            if node == target:
                if acc:
                    out.append(tuple(acc))
                return
            for e in self._out[node]:
                if e.child in seen:
                    continue
                acc.append(e)
                seen.add(e.child)
                dfs(e.child, acc, seen)
                seen.discard(e.child)
                acc.pop()

        dfs(source, [], {source})
        return out

    def subgraph(self, edges: Iterable[GraphEdge]) -> "SchemaGraph":
        edges = tuple(dict.fromkeys(edges))
        nodes = tuple(
            n
            for n in self.nodes
            if any(n in (e.parent, e.child) for e in edges)
        )
        return SchemaGraph(nodes, edges)


def build_schema_graph(schema: Schema) -> SchemaGraph:
    """Definition 1: an edge parent -> child per foreign-key reference."""
    edges = []
    for parent, child, fk in schema.relationships():
        edges.append(
            GraphEdge(
                parent=parent,
                child=child,
                fk_name=fk.name,
                pk_attrs=tuple(schema.relation(parent).primary_key),
                fk_attrs=tuple(fk.attributes),
            )
        )
    return SchemaGraph(tuple(schema.relation_names), tuple(edges))
