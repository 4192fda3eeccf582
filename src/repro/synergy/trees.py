"""Root assignment and rooted-tree construction (paper Sec. V-B, steps 3-4).

Step 3 examines non-root relations in **forward** topological order and
assigns each to at most one root by selecting a single root→relation
path (so every relation joins exactly one locking hierarchy). Step 4
walks each rooted graph's relations in **reverse** topological order,
keeping the paths that materialize the most workload joins, yielding a
rooted tree with a unique path from the root to every assigned relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ViewSelectionError
from repro.synergy.graph import GraphEdge, SchemaGraph
from repro.synergy.heuristics import Heuristic


@dataclass
class RootedTree:
    """A root plus one parent edge per assigned relation."""

    root: str
    parent_edges: dict[str, GraphEdge] = field(default_factory=dict)
    """child relation -> its unique incoming tree edge."""

    node_order: tuple[str, ...] = ()
    """All tree nodes (root first), in deterministic order."""

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.node_order

    @property
    def edges(self) -> tuple[GraphEdge, ...]:
        return tuple(self.parent_edges[n] for n in self.node_order if n != self.root)

    def parent_of(self, node: str) -> str | None:
        e = self.parent_edges.get(node)
        return e.parent if e is not None else None

    def children_of(self, node: str) -> tuple[str, ...]:
        return tuple(
            n for n in self.node_order if self.parent_of(n) == node
        )

    def path_from_root(self, node: str) -> tuple[GraphEdge, ...]:
        """Tree edges from the root down to ``node``."""
        edges: list[GraphEdge] = []
        cur = node
        while cur != self.root:
            e = self.parent_edges.get(cur)
            if e is None:
                raise ViewSelectionError(f"{cur} is not in tree rooted at {self.root}")
            edges.append(e)
            cur = e.parent
        edges.reverse()
        return tuple(edges)

    def describe(self) -> str:
        lines = [self.root]

        def walk(node: str, depth: int) -> None:
            for child in self.children_of(node):
                edge = self.parent_edges[child]
                lines.append(
                    "  " * depth
                    + f"└─ {child}  via ({','.join(edge.pk_attrs)} , "
                    + f"{','.join(edge.fk_attrs)})"
                )
                walk(child, depth + 1)

        walk(self.root, 1)
        return "\n".join(lines)


def _path_relations(root: str, path: Sequence[GraphEdge]) -> list[str]:
    return [root, *[e.child for e in path]]


def assign_relations_to_roots(
    dag: SchemaGraph,
    roots: Sequence[str],
    heuristic: Heuristic,
) -> tuple[dict[str, str], dict[str, list[GraphEdge]]]:
    """Mechanism step 3: (assignment map, rooted graph edge lists).

    Per non-root relation (in topological order): enumerate paths from
    every root, weight them, and take the best path that (a) includes a
    single root and (b) passes only through relations already assigned
    to that root (or unassigned). Ties break toward the root listed
    first in ``roots`` — reproducing the paper's choice of Address over
    Department for Employee in the Company walkthrough.
    """
    for r in roots:
        if r not in dag.nodes:
            raise ViewSelectionError(f"root {r!r} is not a relation in the schema")
    root_set = set(roots)
    assignment: dict[str, str] = {}
    rooted_edges: dict[str, list[GraphEdge]] = {r: [] for r in roots}

    topo = dag.topological_order()
    for rel in topo:
        if rel in root_set:
            continue
        candidates: list[tuple[float, int, int, str, str, tuple[GraphEdge, ...]]] = []
        for root_index, root in enumerate(roots):
            for path in dag.paths(root, rel):
                rels = _path_relations(root, path)
                if any(r in root_set and r != root for r in rels[1:]):
                    continue  # path must include a single root
                if any(
                    assignment.get(r) not in (None, root)
                    for r in rels[1:]
                ):
                    continue  # intermediate owned by another root
                candidates.append(
                    (
                        -heuristic.path_weight(path),
                        root_index,
                        len(path),
                        root,
                        "/".join(rels),
                        path,
                    )
                )
        if not candidates:
            continue  # unassigned (e.g. TPC-W Shopping_cart)
        candidates.sort()
        _, _, _, root, _, path = candidates[0]
        assignment[rel] = root
        for e in path:
            assignment.setdefault(e.child, root)
            if e not in rooted_edges[root]:
                rooted_edges[root].append(e)
    return assignment, rooted_edges


def rooted_graph_to_tree(
    dag: SchemaGraph,
    root: str,
    edges: list[GraphEdge],
    heuristic: Heuristic,
) -> RootedTree:
    """Mechanism step 4: reverse-topological path selection.

    Repeatedly take the *last* unprocessed relation in topological
    order, enumerate root→relation paths inside the rooted graph, keep
    the heaviest one consistent with edges already committed to the
    tree, and strike every relation on it off the list.
    """
    if not edges:
        return RootedTree(root=root, node_order=(root,))
    graph = dag.subgraph(edges)
    sub_topo = [n for n in graph.topological_order() if n != root]
    remaining = list(sub_topo)
    parent_edges: dict[str, GraphEdge] = {}

    while remaining:
        target = remaining[-1]
        candidates = []
        for path in graph.paths(root, target):
            consistent = all(
                parent_edges.get(e.child) in (None, e) for e in path
            )
            if not consistent:
                continue
            candidates.append(
                (
                    -heuristic.path_weight(path),
                    -len(path),
                    "/".join(_path_relations(root, path)),
                    path,
                )
            )
        if not candidates:
            raise ViewSelectionError(
                f"no tree-consistent path from {root} to {target}; "
                "rooted graph cannot be reduced to a tree"
            )
        candidates.sort()
        path = candidates[0][3]
        for e in path:
            parent_edges.setdefault(e.child, e)
        covered = set(_path_relations(root, path)[1:])
        remaining = [r for r in remaining if r not in covered]

    node_order = [root] + [n for n in sub_topo if n in parent_edges]
    return RootedTree(
        root=root, parent_edges=parent_edges, node_order=tuple(node_order)
    )


def generate_rooted_trees(
    schema_graph: SchemaGraph,
    roots: Sequence[str],
    heuristic: Heuristic,
) -> tuple[dict[str, RootedTree], dict[str, str]]:
    """The full candidate-views generation mechanism (Sec. V-B).

    Returns ``(trees by root, relation -> root assignment)``. Relations
    without a valid path from any root stay unassigned and never
    participate in views (or locking hierarchies).
    """
    dag = schema_graph.to_dag(heuristic)
    assignment, rooted_edges = assign_relations_to_roots(dag, roots, heuristic)
    trees = {
        root: rooted_graph_to_tree(dag, root, rooted_edges[root], heuristic)
        for root in roots
    }
    return trees, assignment
