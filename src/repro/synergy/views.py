"""View definitions and candidate enumeration (paper Definition 5).

A candidate view is a path in a rooted tree: its attribute set is the
union of the path relations' attributes, its key is the key of the
*last* relation, and it is stored physically as a relation. Candidate
views need not start at the root — Fig. 6 selects ``R2-R3-R4`` and
``R5-R6`` from a tree rooted at ``R1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.schema import Schema
from repro.synergy.graph import GraphEdge
from repro.synergy.trees import RootedTree


@dataclass(frozen=True)
class ViewDef:
    """A materializable path: relations + connecting (PK, FK) edges."""

    relations: tuple[str, ...]
    edges: tuple[GraphEdge, ...]
    root: str
    """The rooted tree this path came from (its locking hierarchy)."""

    name_override: str | None = None
    """Custom physical name (used by the schema-unaware advisor views)."""

    def __post_init__(self) -> None:
        assert len(self.relations) == len(self.edges) + 1

    @property
    def name(self) -> str:
        if self.name_override is not None:
            return self.name_override
        return "MV_" + "__".join(self.relations)

    @property
    def display_name(self) -> str:
        """The paper's dash-joined rendering, e.g. ``Customer-Orders``."""
        return "-".join(self.relations)

    @property
    def last(self) -> str:
        return self.relations[-1]

    def contains(self, relation: str) -> bool:
        return relation in self.relations

    def key_attrs(self, schema: Schema) -> tuple[str, ...]:
        """PK of the last relation (Definition 5)."""
        return tuple(schema.relation(self.last).primary_key)


def candidate_views(tree: RootedTree) -> list[ViewDef]:
    """All downward paths (length >= 2 relations) in one rooted tree."""
    out: list[ViewDef] = []
    for start in tree.nodes:
        # DFS from start, extending one child at a time
        def extend(node: str, rels: list[str], edges: list[GraphEdge]) -> None:
            for child in tree.children_of(node):
                e = tree.parent_edges[child]
                rels.append(child)
                edges.append(e)
                out.append(
                    ViewDef(
                        relations=tuple(rels),
                        edges=tuple(edges),
                        root=tree.root,
                    )
                )
                extend(child, rels, edges)
                rels.pop()
                edges.pop()

        extend(start, [start], [])
    return out


def candidate_views_for_trees(
    trees: dict[str, RootedTree],
) -> list[ViewDef]:
    out: list[ViewDef] = []
    for root in trees:
        out.extend(candidate_views(trees[root]))
    return out
