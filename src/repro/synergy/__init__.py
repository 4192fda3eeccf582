"""The Synergy system — the paper's primary contribution.

Pipeline (paper Fig. 3):

1. baseline transformation of the relational schema/workload
   (:mod:`repro.phoenix.ddl`);
2. **candidate views generation** (Sec. V): schema graph -> DAG ->
   topological order -> root assignment -> rooted trees; every downward
   tree path is a candidate view (:mod:`repro.synergy.graph`,
   :mod:`repro.synergy.trees`, :mod:`repro.synergy.views`);
3. **views selection** per equi-join query by edge marking
   (:mod:`repro.synergy.selection`), **query rewriting** over selected
   views (:mod:`repro.synergy.rewrite`) and **view-index addition**
   (:mod:`repro.synergy.view_indexes`) (Sec. VI);
4. **view maintenance** (Sec. VII) and the **transaction layer** with
   hierarchical single-lock concurrency control, WAL and dirty-read
   marking (Sec. VIII) (:mod:`repro.synergy.maintenance`,
   :mod:`repro.synergy.locks`, :mod:`repro.synergy.txlayer`);
5. steps 2-3 run once, as a :class:`repro.synergy.design.SchemaAwareDesign`;
   :class:`repro.systems.SynergySystem` assembles that design with the
   mechanisms of step 4 over HBase (and ``MvccASystem`` the same design
   with Tephra MVCC instead). This package exports mechanisms only.
"""

from repro.synergy.graph import GraphEdge, SchemaGraph, build_schema_graph
from repro.synergy.heuristics import JoinOverlapHeuristic
from repro.synergy.trees import RootedTree, generate_rooted_trees
from repro.synergy.views import ViewDef, candidate_views
from repro.synergy.selection import select_views_for_query, select_views
from repro.synergy.rewrite import rewrite_query
from repro.synergy.design import SchemaAwareDesign

__all__ = [
    "GraphEdge",
    "JoinOverlapHeuristic",
    "RootedTree",
    "SchemaAwareDesign",
    "SchemaGraph",
    "ViewDef",
    "build_schema_graph",
    "candidate_views",
    "generate_rooted_trees",
    "rewrite_query",
    "select_views",
    "select_views_for_query",
]
