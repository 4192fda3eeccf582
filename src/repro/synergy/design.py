"""The schema-relationships-aware view design (paper Fig. 3, steps 2-4).

Input: relational schema + workload + roots set. Output: the selected
views, the view-index plan and the executable (view-rewritten) text of
every workload statement — everything about *which* views exist, and
nothing about how writes to them are isolated. Synergy and MVCC-A are
built from the same design; they differ only in concurrency control.
"""

from __future__ import annotations

from typing import Sequence

from repro.hbase.client import HBaseClient
from repro.phoenix.catalog import Catalog
from repro.phoenix.ddl import create_view_entry, create_view_index_entry
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sql.ast import Select
from repro.synergy.graph import build_schema_graph
from repro.synergy.heuristics import JoinOverlapHeuristic
from repro.synergy.rewrite import RewriteResult, rewrite_query
from repro.synergy.selection import SelectionResult, select_views
from repro.synergy.trees import generate_rooted_trees
from repro.synergy.view_indexes import (
    ViewIndexPlan,
    recommend_maintenance_indexes,
    recommend_read_indexes,
)
from repro.synergy.views import ViewDef, candidate_views_for_trees


class SchemaAwareDesign:
    """Candidate generation, selection, rewriting and view-index
    addition, run once over the declared workload."""

    def __init__(
        self, schema: Schema, workload: Workload, roots: Sequence[str]
    ) -> None:
        self.roots = tuple(roots)

        # candidate views generation (Sec. V)
        self.graph = build_schema_graph(schema)
        self.heuristic = JoinOverlapHeuristic(schema, workload)
        self.trees, self.assignment = generate_rooted_trees(
            self.graph, self.roots, self.heuristic
        )
        self.candidates = candidate_views_for_trees(self.trees)

        # views selection + query re-writing (Sec. VI)
        self.selection: SelectionResult = select_views(
            workload, schema, self.trees, self.heuristic
        )
        self.views: list[ViewDef] = list(self.selection.final_views)
        self.rewritten: dict[str, RewriteResult] = {}
        self.statements: dict[str, str] = {}
        for stmt in workload:
            sql = stmt.sql
            if isinstance(stmt.parsed, Select):
                views = self.selection.per_query.get(stmt.statement_id, [])
                rewritten = rewrite_query(stmt.parsed, schema, views)
                self.rewritten[stmt.statement_id] = rewritten
                sql = str(rewritten.select)
            self.statements[stmt.statement_id] = sql

        # view-indexes (Sec. VI-C read indexes + Sec. VII-C maintenance)
        self.view_index_plan = ViewIndexPlan()
        recommend_read_indexes(schema, self.rewritten, self.view_index_plan)
        recommend_maintenance_indexes(
            schema, self.views, workload.writes(), self.view_index_plan
        )

    def materialize(self, client: HBaseClient, catalog: Catalog) -> None:
        """Create every view table, then every view-index table."""
        for view in self.views:
            create_view_entry(client, catalog, view.name, view.relations)
        for spec in self.view_index_plan.specs:
            create_view_index_entry(
                client,
                catalog,
                catalog.view(spec.view.name),
                spec.indexed_on,
                name=spec.name,
                covered=(spec.reason == "read"),
            )
