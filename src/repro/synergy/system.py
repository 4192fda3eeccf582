"""SynergySystem façade: build + run the whole paper pipeline (Fig. 3).

Input: relational schema + workload + roots set. Output: a running
system with materialized views, view-indexes, lock tables and the
transaction layer, exposing ``execute`` (reads via rewritten queries
against views, writes via the lock-based transaction layer) and the
bookkeeping the experiments need (sizes, trees, selected views).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.config import ClusterConfig, DEFAULT_CLUSTER_CONFIG
from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.phoenix.catalog import Catalog
from repro.phoenix.ddl import (
    create_baseline_schema,
    create_view_entry,
    create_view_index_entry,
)
from repro.phoenix.executor import PhoenixConnection
from repro.phoenix.writes import WriteExecutor
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sql.ast import Select
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql
from repro.synergy.graph import build_schema_graph
from repro.synergy.heuristics import Heuristic, JoinOverlapHeuristic
from repro.synergy.locks import LockManager
from repro.synergy.maintenance import ViewMaintainer
from repro.synergy.procedures import StepHook, WriteProcedures
from repro.synergy.rewrite import RewriteResult, rewrite_query
from repro.synergy.selection import SelectionResult, select_views, select_views_for_query
from repro.synergy.trees import RootedTree, generate_rooted_trees
from repro.synergy.txlayer import PlanGenerator, SynergyTransactionLayer
from repro.synergy.view_indexes import (
    ViewIndexPlan,
    recommend_maintenance_indexes,
    recommend_read_indexes,
)
from repro.synergy.views import ViewDef, candidate_views_for_trees


class SynergySystem:
    """A fully wired Synergy deployment over the simulated cluster."""

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        roots: Sequence[str],
        sim: Simulation | None = None,
        cluster_config: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
        heuristic: Heuristic | None = None,
        num_tx_slaves: int = 1,
    ) -> None:
        self.schema = schema
        self.workload = workload
        self.roots = tuple(roots)
        self.sim = sim or Simulation(cost=cluster_config.cost)
        self.cluster = HBaseCluster(self.sim, cluster_config)
        self.client = HBaseClient(self.cluster)

        # 1. baseline transformation (Sec. II-D)
        self.catalog: Catalog = create_baseline_schema(self.client, schema)

        # 2. candidate views generation (Sec. V)
        self.graph = build_schema_graph(schema)
        self.heuristic = heuristic or JoinOverlapHeuristic(schema, workload)
        self.trees, self.assignment = generate_rooted_trees(
            self.graph, self.roots, self.heuristic
        )
        self.candidates = candidate_views_for_trees(self.trees)

        # 3. views selection + query re-writing (Sec. VI)
        self.selection: SelectionResult = select_views(
            workload, schema, self.trees, self.heuristic
        )
        self.views: list[ViewDef] = list(self.selection.final_views)
        for view in self.views:
            create_view_entry(self.client, self.catalog, view.name, view.relations)

        self.rewritten: dict[str, RewriteResult] = {}
        for stmt in workload:
            parsed = stmt.parsed
            if isinstance(parsed, Select):
                views = self.selection.per_query.get(stmt.statement_id, [])
                self.rewritten[stmt.statement_id] = rewrite_query(
                    parsed, schema, views
                )

        # 4. view-indexes (Sec. VI-C read indexes + Sec. VII-C maintenance)
        self.view_index_plan = ViewIndexPlan()
        recommend_read_indexes(schema, self.rewritten, self.view_index_plan)
        recommend_maintenance_indexes(
            schema, self.views, workload.writes(), self.view_index_plan
        )
        for spec in self.view_index_plan.specs:
            create_view_index_entry(
                self.client,
                self.catalog,
                self.catalog.view(spec.view.name),
                spec.indexed_on,
                name=spec.name,
                covered=(spec.reason == "read"),
            )

        # 5. concurrency control + transaction layer (Sec. VIII)
        self.locks = LockManager(
            self.client,
            {
                root: tuple(
                    schema.relation(root).dtype_of(a)
                    for a in schema.relation(root).primary_key
                )
                for root in self.roots
            },
        )
        self.locks.create_lock_tables()
        self.writer = WriteExecutor(self.client, self.catalog)
        self.maintainer = ViewMaintainer(self.client, self.catalog, self.views)
        self.procedures = WriteProcedures(
            schema, self.trees, self.assignment, self.writer,
            self.maintainer, self.locks,
        )
        self.plan_generator = PlanGenerator(self.catalog)
        self.txlayer = SynergyTransactionLayer(
            self.sim, self.plan_generator, self.procedures, num_tx_slaves
        )
        # reads: Phoenix with dirty-row restart, *no* MVCC (Tephra disabled)
        self.conn = PhoenixConnection(
            self.client, self.catalog, dirty_check_views=True,
            mvcc_version_check=False,
        )

        # executable statement text per workload id
        self.statements: dict[str, str] = {}
        for stmt in workload:
            if stmt.statement_id in self.rewritten:
                self.statements[stmt.statement_id] = to_sql(
                    self.rewritten[stmt.statement_id].select
                )
            else:
                self.statements[stmt.statement_id] = stmt.sql

    # -- data loading ------------------------------------------------------------------
    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        """Bulk-load one row: base table + indexes + applicable views,
        plus the lock-table entry for root relations. Load parents before
        children so view tuples can be constructed."""
        self.writer.insert_row(relation, row)
        self.maintainer.apply_insert(relation, row)
        if relation in self.trees:
            pk = self.schema.relation(relation).primary_key
            self.locks.register_root_row(relation, [row[a] for a in pk])

    def load_rows(self, relation: str, rows: Sequence[dict[str, Any]]) -> int:
        for row in rows:
            self.load_row(relation, row)
        return len(rows)

    def finish_load(self) -> None:
        """Major-compact everything (the paper compacts after population)."""
        self.cluster.major_compact()
        self.conn.analyze()
        self.sim.reset_clock()

    # -- execution ----------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        params: tuple[Any, ...] = (),
        on_step: StepHook | None = None,
    ) -> Any:
        stmt = parse_statement(sql)
        if isinstance(stmt, Select):
            return self.conn.execute_query(stmt, params)
        return self.txlayer.execute_write(sql, params, on_step)

    def execute_id(self, statement_id: str, params: tuple[Any, ...] = ()) -> Any:
        return self.execute(self.statements[statement_id], params)

    def timed(self, sql: str, params: tuple[Any, ...] = ()) -> tuple[Any, float]:
        """(result, response time in virtual ms) — the paper's tau."""
        sw = self.sim.stopwatch()
        result = self.execute(sql, params)
        return result, sw.stop()

    def rewrite_ad_hoc(self, sql: str) -> str:
        """Rewrite a query not in the design-time workload, using only the
        views that were actually materialized."""
        parsed = parse_statement(sql)
        if not isinstance(parsed, Select):
            return sql
        selected = select_views_for_query(
            parsed, self.schema, self.trees, self.heuristic
        )
        available = {v.relations for v in self.views}
        usable = [v for v in selected if v.relations in available]
        return to_sql(rewrite_query(parsed, self.schema, usable).select)

    # -- bookkeeping ----------------------------------------------------------------------
    def db_size_bytes(self) -> int:
        return self.cluster.total_size_bytes()

    def describe(self) -> str:
        lines = [f"Synergy system — roots {self.roots}"]
        for root, tree in self.trees.items():
            lines.append(tree.describe())
        lines.append("selected views:")
        for v in self.views:
            lines.append(f"  {v.display_name}")
        lines.append("view-indexes:")
        for s in self.view_index_plan.specs:
            lines.append(f"  {s.name} [{s.reason}]")
        return "\n".join(lines)
