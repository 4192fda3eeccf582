"""MVCC-UA: tuning-advisor (schema-relationships-unaware) views + Tephra
MVCC (paper Sec. IX-D2). On the TPC-W workload the advisor's storage
budget admits a single narrow view — the best-seller chain used by Q10 —
mirroring the paper's observation that the SQL Server tuning advisor
produced one materialized view, used only by Q10."""

from __future__ import annotations

from repro.errors import ViewSelectionError
from repro.hbase.client import HBaseClient
from repro.phoenix.catalog import Catalog
from repro.phoenix.ddl import create_view_entry, create_view_index_entry
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sql.analyzer import analyze_select
from repro.sql.ast import Select
from repro.synergy.rewrite import rewrite_query
from repro.systems.advisor import AdvisorCandidate, TuningAdvisor
from repro.systems.base import SystemDescription
from repro.systems.mvcc_base import MvccSystemBase


class AdvisorDesign:
    """The advisor's recommended views, the rewrite of each view's
    source queries over it (everything else runs against base tables)
    and a read index per filter attribute of those queries."""

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        row_estimates: dict[str, int],
    ) -> None:
        self.schema = schema
        self.workload = workload
        self.recommendations: list[AdvisorCandidate] = TuningAdvisor(
            schema, workload, row_estimates
        ).recommend()
        self.views = [c.view for c in self.recommendations]

        view_by_query: dict[str, AdvisorCandidate] = {}
        for cand in self.recommendations:
            for qid in cand.source_queries:
                view_by_query[qid] = cand
        self.statements: dict[str, str] = {}
        for stmt in workload:
            sql = stmt.sql
            cand = view_by_query.get(stmt.statement_id)
            if cand is not None and isinstance(stmt.parsed, Select):
                try:
                    sql = str(
                        rewrite_query(stmt.parsed, schema, [cand.view]).select
                    )
                except ViewSelectionError:
                    pass  # view does not fit this query shape
            self.statements[stmt.statement_id] = sql

    def materialize(self, client: HBaseClient, catalog: Catalog) -> None:
        """Create every (narrow) view table, then the read indexes."""
        for cand in self.recommendations:
            create_view_entry(
                client,
                catalog,
                cand.view.name,
                cand.view.relations,
                attributes=cand.attributes,
            )
        for cand in self.recommendations:
            entry = catalog.view(cand.view.name)
            for qid in cand.source_queries:
                parsed = self.workload.by_id(qid).parsed
                if not isinstance(parsed, Select):
                    continue
                for f in analyze_select(parsed, self.schema).filters:
                    if (
                        f.relation in cand.view.relations
                        and f.attr in entry.attrs
                        and f.attr != entry.key_attrs[0]
                    ):
                        name = f"{entry.name}.ix_{f.attr}"
                        if not catalog.has_entry(name):
                            create_view_index_entry(
                                client, catalog, entry, (f.attr,), name=name
                            )


class MvccUASystem(MvccSystemBase):
    description = SystemDescription(
        name="MVCC-UA",
        mv_selection="Schema relationships un-aware",
        concurrency_control="MVCC",
    )

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        row_estimates: dict[str, int],
        sim: Simulation | None = None,
    ) -> None:
        design = AdvisorDesign(schema, workload, row_estimates)
        super().__init__(schema, design, sim)
        self.recommendations = design.recommendations
