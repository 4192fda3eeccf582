"""PhoenixConnection: the JDBC-ish entry point.

``execute_query`` plans + runs a SELECT and returns plain dict rows;
``writer`` (a :class:`~repro.phoenix.writes.WriteExecutor`) applies
INSERT/UPDATE/DELETE plans with index maintenance. Dirty-row restarts (Synergy read-committed, paper Sec. VIII-C) are
handled here: a scan observing a marked view row restarts the query.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import DirtyReadRestart, PlanError, ReproError
from repro.hbase.client import HBaseClient
from repro.phoenix.catalog import Catalog
from repro.phoenix.operators import compile_plan
from repro.phoenix.planner import CostBasedPlanner, PlannedQuery, Planner
from repro.phoenix.plans import ExecutionContext
from repro.phoenix.stats import charge_operator_work
from repro.phoenix.writes import WriteExecutor
from repro.sim.latency import LatencyCharger
from repro.sql.ast import Select, Statement
from repro.sql.parser import parse_statement

MAX_DIRTY_RESTARTS = 32


def _statement(stmt: Statement | str) -> Statement:
    """A connection is a front door: its methods take statement text
    or, from callers that already parsed it, the AST."""
    return parse_statement(stmt) if isinstance(stmt, str) else stmt


def stream_rows(
    planned: PlannedQuery, ctx: ExecutionContext
) -> Iterator[dict[str, Any]]:
    """The one open/pull/close loop over the operators: compiles
    ``planned``, yields its shaped output rows, and closes the tree on
    exhaustion, on error *and* when the consumer abandons the iterator — so in-flight scans (LIMIT early-close, dirty restarts,
    dropped cursors) settle their batch charges and release their
    region windows deterministically."""
    op = compile_plan(planned.root)
    op.open(ctx)
    shape = planned.shape
    try:
        while True:
            batch = op.next_batch()
            if batch is None:
                return
            yield from map(shape, batch)
    finally:
        op.close()


class PhoenixConnection:
    """One client connection: SQL in, rows (and virtual latency) out."""

    def __init__(
        self,
        client: HBaseClient,
        catalog: Catalog,
        dirty_check_views: bool = False,
        mvcc_version_check: bool = False,
    ) -> None:
        self.client = client
        self.catalog = catalog
        self.sim = client.cluster.sim
        self.charge = LatencyCharger(self.sim, "phoenix")
        self.dirty_check_views = dirty_check_views
        # Every connection starts on the rule-based planner that the
        # Fig. 10-14 / Table 2 plan shapes are anchored to; the
        # cost-based one is opted into through configure_engine().
        self.cost_based = False
        self.planner = self._build_planner(False)
        self.writer = WriteExecutor(client, catalog)
        self.mvcc_version_check = mvcc_version_check

    def _build_planner(self, cost_based: bool) -> Planner:
        if cost_based:
            return CostBasedPlanner(
                self.catalog,
                dirty_check_views=self.dirty_check_views,
                cluster=self.client.cluster,
                cost=self.client.cluster.sim.cost,
            )
        return Planner(self.catalog, dirty_check_views=self.dirty_check_views)

    def configure_engine(self, cost_based: bool) -> None:
        """Switch planner mode on a live connection."""
        if cost_based != self.cost_based:
            self.cost_based = cost_based
            self.planner = self._build_planner(cost_based)

    def operator_work(self, kind: str, rows: int) -> None:
        """The operators' host: Phoenix's price list on this cluster."""
        charge_operator_work(
            self.charge, len(self.client.cluster.servers), kind, rows
        )

    # -- queries -----------------------------------------------------------------------
    def plan(self, select: Select | str) -> PlannedQuery:
        """Always a fresh plan: the cost-based planner reads live table
        statistics and region sizes, so a kept plan would go stale."""
        stmt = _statement(select)
        if not isinstance(stmt, Select):
            raise PlanError("plan() expects a SELECT statement")
        return self.planner.plan_select(stmt)

    def execute_query(
        self, select: Select | str, params: tuple[Any, ...] = ()
    ) -> list[dict[str, Any]]:
        planned = self.plan(select)
        self.sim.charge("phoenix.statement", "phoenix_statement_ms", 1)
        ctx = ExecutionContext(self, tuple(params))
        attempts = 0
        while True:
            try:
                return list(stream_rows(planned, ctx))
            except DirtyReadRestart:
                attempts += 1
                self.sim.metrics.counter("phoenix.dirty_restarts").inc()
                if attempts >= MAX_DIRTY_RESTARTS:
                    raise ReproError(
                        "query kept observing in-flight view rows "
                        f"after {attempts} restarts"
                    ) from None

    # -- writes ------------------------------------------------------------------------
    # -- statistics ---------------------------------------------------------------------
    def analyze(self) -> None:
        """Refresh row-count statistics for every catalog entry."""
        for entry in self.catalog.entries():
            if self.client.has_table(entry.name):
                self.catalog.stats[entry.name] = self.client.cluster.table_row_count(
                    entry.name
                )
