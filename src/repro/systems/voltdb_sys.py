"""VoltDB wrapped in the evaluated-system interface.

Per the paper, three partitioning schemes are needed to support the
maximum number of TPC-W joins; :meth:`read`/:meth:`supports_sql`
pick the first scheme that admits a query, and writes run under the
primary scheme. Queries unsupported under every scheme report
``supports() == False`` and show as X in Fig. 12."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import UnsupportedStatementError
from repro.phoenix.writes import constant_equalities
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sql.analyzer import AnalyzedSelect, analyze_select
from repro.sql.ast import Insert, Select, Statement
from repro.sql.parser import parse_statement
from repro.systems.base import EvaluatedSystem, SystemDescription, run_statement
from repro.voltdb.system import PartitionScheme, TPCW_SCHEMES, VoltDBSystem


class VoltDBEvaluatedSystem(EvaluatedSystem):
    description = SystemDescription(
        name="VoltDB",
        mv_selection="None",
        concurrency_control="Single-threaded partition processing",
    )

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        sim: Simulation | None = None,
        schemes: Sequence[PartitionScheme] = TPCW_SCHEMES,
        num_partitions: int = 5,
    ) -> None:
        self.schemes = tuple(schemes)
        self.engine = VoltDBSystem(
            schema, sim, self.schemes[0], num_partitions
        )
        self._statements = {s.statement_id: s.sql for s in workload}

    @property
    def sim(self) -> Simulation:
        return self.engine.sim

    def statement(self, statement_id: str) -> str:
        return self._statements[statement_id]

    def scheme_for(self, analyzed: AnalyzedSelect) -> PartitionScheme | None:
        """The first scheme admitting the SELECT's joins (left active)."""
        for scheme in self.schemes:
            self.engine.set_scheme(scheme)
            try:
                self.engine.check_supported(analyzed)
                return scheme
            except UnsupportedStatementError:
                continue
        return None

    def supports(self, statement_id: str) -> bool:
        sql = self._statements.get(statement_id)
        return sql is not None and self.supports_sql(sql)

    def supports_sql(self, sql: str) -> bool:
        """A SELECT needs a scheme that admits its joins. A write runs
        under the primary scheme, but the procedure layer can only route
        one that binds the full primary key: an INSERT providing every
        key attribute, an UPDATE/DELETE of ``key = constant`` conjuncts
        — claiming support for anything else fails at ``execute()``."""
        stmt = parse_statement(sql)
        if isinstance(stmt, Select):
            analyzed = analyze_select(stmt, self.engine.schema)
            return self.scheme_for(analyzed) is not None
        table = self.engine.tables.get(stmt.table)
        if table is None:
            return False
        if isinstance(stmt, Insert):
            bound: Any = stmt.columns or table.attrs
        else:
            try:
                bound = constant_equalities(stmt.where)
            except UnsupportedStatementError:
                return False
        return all(a in bound for a in table.key_attrs)

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        return run_statement(self, sql, params)

    def read(self, select: Select, params: tuple[Any, ...]) -> Any:
        """Analyse once, pick the scheme, run the procedure."""
        engine = self.engine
        analyzed = analyze_select(select, engine.schema)
        if self.scheme_for(analyzed) is None:
            raise UnsupportedStatementError(
                "query joins are not supported under any partitioning scheme"
            )
        return self._queued(
            lambda: engine.select_partitions(analyzed, params),
            lambda: engine.execute_select(analyzed, params),
        )

    def write(self, stmt: Statement, params: tuple[Any, ...]) -> Any:
        engine = self.engine
        engine.set_scheme(self.schemes[0])
        return self._queued(
            lambda: engine.write_partitions(stmt, params),
            lambda: engine.execute_write(stmt, params),
        )

    def _queued(
        self, partitions: Callable[[], tuple[int, ...]], procedure: Callable[[], Any]
    ) -> Any:
        """Each partition executor site is single-threaded, so under
        multi-client scheduling the procedure first queues until every
        site it is routed to (one for a single-partition procedure, all
        of them for multi-partition reads and replicated-table writes)
        is free in virtual time."""
        sim = self.sim
        ctx = sim.concurrency
        if ctx is None:
            return procedure()
        sites = [(self.engine, p) for p in partitions()]
        ctx.serial_enter(sites, sim, "voltdb.queue_wait")
        result = procedure()
        ctx.serial_exit(sites, sim)
        return result

    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        self.engine.load_row(relation, row)

    def finish_load(self) -> None:
        self.engine.set_scheme(self.schemes[0])
        self.sim.reset_clock()

    def db_size_bytes(self) -> int:
        return self.engine.db_size_bytes()
