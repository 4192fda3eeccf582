"""The VoltDB-style system: partition schemes, support checking,
in-memory stored-procedure execution.

The paper uses three different partitioning schemes to cover the
maximum number of TPC-W joins (no single scheme supports even half).
Each statement picks its scheme and passes it down; the system keeps
none active. A SELECT runs under the first scheme whose partitioning
admits its joins and its derived tables', a write under the primary one.
A SELECT that no scheme admits is refused: Q3, Q7, Q9 and Q10 report
``supports() == False`` and show as X in Fig. 12.

What is VoltDB's own here is the scheme check, the partition routing
and the arithmetic charge (a procedure base, a multi-partition
surcharge, ``voltdb_row_ms`` per row a procedure touches). The body of a
SELECT procedure is a plan like every other system's: composed by
:class:`~repro.phoenix.planner.SelectComposer` over one in-memory
:class:`~repro.phoenix.plans.SourceNode` per FROM binding and run by
the shared operators, on a host that prices nothing and counts rows."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from repro.errors import PlanError, UnsupportedStatementError
from repro.phoenix.executor import stream_rows
from repro.phoenix.planner import PlannedQuery, SelectComposer
from repro.phoenix.plans import (
    JOIN_OUTPUT,
    ExecutionContext,
    FilterNode,
    PlanNode,
    Row,
    SourceNode,
    ValuePredicate,
    tuple_getter,
)
from repro.phoenix.writes import compile_write, constant_equalities, eval_const
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sql.analyzer import AnalyzedSelect, FilterCondition, analyze_select
from repro.sql.ast import (
    ColumnRef,
    Delete,
    Insert,
    Literal,
    Param,
    Select,
    Statement,
    Update,
)
from repro.sql.parser import parse_statement
from repro.systems.base import EvaluatedSystem, SystemDescription
from repro.voltdb.table import VoltTable

#: Partition executor sites; a partitioning value hashes onto one.
NUM_PARTITIONS = 5


class _ProcedureHost:
    """The operators' host inside one stored procedure: nothing is
    priced while they run; leaves and joins add the rows they touch to
    ``examined``, which the procedure charges for once at its end."""

    def __init__(self) -> None:
        self.examined = 0

    def operator_work(self, kind: str, rows: int) -> None:
        if kind == JOIN_OUTPUT:
            self.examined += rows


def _is_access_filter(f: FilterCondition) -> bool:
    """A ``base_table.attr = constant`` filter: applied at the leaf."""
    return (
        f.op == "=" and f.relation is not None
        and isinstance(f.value, (Literal, Param))
    )


@dataclass(frozen=True)
class PartitionScheme:
    """relation -> partitioning column; absent relations are replicated."""

    name: str
    partition_columns: Mapping[str, str]

    def column_of(self, relation: str) -> str | None:
        return self.partition_columns.get(relation)

    def is_replicated(self, relation: str) -> bool:
        return relation not in self.partition_columns

    def admits(self, analyzed: AnalyzedSelect) -> bool:
        """The paper's join restriction: every equi-join side on a
        partitioned table joins on its partitioning column (a replicated
        table or a derived table joins on anything), and every derived
        table, which runs under the same scheme, is admitted too."""
        return all(
            self._colocated(j.left_relation, j.left_attr)
            and self._colocated(j.right_relation, j.right_attr)
            for j in analyzed.equi_joins()
        ) and all(self.admits(d) for d in analyzed.derived.values())

    def _colocated(self, relation: str | None, attr: str) -> bool:
        column = None if relation is None else self.column_of(relation)
        return column is None or attr == column


#: The three TPC-W schemes (Sec. IX-D2); each supports a different join
#: subset, and together they cover Q1, Q2, Q4, Q5, Q6, Q8, Q11.
TPCW_SCHEMES = (
    PartitionScheme(
        "scheme1",
        {
            "Customer": "c_id",
            "Orders": "o_c_id",
            "Item": "i_id",
            "Order_line": "ol_i_id",
            "Shopping_cart_line": "scl_i_id",
            "Address": "addr_id",
            "CC_Xacts": "cx_o_id",
            "Shopping_cart": "sc_id",
        },
    ),
    PartitionScheme(
        "scheme2",
        {
            "Orders": "o_id",
            "Order_line": "ol_o_id",
            "CC_Xacts": "cx_o_id",
            "Customer": "c_id",
            "Item": "i_id",
            "Address": "addr_id",
            "Shopping_cart": "sc_id",
            "Shopping_cart_line": "scl_sc_id",
        },
    ),
    PartitionScheme(
        "scheme3",
        {
            "Author": "a_id",
            "Item": "i_a_id",
            "Customer": "c_id",
            "Orders": "o_c_id",
            "Order_line": "ol_o_id",
            "Address": "addr_id",
            "Shopping_cart": "sc_id",
            "Shopping_cart_line": "scl_sc_id",
        },
    ),
)


class VoltDBSystem(EvaluatedSystem):
    """In-memory NewSQL engine with partition-restricted joins."""

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
    ) -> None:
        self.schema = schema
        self._sim = sim or Simulation()
        self.schemes = TPCW_SCHEMES
        self._statements = {s.statement_id: s.sql for s in workload}
        self._composer = SelectComposer()
        self.tables: dict[str, VoltTable] = {
            rel.name: VoltTable(
                rel, self._sim.cost.voltdb_row_overhead_bytes
            )
            for rel in schema
        }
        # secondary indexes mirroring the base-table covered indexes
        for rel in schema:
            for idx in schema.indexes(rel.name):
                self.tables[rel.name].create_index(idx.indexed_on[0])
            for fk in rel.foreign_keys:
                self.tables[rel.name].create_index(fk.attributes[0])

    @property
    def sim(self) -> Simulation:
        return self._sim

    def statement(self, statement_id: str) -> str:
        return self._statements[statement_id]

    # -- loading -----------------------------------------------------------------
    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        self.tables[relation].insert(row)

    def finish_load(self) -> None:
        self._sim.reset_clock()

    def db_size_bytes(self) -> int:
        """Every table once, a replicated one on every site: replicas
        are counted under the primary scheme."""
        primary = self.schemes[0]
        return sum(
            table.size_bytes
            * (NUM_PARTITIONS if primary.is_replicated(name) else 1)
            for name, table in self.tables.items()
        )

    # -- support check (the paper's join restriction) -------------------------------
    def scheme_for(self, analyzed: AnalyzedSelect) -> PartitionScheme | None:
        """The first scheme admitting the SELECT's joins and those of
        every derived table in it."""
        return next((s for s in self.schemes if s.admits(analyzed)), None)

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
            return self.scheme_for(analyze_select(stmt, self.schema)) is not None
        table = self.tables.get(stmt.table)
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

    # -- execution -----------------------------------------------------------------
    def read(self, select: Select, params: tuple[Any, ...]) -> Any:
        """Analyse once, pick the scheme, run the procedure under it."""
        analyzed = analyze_select(select, self.schema)
        scheme = self.scheme_for(analyzed)
        if scheme is None:
            raise UnsupportedStatementError(
                "query joins are not supported under any partitioning scheme"
            )
        return self._queued(
            lambda: self.select_partitions(analyzed, params, scheme),
            lambda: self._select_procedure(analyzed, params, scheme),
        )

    def write(self, stmt: Statement, params: tuple[Any, ...]) -> Any:
        scheme = self.schemes[0]
        return self._queued(
            lambda: self.write_partitions(stmt, params, scheme),
            lambda: self._write_procedure(stmt, params),
        )

    def _queued(
        self, partitions: Callable[[], tuple[int, ...]], procedure: Callable[[], Any]
    ) -> Any:
        """Each partition executor site is single-threaded, so under
        multi-client scheduling the procedure first queues until every
        site it is routed to (one for a single-partition procedure, all
        of them for multi-partition reads and replicated-table writes)
        is free in virtual time."""
        sim = self._sim
        ctx = sim.concurrency
        if ctx is None:
            return procedure()
        sites = [(self, p) for p in partitions()]
        ctx.serial_enter(sites, sim, "voltdb.queue_wait")
        result = procedure()
        ctx.serial_exit(sites, sim)
        return result

    # -- write path -------------------------------------------------------------------
    def _write_procedure(self, stmt: Statement, params: tuple[Any, ...]) -> int:
        self._sim.charge("voltdb.proc", "voltdb_proc_base_ms", 1)
        if not isinstance(stmt, (Insert, Update, Delete)):
            raise PlanError(f"unsupported statement: {stmt}")
        table = self.tables[stmt.table]
        plan = compile_write(table, stmt, params)
        if plan.kind == "insert":
            table.insert(plan.row)
            ok = True
        else:
            key = tuple(plan.key[a] for a in table.key_attrs)
            if plan.kind == "update":
                ok = table.update(key, plan.changes)
            else:
                ok = table.delete(key)
        self._sim.charge("voltdb.rows", "voltdb_row_ms", 1)
        return int(ok)

    # -- read path ---------------------------------------------------------------------
    def _select_procedure(
        self,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
        scheme: PartitionScheme,
    ) -> list[dict[str, Any]]:
        sim = self._sim
        sim.charge("voltdb.proc", "voltdb_proc_base_ms", 1)
        if next(self._routing_filters(analyzed, scheme), None) is None:
            sim.charge("voltdb.multipart", "voltdb_multipart_ms", 1)
        host = _ProcedureHost()
        planned = self._plan_procedure(analyzed, params, scheme, host)
        rows = list(stream_rows(planned, ExecutionContext(host, params)))
        sim.charge("voltdb.rows", "voltdb_row_ms", host.examined)
        return rows

    def _plan_procedure(
        self,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
        scheme: PartitionScheme,
        host: _ProcedureHost,
    ) -> PlannedQuery:
        """The procedure body: one leaf per FROM binding, hash-joined in
        FROM order; base-table filters no leaf applies run above the
        joins, so every join's intermediate size is charged."""
        composer = self._composer
        needed = composer.needed_attrs(analyzed)
        leaves: dict[str, PlanNode] = {}
        for binding, relation in analyzed.bindings.items():
            wanted = needed[binding]  # None for a derived table: every column
            names = analyzed.attrs[binding] or ()
            attrs = tuple(a for a in names if wanted is None or a in wanted)
            if relation is None:
                fetch = partial(
                    self._derived_rows,
                    analyzed.derived[binding], params, scheme, host, attrs,
                )
            else:
                table = self.tables[relation]
                eq = [
                    (f.attr, eval_const(f.value, params))
                    for f in analyzed.filters_on(binding)
                    if _is_access_filter(f)
                ]
                fetch = partial(self._table_rows, table, eq, attrs, host)
            leaves[binding] = SourceNode(
                fetch, f"VOLTDB {binding}", tuple((binding, a) for a in attrs)
            )
        plan, consumed = composer.join_in_from_order(
            analyzed, leaves, composer.hash_join
        )
        late = tuple(
            ValuePredicate(f.binding, f.attr, f.op, f.value)  # type: ignore[arg-type]
            for f in analyzed.filters
            if f.relation is not None
            and not isinstance(f.value, ColumnRef)
            and not _is_access_filter(f)
        )
        if late:
            plan = FilterNode(plan, late)
        plan = composer.residual_filter(plan, analyzed, consumed)
        return composer.finish(plan, analyzed)

    @staticmethod
    def _table_rows(
        table: VoltTable,
        eq: list[tuple[str, Any]],
        attrs: tuple[str, ...],
        host: _ProcedureHost,
    ) -> list[Row]:
        """The rows of ``table`` that pass every equality in ``eq``,
        reached through an index on the first one when there is one, as
        tuples of their ``attrs``; every candidate read counts as
        examined. An equality with NULL matches nothing, so nothing is
        read."""
        if any(v is None for _, v in eq):
            return []
        if eq and table.has_index(eq[0][0]):
            candidates = list(table.lookup(*eq[0]))
        else:
            candidates = list(table.scan())
        host.examined += len(candidates)
        if eq:
            candidates = [
                raw for raw in candidates if all(raw.get(a) == v for a, v in eq)
            ]
        return list(map(tuple_getter(attrs), candidates))

    def _derived_rows(
        self,
        derived: AnalyzedSelect,
        params: tuple[Any, ...],
        scheme: PartitionScheme,
        host: _ProcedureHost,
        attrs: tuple[str, ...],
    ) -> list[Row]:
        """A derived table is a nested procedure under the outer
        statement's scheme (which admits it), charged as its own; its
        rows are tuples of the ``attrs`` it returns."""
        rows = self._select_procedure(derived, params, scheme)
        host.examined += len(rows)
        return list(map(tuple_getter(attrs), rows))

    # -- routing ---------------------------------------------------------------------
    def select_partitions(
        self,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
        scheme: PartitionScheme,
    ) -> tuple[int, ...]:
        """The partition executor sites a SELECT procedure occupies
        under ``scheme``: the one routed partition when it is
        single-partition, every site otherwise."""
        for f in self._routing_filters(analyzed, scheme):
            if isinstance(f.value, (Literal, Param)):
                return (_partition_of(eval_const(f.value, params)),)
        return tuple(range(NUM_PARTITIONS))

    def write_partitions(
        self, stmt: Statement, params: tuple[Any, ...], scheme: PartitionScheme
    ) -> tuple[int, ...]:
        """The sites a write occupies: the one routed partition, or every
        site for a replicated table (the write runs on all replicas)."""
        if isinstance(stmt, Insert):
            columns = stmt.columns or self.tables[stmt.table].attrs
            bound = dict(zip(columns, stmt.values))
        else:
            bound = constant_equalities(stmt.where)
        pcol = scheme.column_of(stmt.table)
        if pcol in bound:
            return (_partition_of(eval_const(bound[pcol], params)),)
        return tuple(range(NUM_PARTITIONS))

    @staticmethod
    def _routing_filters(
        analyzed: AnalyzedSelect, scheme: PartitionScheme
    ) -> Iterator[FilterCondition]:
        """The equality filters on a partitioned table's partitioning
        column. With one, a SELECT procedure is single-partition;
        without, it fans out to every partition executor."""
        for f in analyzed.filters:
            if (
                f.op == "=" and f.relation is not None
                and scheme.column_of(f.relation) == f.attr
            ):
                yield f


def _partition_of(value: Any) -> int:
    """Deterministic routing hash (``hash()`` is salted per process,
    which would break byte-identical benchmark reruns)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value % NUM_PARTITIONS
    return zlib.crc32(repr(value).encode()) % NUM_PARTITIONS
