"""The VoltDB-style system: partition schemes, support checking,
in-memory stored-procedure execution.

The paper uses three different partitioning schemes to cover the
maximum number of TPC-W joins (no single scheme supports even half);
queries whose joins are not partition-column equi-joins under the
active scheme are rejected. Q3, Q7, Q9 and Q10 are unsupported under
every scheme (Fig. 12).

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
from typing import Any, Iterator, Mapping

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
from repro.voltdb.table import VoltTable


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


class VoltDBSystem:
    """In-memory NewSQL engine with partition-restricted joins."""

    name = "VoltDB"

    def __init__(
        self,
        schema: Schema,
        sim: Simulation | None = None,
        scheme: PartitionScheme | None = None,
        num_partitions: int = 5,
    ) -> None:
        self.schema = schema
        self.sim = sim or Simulation()
        self.scheme = scheme or PartitionScheme("all-replicated", {})
        self.num_partitions = num_partitions
        self._composer = SelectComposer()
        self.tables: dict[str, VoltTable] = {
            rel.name: VoltTable(
                rel, self.sim.cost.voltdb_row_overhead_bytes
            )
            for rel in schema
        }
        # secondary indexes mirroring the base-table covered indexes
        for rel in schema:
            for idx in schema.indexes(rel.name):
                self.tables[rel.name].create_index(idx.indexed_on[0])
            for fk in rel.foreign_keys:
                self.tables[rel.name].create_index(fk.attributes[0])

    def set_scheme(self, scheme: PartitionScheme) -> None:
        """Re-partition (logically; the store itself is scheme-agnostic)."""
        self.scheme = scheme

    # -- loading -----------------------------------------------------------------
    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        self.tables[relation].insert(row)

    def db_size_bytes(self) -> int:
        total = 0
        for rel_name, table in self.tables.items():
            factor = (
                self.num_partitions if self.scheme.is_replicated(rel_name) else 1
            )
            total += table.size_bytes * factor
        return total

    # -- support check (the paper's join restriction) -------------------------------
    def check_supported(self, analyzed: AnalyzedSelect) -> None:
        for j in analyzed.joins:
            if not j.is_equi:
                continue
            lrel, rrel = j.left_relation, j.right_relation
            lcol = None if lrel is None else self.scheme.column_of(lrel)
            rcol = None if rrel is None else self.scheme.column_of(rrel)
            left_ok = lrel is None or lcol is None or j.left_attr == lcol
            right_ok = rrel is None or rcol is None or j.right_attr == rcol
            if not (left_ok and right_ok):
                raise UnsupportedStatementError(
                    f"{self.scheme.name}: join {j.left_relation}.{j.left_attr}"
                    f" = {j.right_relation}.{j.right_attr} is not on the "
                    "partitioning columns; partitioned tables can only be "
                    "joined on equality of partitioning column"
                )
        # a self-join of a partitioned table must also be on the
        # partition column on both sides — covered by the checks above.

    # -- execution -----------------------------------------------------------------
    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        stmt = parse_statement(sql)
        if isinstance(stmt, Select):
            return self.execute_select(analyze_select(stmt, self.schema), params)
        return self.execute_write(stmt, params)

    def timed(self, sql: str, params: tuple[Any, ...] = ()) -> tuple[Any, float]:
        sw = self.sim.stopwatch()
        result = self.execute(sql, params)
        return result, sw.stop()

    # -- write path -------------------------------------------------------------------
    def execute_write(self, stmt: Statement, params: tuple[Any, ...]) -> int:
        self.sim.charge(self.sim.cost.voltdb_proc_base_ms, "voltdb.proc")
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
        self._charge_rows(1)
        return int(ok)

    def _charge_rows(self, n: int) -> None:
        self.sim.charge(self.sim.cost.voltdb_row_ms * n, "voltdb.rows")

    # -- read path ---------------------------------------------------------------------
    def execute_select(
        self, analyzed: AnalyzedSelect, params: tuple[Any, ...]
    ) -> list[dict[str, Any]]:
        self.check_supported(analyzed)
        self.sim.charge(self.sim.cost.voltdb_proc_base_ms, "voltdb.proc")
        if next(self._routing_filters(analyzed), None) is None:
            self.sim.charge(self.sim.cost.voltdb_multipart_ms, "voltdb.multipart")
        host = _ProcedureHost()
        planned = self._plan_procedure(analyzed, params, host)
        rows = list(stream_rows(planned, ExecutionContext(host, params)))
        self._charge_rows(host.examined)
        return rows

    def _plan_procedure(
        self, analyzed: AnalyzedSelect, params: tuple[Any, ...], host: _ProcedureHost
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
                    self._derived_rows, binding, analyzed, params, host, attrs
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
        binding: str,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
        host: _ProcedureHost,
        attrs: tuple[str, ...],
    ) -> list[Row]:
        """A derived table is a nested procedure, charged as its own;
        its rows are tuples of the ``attrs`` it returns."""
        rows = self.execute_select(analyzed.derived[binding], params)
        host.examined += len(rows)
        return list(map(tuple_getter(attrs), rows))

    # -- routing ---------------------------------------------------------------------
    def select_partitions(
        self, analyzed: AnalyzedSelect, params: tuple[Any, ...]
    ) -> tuple[int, ...]:
        """The partition executor sites a SELECT procedure occupies
        under the active scheme: the one routed partition when it is
        single-partition, every site otherwise."""
        for f in self._routing_filters(analyzed):
            if isinstance(f.value, (Literal, Param)):
                return (self._partition_of(eval_const(f.value, params)),)
        return tuple(range(self.num_partitions))

    def write_partitions(
        self, stmt: Statement, params: tuple[Any, ...]
    ) -> tuple[int, ...]:
        """The sites a write occupies: the one routed partition, or every
        site for a replicated table (the write runs on all replicas)."""
        if isinstance(stmt, Insert):
            columns = stmt.columns or self.tables[stmt.table].attrs
            bound = dict(zip(columns, stmt.values))
        else:
            bound = constant_equalities(stmt.where)
        pcol = self.scheme.column_of(stmt.table)
        if pcol in bound:
            return (self._partition_of(eval_const(bound[pcol], params)),)
        return tuple(range(self.num_partitions))

    def _routing_filters(self, analyzed: AnalyzedSelect) -> Iterator[FilterCondition]:
        """The equality filters on a partitioned table's partitioning
        column. With one, a SELECT procedure is single-partition;
        without, it fans out to every partition executor."""
        for f in analyzed.filters:
            if (
                f.op == "=" and f.relation is not None
                and self.scheme.column_of(f.relation) == f.attr
            ):
                yield f

    def _partition_of(self, value: Any) -> int:
        """Deterministic routing hash (``hash()`` is salted per process,
        which would break byte-identical benchmark reruns)."""
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.num_partitions
        return zlib.crc32(repr(value).encode()) % self.num_partitions
