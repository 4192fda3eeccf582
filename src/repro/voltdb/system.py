"""The VoltDB-style system: partition schemes, support checking,
in-memory stored-procedure execution.

The paper uses three different partitioning schemes to cover the
maximum number of TPC-W joins (no single scheme supports even half);
queries whose joins are not partition-column equi-joins under the
active scheme are rejected. Q3, Q7, Q9 and Q10 are unsupported under
every scheme (Fig. 12)."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.errors import PlanError, UnsupportedStatementError
from repro.relational.schema import Schema
from repro.sim.clock import Simulation
from repro.sql.analyzer import AnalyzedSelect, analyze_select
from repro.sql.ast import (
    ColumnRef,
    Delete,
    DerivedTable,
    FuncCall,
    Insert,
    Literal,
    Param,
    Select,
    Star,
    Statement,
    Update,
)
from repro.sql.parser import parse_statement
from repro.voltdb.table import VoltTable

Row = dict[tuple[str, str], Any]


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
    def check_supported(
        self, select: Select, analyzed: AnalyzedSelect | None = None
    ) -> None:
        if analyzed is None:
            analyzed = analyze_select(select, self.schema)
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

    def supports(self, sql: str) -> bool:
        stmt = parse_statement(sql)
        if not isinstance(stmt, Select):
            return True
        try:
            self.check_supported(stmt)
            return True
        except UnsupportedStatementError:
            return False

    def supported_under_any(self, sql: str, schemes=TPCW_SCHEMES) -> bool:
        old = self.scheme
        try:
            for scheme in schemes:
                self.scheme = scheme
                if self.supports(sql):
                    return True
            return False
        finally:
            self.scheme = old

    # -- execution -----------------------------------------------------------------
    def execute(
        self,
        sql: str,
        params: tuple[Any, ...] = (),
        stmt: Statement | None = None,
        analyzed: AnalyzedSelect | None = None,
    ) -> Any:
        if stmt is None:
            stmt = parse_statement(sql)
        if isinstance(stmt, Select):
            return self._execute_select(stmt, params, analyzed)
        return self._execute_write(stmt, params)

    def timed(self, sql: str, params: tuple[Any, ...] = ()) -> tuple[Any, float]:
        sw = self.sim.stopwatch()
        result = self.execute(sql, params)
        return result, sw.stop()

    # -- write path -------------------------------------------------------------------
    def _execute_write(self, stmt: Statement, params: tuple[Any, ...]) -> int:
        self.sim.charge(self.sim.cost.voltdb_proc_base_ms, "voltdb.proc")
        if isinstance(stmt, Insert):
            columns = stmt.columns or self.tables[stmt.table].relation.attribute_names
            row = {
                c: self._const(v, params) for c, v in zip(columns, stmt.values)
            }
            self.tables[stmt.table].insert(row)
            self._charge_rows(1)
            return 1
        if isinstance(stmt, Update):
            key = self._key_from_where(stmt.table, stmt.where, params)
            changes = {
                c: self._const(v, params) for c, v in stmt.assignments
            }
            ok = self.tables[stmt.table].update(key, changes)
            self._charge_rows(1)
            return int(ok)
        if isinstance(stmt, Delete):
            key = self._key_from_where(stmt.table, stmt.where, params)
            ok = self.tables[stmt.table].delete(key)
            self._charge_rows(1)
            return int(ok)
        raise PlanError(f"unsupported statement: {stmt}")

    def _key_from_where(self, relation: str, where, params) -> tuple:
        eq: dict[str, Any] = {}
        for cond in where:
            col = cond.left if isinstance(cond.left, ColumnRef) else cond.right
            val = cond.right if isinstance(cond.left, ColumnRef) else cond.left
            if not isinstance(col, ColumnRef) or cond.op != "=":
                raise UnsupportedStatementError(
                    f"write WHERE must be key equality: {cond}"
                )
            eq[col.name] = self._const(val, params)
        table = self.tables[relation]
        missing = [a for a in table.key_attrs if a not in eq]
        if missing:
            raise UnsupportedStatementError(
                f"{relation}: write must bind all key attributes; missing {missing}"
            )
        return tuple(eq[a] for a in table.key_attrs)

    @staticmethod
    def _const(expr, params):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Param):
            return params[expr.index]
        raise UnsupportedStatementError(f"non-constant value: {expr}")

    def _charge_rows(self, n: int) -> None:
        self.sim.charge(self.sim.cost.voltdb_row_ms * n, "voltdb.rows")

    # -- read path ---------------------------------------------------------------------
    def _execute_select(
        self,
        select: Select,
        params: tuple[Any, ...],
        analyzed: AnalyzedSelect | None = None,
    ) -> list[dict[str, Any]]:
        if analyzed is None:
            analyzed = analyze_select(select, self.schema)
        self.check_supported(select, analyzed)
        self.sim.charge(self.sim.cost.voltdb_proc_base_ms, "voltdb.proc")
        if self._is_multipartition(select, analyzed):
            self.sim.charge(self.sim.cost.voltdb_multipart_ms, "voltdb.multipart")
        rows, examined = self._join_rows(select, analyzed, params)
        self._charge_rows(examined)
        return self._finalize(select, analyzed, rows, params)

    # -- routing ---------------------------------------------------------------------
    def partitions_for(
        self,
        stmt: Statement,
        params: tuple[Any, ...],
        analyzed: AnalyzedSelect | None = None,
    ) -> tuple[int, ...]:
        """The partition executor sites a procedure occupies under the
        active scheme: one routed partition for single-partition
        procedures, every site for multi-partition reads and for writes
        to replicated tables (which run on all replicas)."""
        every = tuple(range(self.num_partitions))
        if isinstance(stmt, Select):
            if analyzed is None:
                analyzed = analyze_select(stmt, self.schema)
            for f_ in analyzed.filters:
                if f_.op != "=" or f_.relation is None:
                    continue
                if self.scheme.column_of(f_.relation) != f_.attr:
                    continue
                if isinstance(f_.value, (Literal, Param)):
                    return (self._partition_of(self._const(f_.value, params)),)
            return every
        if isinstance(stmt, Insert):
            pcol = self.scheme.column_of(stmt.table)
            if pcol is None:
                return every
            columns = stmt.columns or self.tables[stmt.table].relation.attribute_names
            for c, v in zip(columns, stmt.values):
                if c == pcol:
                    return (self._partition_of(self._const(v, params)),)
            return every
        if isinstance(stmt, (Update, Delete)):
            pcol = self.scheme.column_of(stmt.table)
            if pcol is None:
                return every
            for cond in stmt.where:
                col = cond.left if isinstance(cond.left, ColumnRef) else cond.right
                val = cond.right if isinstance(cond.left, ColumnRef) else cond.left
                if (
                    isinstance(col, ColumnRef) and cond.op == "="
                    and col.name == pcol and isinstance(val, (Literal, Param))
                ):
                    return (self._partition_of(self._const(val, params)),)
            return every
        return every

    def _partition_of(self, value: Any) -> int:
        """Deterministic routing hash (``hash()`` is salted per process,
        which would break byte-identical benchmark reruns)."""
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.num_partitions
        return zlib.crc32(repr(value).encode()) % self.num_partitions

    def _is_multipartition(self, select: Select, analyzed: AnalyzedSelect) -> bool:
        """Single-partition iff some partitioned table has an equality
        filter on its partitioning column (routing key); else the
        procedure fans out to every partition executor."""
        for f_ in analyzed.filters:
            if f_.op != "=" or f_.relation is None:
                continue
            if self.scheme.column_of(f_.relation) == f_.attr:
                return False
        return True

    # in-memory evaluation ---------------------------------------------------------
    def _join_rows(
        self,
        select: Select,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
    ) -> tuple[list[Row], int]:
        examined = 0
        # derived tables first
        materialized: dict[str, list[Row]] = {}
        for item in select.from_items:
            if isinstance(item, DerivedTable):
                sub_rows = self._execute_select(item.select, params)
                materialized[item.alias] = [
                    {(item.alias, k): v for k, v in r.items()} for r in sub_rows
                ]
                examined += len(sub_rows)

        # per-binding filtered base rows
        def binding_rows(binding: str) -> list[Row]:
            nonlocal examined
            rel = analyzed.bindings[binding]
            if rel is None:
                return materialized[binding]
            table = self.tables[rel]
            eq = [
                (f_.attr, self._const(f_.value, params))
                for f_ in analyzed.filters
                if f_.binding == binding and f_.op == "="
                and isinstance(f_.value, (Literal, Param))
            ]
            if eq and (table.has_index(eq[0][0]) or eq[0][0] == table.key_attrs[0]):
                candidates = list(table.lookup(eq[0][0], eq[0][1]))
            else:
                candidates = list(table.scan())
            examined += len(candidates)
            out = []
            for raw in candidates:
                if all(raw.get(a) == v for a, v in eq):
                    out.append({(binding, a): v for a, v in raw.items()})
            return out

        bindings = list(analyzed.bindings)
        current = binding_rows(bindings[0])
        joined = [bindings[0]]
        remaining = bindings[1:]
        while remaining:
            nxt = next(
                (
                    b
                    for b in remaining
                    if any(
                        j.is_equi and j.involves(b)
                        and (j.left_binding in joined or j.right_binding in joined)
                        for j in analyzed.joins
                    )
                ),
                remaining[0],
            )
            remaining.remove(nxt)
            right = binding_rows(nxt)
            keys = []
            for j in analyzed.joins:
                if not j.is_equi:
                    continue
                if j.left_binding in joined and j.right_binding == nxt:
                    keys.append(((j.left_binding, j.left_attr), (nxt, j.right_attr)))
                elif j.right_binding in joined and j.left_binding == nxt:
                    keys.append(((j.right_binding, j.right_attr), (nxt, j.left_attr)))
            if keys:
                index: dict[tuple, list[Row]] = {}
                for r in right:
                    index.setdefault(tuple(r.get(k[1]) for k in keys), []).append(r)
                merged = []
                for l in current:
                    probe = tuple(l.get(k[0]) for k in keys)
                    for r in index.get(probe, ()):
                        m = dict(l)
                        m.update(r)
                        merged.append(m)
                current = merged
            else:  # cartesian (filtered later by theta conditions)
                current = [
                    {**l, **r} for l in current for r in right
                ]
            examined += len(current)
            joined.append(nxt)

        # residual predicates: theta joins and non-equality filters
        def keep(row: Row) -> bool:
            for j in analyzed.joins:
                lv = row.get((j.left_binding, j.left_attr))
                rv = row.get((j.right_binding, j.right_attr))
                if lv is None or rv is None:
                    return False
                ok = {
                    "=": lv == rv, "<>": lv != rv, "<": lv < rv,
                    "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv,
                }[j.op]
                if not ok:
                    return False
            for f_ in analyzed.filters:
                if (
                    f_.op == "=" and f_.relation is not None
                    and isinstance(f_.value, (Literal, Param))
                ):
                    continue  # applied at access time (base tables only)
                v = row.get((f_.binding, f_.attr))
                if isinstance(f_.value, ColumnRef):
                    # same-binding column/column comparison
                    c = row.get((f_.binding, f_.value.name))
                else:
                    c = self._const(f_.value, params)
                if v is None or c is None:
                    return False
                ok = {
                    "=": v == c, "<>": v != c, "<": v < c,
                    "<=": v <= c, ">": v > c, ">=": v >= c,
                }[f_.op]
                if not ok:
                    return False
            return True

        return [r for r in current if keep(r)], examined

    def _finalize(
        self,
        select: Select,
        analyzed: AnalyzedSelect,
        rows: list[Row],
        params: tuple[Any, ...],
    ) -> list[dict[str, Any]]:
        def lookup(row: Row, expr) -> Any:
            if isinstance(expr, ColumnRef):
                if expr.qualifier is not None:
                    return row.get((expr.qualifier, expr.name))
                hits = [v for (b, a), v in row.items() if a == expr.name]
                return hits[0] if hits else None
            if isinstance(expr, FuncCall):
                return row.get(("", str(expr)))
            raise PlanError(f"unsupported expression {expr}")

        aggregates = [p for p in select.projections if isinstance(p, FuncCall)]
        for o in select.order_by:
            if isinstance(o.expr, FuncCall) and str(o.expr) not in {
                str(a) for a in aggregates
            }:
                aggregates.append(o.expr)
        if select.group_by or aggregates:
            groups: dict[tuple, list[Row]] = {}
            for row in rows:
                key = tuple(lookup(row, g) for g in select.group_by)
                groups.setdefault(key, []).append(row)
            out_rows: list[Row] = []
            for key, members in groups.items():
                out: Row = {}
                for g, v in zip(select.group_by, key):
                    b = g.qualifier
                    if b is None:
                        b, _ = next(
                            ((bb, aa) for (bb, aa) in members[0] if aa == g.name),
                            ("", g.name),
                        )
                    out[(b, g.name)] = v
                for agg in aggregates:
                    if agg.star:
                        out[("", str(agg))] = len(members)
                        continue
                    vals = [lookup(m, agg.args[0]) for m in members]
                    vals = [v for v in vals if v is not None]
                    fn = agg.name
                    out[("", str(agg))] = (
                        len(vals) if fn == "COUNT"
                        else sum(vals) if fn == "SUM" and vals
                        else min(vals) if fn == "MIN" and vals
                        else max(vals) if fn == "MAX" and vals
                        else (sum(vals) / len(vals)) if fn == "AVG" and vals
                        else None
                    )
                out_rows.append(out)
            rows = out_rows

        def shape(row: Row) -> dict[str, Any]:
            out: dict[str, Any] = {}
            for p in select.projections:
                if isinstance(p, Star):
                    targets = (
                        [p.qualifier]
                        if p.qualifier is not None
                        else list(analyzed.bindings)
                    )
                    for b in targets:
                        for (bb, a), v in row.items():
                            if bb == b:
                                name = a if a not in out else f"{bb}.{a}"
                                out[name] = v
                elif isinstance(p, ColumnRef):
                    out[p.name] = lookup(row, p)
                elif isinstance(p, FuncCall):
                    out[str(p)] = row.get(("", str(p)))
            return out

        if select.distinct:
            # DISTINCT is over the projected columns, before sort/limit
            first: dict[tuple, Row] = {}
            for row in rows:
                first.setdefault(tuple(shape(row).values()), row)
            rows = list(first.values())

        if select.order_by:
            import functools

            def cmp(a: Row, b: Row) -> int:
                for o in select.order_by:
                    av, bv = lookup(a, o.expr), lookup(b, o.expr)
                    if av == bv:
                        continue
                    if av is None:
                        return 1 if o.descending else -1
                    if bv is None:
                        return -1 if o.descending else 1
                    less = av < bv
                    if o.descending:
                        return 1 if less else -1
                    return -1 if less else 1
                return 0

            rows = sorted(rows, key=functools.cmp_to_key(cmp))
        if select.limit is not None:
            rows = rows[: select.limit]

        return [shape(row) for row in rows]
