"""Statement generators: seeded SELECTs and single-row writes over the
Company schema, and the four-client TPC-W transaction mix.

``generate_query``'s RNG stream is pinned: ``tests/test_engine_oracle.py``
records digests of the statements it yields, so a change to the order
or number of draws below is a change to that file's expectations."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.tpcw.writes import WRITE_STATEMENTS
from tests.reference.sql import INT_ATTRS, KEYS, TABLES

SEEDS = (171001792, 20170904)
#: The routed battery: the first 60 queries of the first seed.
ROUTED_SEED, ROUTED_QUERIES = SEEDS[0], 60

#: (table_a, attr_a, table_b, attr_b) — equi-joinable attribute pairs,
#: including self-joins on a key and on an unindexed non-key attribute.
JOIN_EDGES = (
    ("Employee", "EHome_AID", "Address", "AID"),
    ("Employee", "EOffice_AID", "Address", "AID"),
    ("Employee", "E_DNo", "Department", "DNo"),
    ("Project", "P_DNo", "Department", "DNo"),
    ("Works_On", "WO_EID", "Employee", "EID"),
    ("Works_On", "WO_PNo", "Project", "PNo"),
    ("Dependent", "DP_EID", "Employee", "EID"),
    ("Dependent", "DPHome_AID", "Address", "AID"),
    ("Employee", "E_DNo", "Employee", "E_DNo"),
    ("Works_On", "Hours", "Works_On", "Hours"),
)
FILTER_OPS = ("=", "<", ">", "<=", ">=", "<>")
COLUMN_FILTER_OPS = ("=", "<", "<>")


# ------------------------------------------------------------ queries
@dataclass
class QuerySpec:
    #: (alias, table)
    bindings: list[tuple[str, str]] = field(default_factory=list)
    #: a1, x, a2, y: ``a1.x = a2.y``
    joins: list[tuple[str, str, str, str]] = field(default_factory=list)
    #: alias, attr, op, value (a ``?`` parameter)
    filters: list[tuple[str, str, str, Any]] = field(default_factory=list)
    #: alias, attr, op, attr2 — two attributes of ONE binding compared
    column_filters: list[tuple[str, str, str, str]] = field(default_factory=list)
    #: (alias, attr) projections
    columns: list[tuple[str, str]] = field(default_factory=list)
    #: func, alias, attr; alias and attr ``None`` for ``COUNT(*)``
    aggregates: list[tuple[str, str | None, str | None]] = field(default_factory=list)
    group_keys: list[tuple[str, str]] = field(default_factory=list)
    distinct: bool = False
    #: (column index, desc)
    order: list[tuple[int, bool]] = field(default_factory=list)
    limit: int | None = None

    @property
    def sql(self) -> str:
        cols = []
        for alias, attr in self.columns:
            cols.append(f"{alias}.{attr}")
        for func, alias, attr in self.aggregates:
            cols.append(f"{func}(*)" if alias is None else f"{func}({alias}.{attr})")
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(cols))
        parts.append("FROM " + ", ".join(f"{t} as {a}" for a, t in self.bindings))
        conds = [f"{a1}.{x} = {a2}.{y}" for a1, x, a2, y in self.joins]
        conds += [f"{a}.{attr} {op} ?" for a, attr, op, _v in self.filters]
        conds += [f"{a}.{x} {op} {a}.{y}" for a, x, op, y in self.column_filters]
        if conds:
            parts.append("WHERE " + " and ".join(conds))
        if self.group_keys:
            parts.append(
                "GROUP BY " + ", ".join(f"{a}.{x}" for a, x in self.group_keys)
            )
        if self.order:
            parts.append("ORDER BY " + ", ".join(
                cols[i] + (" DESC" if desc else "") for i, desc in self.order
            ))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    @property
    def params(self) -> tuple:
        return tuple(v for _a, _attr, _op, v in self.filters)


def generate_query(rng: random.Random) -> QuerySpec:
    """Projections, integer predicates, 2-3-way joins including
    self-joins, DISTINCT, GROUP BY aggregates over integers, same-binding
    column comparisons. LIMIT only under an ORDER BY over every projected
    column, so the limited prefix is one multiset under every plan."""
    spec = QuerySpec()
    n_tables = rng.choice((1, 2, 2, 2, 3, 3))
    first = rng.choice(sorted(TABLES))
    spec.bindings.append(("t0", first))
    while len(spec.bindings) < n_tables:
        anchored = []
        for ta, xa, tb, yb in JOIN_EDGES:
            for a, t in spec.bindings:
                if t == ta:
                    anchored.append((a, xa, tb, yb))
                if t == tb:
                    anchored.append((a, yb, ta, xa))
        a, x, other, y = rng.choice(anchored)
        alias = f"t{len(spec.bindings)}"
        spec.bindings.append((alias, other))
        spec.joins.append((a, x, alias, y))
    for alias, table in spec.bindings:
        if rng.random() < 0.5:
            attr = rng.choice(INT_ATTRS[table])
            spec.filters.append(
                (alias, attr, rng.choice(FILTER_OPS), rng.randint(0, 12))
            )
        if len(INT_ATTRS[table]) >= 2 and rng.random() < 0.2:
            x, y = rng.sample(INT_ATTRS[table], 2)
            spec.column_filters.append(
                (alias, x, rng.choice(COLUMN_FILTER_OPS), y)
            )

    if rng.random() < 0.3:
        # aggregate query: group keys (0-2, distinct attr names since
        # the output dict is keyed by bare attr name) + 1-2 aggregates
        for _ in range(rng.randint(0, 2)):
            alias, table = rng.choice(spec.bindings)
            key = (alias, rng.choice(TABLES[table]))
            if all(key[1] != attr for _a, attr in spec.group_keys):
                spec.group_keys.append(key)
        spec.columns = list(spec.group_keys)
        for _ in range(rng.randint(1, 2)):
            func = rng.choice(("COUNT", "SUM", "MIN", "MAX", "AVG"))
            if func == "COUNT" and rng.random() < 0.5:
                agg = (func, None, None)
            else:
                alias, table = rng.choice(spec.bindings)
                agg = (func, alias, rng.choice(INT_ATTRS[table]))
            if agg not in spec.aggregates:
                spec.aggregates.append(agg)
    else:
        # plain projection over distinct output names (the row dicts the
        # connection returns are keyed by bare attr name)
        n_cols = rng.randint(1, 4)
        seen_names: set[str] = set()
        for _ in range(n_cols * 3):
            alias, table = rng.choice(spec.bindings)
            attr = rng.choice(TABLES[table])
            if attr in seen_names:
                continue
            seen_names.add(attr)
            spec.columns.append((alias, attr))
            if len(spec.columns) == n_cols:
                break
        spec.distinct = rng.random() < 0.25
        if rng.random() < 0.35:
            # total order over the projected tuple, so LIMIT selects a
            # well-defined multiset under every plan
            spec.order = [
                (i, rng.random() < 0.5) for i in range(len(spec.columns))
            ]
            spec.limit = rng.randint(1, 15)
    return spec


# ------------------------------------------------------------ writes
def sql_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return "NULL" if value is None else str(value)


def _slot(value, inline: bool) -> str:
    return sql_literal(value) if inline else "?"


@dataclass
class WriteSpec:
    """One single-row write. Each value is ``(value, inline)``: printed
    as a literal, or bound to a ``?`` parameter."""

    kind: str  # "INSERT" | "UPDATE" | "DELETE"
    table: str
    columns: list[str]  # INSERT columns / SET targets
    values: list[tuple[Any, bool]]
    where: list[tuple[str, Any, bool]] = field(default_factory=list)  # attr = value

    @property
    def sql(self) -> str:
        values = [_slot(*value) for value in self.values]
        where = " and ".join(f"{a} = {_slot(v, inline)}" for a, v, inline in self.where)
        where = f" WHERE {where}" if where else ""
        if self.kind == "INSERT":
            columns = ", ".join(self.columns)
            return f"INSERT INTO {self.table} ({columns}) VALUES ({', '.join(values)})"
        if self.kind == "UPDATE":
            sets = ", ".join(f"{c} = {v}" for c, v in zip(self.columns, values))
            return f"UPDATE {self.table} SET {sets}{where}"
        return f"DELETE FROM {self.table}{where}"

    @property
    def params(self) -> tuple:
        slots = [*self.values, *((v, inline) for _a, v, inline in self.where)]
        return tuple(v for v, inline in slots if not inline)


#: The write shapes, by weight. ``unbound-key`` drops one key attribute
#: from an INSERT's columns or a WHERE; ``arity`` drops an INSERT's last
#: value; ``unknown-column`` names a column the table lacks (an INSERT
#: column, a SET or a WHERE conjunct); ``non-key-where`` adds a WHERE
#: conjunct on a non-key column. Every system refuses each before
#: anything is stored.
WRITE_SHAPES = ("insert",) * 3 + ("update",) * 3 + ("delete",) * 2 + (
    "unbound-key", "arity", "unknown-column", "non-key-where",
)
STRINGS = ("emp3", "Dept1", "o'k", "x", "'quoted'", "zz")


def _value(rng: random.Random, table: str, attr: str):
    if rng.random() < 0.2:
        return None
    return rng.randint(-3, 12) if attr in INT_ATTRS[table] else rng.choice(STRINGS)


def _fresh_key(rng: random.Random, table: str, present) -> tuple:
    while True:
        key = tuple(
            rng.randint(-20, 40) if attr in INT_ATTRS[table] else rng.choice(STRINGS)
            for attr in KEYS[table]
        )
        if key not in present:
            return key


def generate_write(rng: random.Random, data: dict[str, list[dict]]) -> WriteSpec:
    """An INSERT of a key absent from ``data``, a key-bound UPDATE of
    non-key columns or a key-bound DELETE (of a present key three times
    in four), or one of the four refused shapes. Values mix ``?`` with
    inline NULL, negative-int and quoted-string literals."""
    table = rng.choice(sorted(TABLES))
    keys = KEYS[table]
    others = [a for a in TABLES[table] if a not in keys]
    present = sorted({tuple(row[k] for k in keys) for row in data[table]})
    shape = rng.choice(WRITE_SHAPES)
    kind = {"update": "UPDATE", "delete": "DELETE"}.get(shape, "INSERT")
    if shape in ("unbound-key", "unknown-column"):
        kind = rng.choice(("INSERT", "UPDATE", "DELETE"))
    elif shape == "non-key-where":
        kind = rng.choice(("UPDATE", "DELETE"))
    if kind == "INSERT":
        # a refused INSERT names every column, so it never prints empty
        named = [a for a in others if shape != "insert" or rng.random() < 0.8]
        row = [*_fresh_key(rng, table, present)]
        row += [_value(rng, table, a) for a in named]
        spec = WriteSpec(kind, table, [*keys, *named], [])
    else:
        if present and rng.random() < 0.75:
            key = rng.choice(present)
        else:
            key = _fresh_key(rng, table, present)
        spec = WriteSpec(kind, table, [], [])
        spec.where = [(a, v, rng.random() < 0.4) for a, v in zip(keys, key)]
        if kind == "UPDATE":
            spec.columns = rng.sample(others, rng.randint(1, len(others)))
        row = [_value(rng, table, a) for a in spec.columns]
    spec.values = [(v, rng.random() < 0.4) for v in row]
    if shape == "unbound-key":
        drop = rng.randrange(len(keys))
        if kind == "INSERT":
            del spec.columns[drop], spec.values[drop]
        else:
            del spec.where[drop]
    elif shape == "arity":
        spec.values.pop()
    elif shape == "unknown-column":
        value = (_value(rng, table, keys[0]), rng.random() < 0.4)
        if kind == "DELETE":
            spec.where.append(("nosuch", *value))
        else:
            spec.columns.append("nosuch")
            spec.values.append(value)
    elif shape == "non-key-where":
        attr = rng.choice(others)
        spec.where.append((attr, _value(rng, table, attr), rng.random() < 0.4))
    return spec


# ------------------------------------------------------------ TPC-W
def four_client_txns() -> list[list]:
    """Per-client transaction lists over DISJOINT key slices: client i
    owns item i+1, customer i+1 and cart i+1, so the final state is
    independent of the interleaving a system happens to produce."""
    per_client = []
    for c in range(4):
        i_id, c_id, sc_id = c + 1, c + 1, c + 1
        txns = []
        for t in range(3):
            stamp = 1000 * (c + 1) + t
            txns.append([
                ("SELECT * FROM Item WHERE i_id = ?", (i_id,)),
                (WRITE_STATEMENTS["W9"], (stamp, i_id)),
            ])
            txns.append([
                (WRITE_STATEMENTS["W13"],
                 (float(stamp), float(stamp) / 2, float(t), c_id)),
            ])
            txns.append([(WRITE_STATEMENTS["W11"], (float(stamp), sc_id))])
        per_client.append(txns)
    return per_client
