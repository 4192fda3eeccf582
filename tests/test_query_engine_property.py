"""Differential property harness for the SELECT engine under both planners.

A seeded generator produces random Company-schema queries (projections,
predicates, 2-3-way joins including self-joins, DISTINCT, GROUP BY
aggregates, ORDER BY + LIMIT, same-binding column/column comparisons)
and runs every one through the operator pipeline as the rule-based
and as the cost-based planner plan it. Both must agree row-for-row (as multisets) with a pure-Python relational reference
model evaluated over the same data.

LIMIT is only generated underneath an ORDER BY covering every projected
column, so the limited prefix is a well-defined multiset no matter
which plan produced the row order. Aggregated attributes
are integers, so SUM/AVG are exact regardless of accumulation order.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ClusterConfig
from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.executor import PhoenixConnection
from repro.relational.company import company_schema
from repro.sim.clock import Simulation

QUERIES_PER_SEED = 200
SEEDS = (171001792, 20170904)

# ------------------------------------------------------------ reference data
def company_rows() -> dict[str, list[dict]]:
    """The same deterministic Company database conftest loads, as plain
    dicts — the ground truth the reference model evaluates against."""
    rows: dict[str, list[dict]] = {t: [] for t in TABLES}
    for aid in range(1, 6):
        rows["Address"].append({"AID": aid, "Street": f"{aid} Main St",
                                "City": "Nashville", "Zip": "37201"})
    for dno in (1, 2):
        rows["Department"].append({"DNo": dno, "DName": f"Dept{dno}"})
    for eid in range(1, 11):
        rows["Employee"].append({"EID": eid, "EName": f"emp{eid}",
                                 "EHome_AID": (eid % 5) + 1,
                                 "EOffice_AID": 1, "E_DNo": (eid % 2) + 1})
    for pno in (1, 2, 3):
        rows["Project"].append({"PNo": pno, "PName": f"proj{pno}",
                                "P_DNo": (pno % 2) + 1})
    for eid in range(1, 11):
        for pno in (1, 2, 3):
            if (eid + pno) % 2 == 0:
                rows["Works_On"].append({"WO_EID": eid, "WO_PNo": pno,
                                         "Hours": 10 * pno})
    for eid in (1, 2):
        rows["Dependent"].append({"DP_EID": eid, "DPName": f"dep{eid}",
                                  "DPHome_AID": eid + 1})
    return rows


TABLES = {
    "Address": ("AID", "Street", "City", "Zip"),
    "Department": ("DNo", "DName"),
    "Employee": ("EID", "EName", "EHome_AID", "EOffice_AID", "E_DNo"),
    "Project": ("PNo", "PName", "P_DNo"),
    "Works_On": ("WO_EID", "WO_PNo", "Hours"),
    "Dependent": ("DP_EID", "DPName", "DPHome_AID"),
}
INT_ATTRS = {
    "Address": ("AID",),
    "Department": ("DNo",),
    "Employee": ("EID", "EHome_AID", "EOffice_AID", "E_DNo"),
    "Project": ("PNo", "P_DNo"),
    "Works_On": ("WO_EID", "WO_PNo", "Hours"),
    "Dependent": ("DP_EID", "DPHome_AID"),
}
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


# ------------------------------------------------------------ query generator
class QuerySpec:
    def __init__(self) -> None:
        self.bindings: list[tuple[str, str]] = []  # (alias, table)
        self.joins: list[tuple[str, str, str, str]] = []  # a1, x, a2, y
        self.filters: list[tuple[str, str, str, int]] = []  # alias, attr, op, v
        #: alias, attr, op, attr2 — two attributes of ONE binding compared
        self.column_filters: list[tuple[str, str, str, str]] = []
        self.columns: list[tuple[str, str]] = []  # (alias, attr) projections
        self.aggregates: list[tuple[str, str | None, str | None]] = []
        self.group_keys: list[tuple[str, str]] = []
        self.distinct = False
        self.order: list[tuple[int, bool]] = []  # (column index, desc)
        self.limit: int | None = None

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
    def params(self) -> tuple[int, ...]:
        return tuple(v for _a, _attr, _op, v in self.filters)


def generate_query(rng: random.Random) -> QuerySpec:
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


# ------------------------------------------------------------ reference model
def _cmp(op: str, left, right) -> bool:
    return {
        "=": left == right, "<>": left != right,
        "<": left < right, ">": left > right,
        "<=": left <= right, ">=": left >= right,
    }[op]


def _aggregate_ref(func: str, values: list):
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return sum(values)
    if func == "MIN":
        return min(values)
    if func == "MAX":
        return max(values)
    return sum(values) / len(values)  # AVG


def ref_execute(spec: QuerySpec, data: dict[str, list[dict]]) -> list[tuple]:
    """Evaluate the query spec with naive nested loops over plain dicts."""
    combos: list[dict[str, dict]] = [{}]
    for alias, table in spec.bindings:
        combos = [
            {**c, alias: row} for c in combos for row in data[table]
        ]
    kept = [
        c for c in combos
        if all(c[a1][x] == c[a2][y] for a1, x, a2, y in spec.joins)
        and all(_cmp(op, c[a][attr], v) for a, attr, op, v in spec.filters)
        and all(_cmp(op, c[a][x], c[a][y]) for a, x, op, y in spec.column_filters)
    ]

    if spec.aggregates:
        groups: dict[tuple, list[dict[str, dict]]] = {}
        for c in kept:
            key = tuple(c[a][x] for a, x in spec.group_keys)
            groups.setdefault(key, []).append(c)
        # NB: like the engine, a global aggregate over an empty input
        # yields no row (the repo's dialect, asserted differentially)
        out = []
        for key, members in groups.items():
            aggs = []
            for func, alias, attr in spec.aggregates:
                values = (
                    [1] * len(members) if alias is None
                    else [c[alias][attr] for c in members]
                )
                aggs.append(_aggregate_ref(func, values))
            out.append(key + tuple(aggs))
        return out

    rows = [tuple(c[a][x] for a, x in spec.columns) for c in kept]
    if spec.distinct:
        rows = list(set(rows))
    if spec.limit is not None:
        # stable multi-key sort: apply keys in reverse significance
        for i, desc in reversed(spec.order):
            rows.sort(key=lambda r: r[i], reverse=desc)
        rows = rows[: spec.limit]
    return rows


# ------------------------------------------------------------ the harness
@pytest.fixture(scope="module")
def prop_conn() -> PhoenixConnection:
    sim = Simulation(seed=7)
    client = HBaseClient(HBaseCluster(sim, ClusterConfig()))
    catalog = create_baseline_schema(client, company_schema())
    conn = PhoenixConnection(client, catalog)
    for table, rows in company_rows().items():
        for row in rows:
            conn.writer.insert_row(table, row)
    conn.analyze()
    return conn


def _engine_rows(conn: PhoenixConnection, spec: QuerySpec) -> list[tuple]:
    return [tuple(r.values()) for r in conn.execute_query(spec.sql, spec.params)]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_queries_all_engines_match_reference(prop_conn, seed):
    rng = random.Random(seed)
    data = company_rows()
    checked = 0
    try:
        for i in range(QUERIES_PER_SEED):
            spec = generate_query(rng)
            expected = sorted(ref_execute(spec, data))
            for cost_based in (False, True):
                prop_conn.configure_engine(cost_based=cost_based)
                got = sorted(_engine_rows(prop_conn, spec))
                assert got == expected, (
                    f"query #{i} (seed {seed}, cost_based={cost_based}) "
                    f"diverged:\n{spec.sql}\n"
                    f"params={spec.params}\nexpected={expected}\ngot={got}"
                )
            checked += 1
    finally:
        prop_conn.configure_engine(cost_based=False)
    assert checked == QUERIES_PER_SEED


def test_generator_covers_the_required_shapes():
    """The random stream actually exercises joins, self-joins, DISTINCT,
    aggregates and LIMIT (guards against a generator regression quietly
    weakening the differential suite)."""
    rng = random.Random(SEEDS[0])
    specs = [generate_query(rng) for _ in range(QUERIES_PER_SEED)]
    assert any(len(s.bindings) == 3 for s in specs)
    assert any(
        len({t for _a, t in s.bindings}) < len(s.bindings) for s in specs
    ), "no self-join generated"
    assert any(s.distinct for s in specs)
    assert any(s.aggregates for s in specs)
    assert any(s.limit is not None for s in specs)
    assert any(s.filters for s in specs)
    for op in COLUMN_FILTER_OPS:
        for joined in (False, True):
            assert any(
                (len(s.bindings) > 1) == joined
                and any(f[2] == op for f in s.column_filters)
                for s in specs
            ), f"no same-binding {op!r} comparison with joined={joined}"
