"""How plans name what the operators read, and aggregates over text.

Operators resolve each source once into an accessor: a
``(binding, attr)`` key is one dict lookup, a bare name is a scan of
the row for the first attribute of that name. The composer therefore
names every aggregate reference ``("", call text)`` — the key
``HashGroupBy`` writes — so no sort, group-by, distinct or output
source falls back to the scan to find an aggregate. These tests walk
the plans of Q1-Q11 on every Phoenix-backed system, of the random-query
battery and of the federation merge for a bare name that is an
aggregate call, and pin the output names a repeated aggregate gets.

``HashGroupBy`` is shared by the Phoenix planners, the federation merge
and VoltDB procedures, so ``MIN``/``MAX``/``COUNT`` over a VARCHAR
column (which used to raise ``TypeError`` from a running sum every
aggregate kept) and the typed refusal of ``SUM``/``AVG`` over text are
checked on all five systems and through a split federation merge.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.errors import PlanError
from repro.federation import build_mediator
from repro.federation.merge import plan_merge
from repro.phoenix.planner import PlannedQuery, SelectComposer
from repro.phoenix.plans import (
    DistinctNode,
    GroupByNode,
    SortNode,
    SourceNode,
    SubqueryNode,
)
from repro.relational.company import company_schema, company_workload
from repro.sql.analyzer import analyze_select
from repro.sql.ast import DerivedTable
from repro.sql.parser import parse_statement
from repro.tpcw.queries import JOIN_QUERIES
from tests.conftest import build_company_system, plan_nodes
from tests.reference.generators import SEEDS, generate_query

PHOENIX_SYSTEMS = ("Synergy", "MVCC-A", "MVCC-UA", "Baseline")


def sources_of(planned: PlannedQuery) -> list:
    """Every source the operators of ``planned`` (and its shaping) read."""
    out = [src for _, src in planned.output]
    for node in plan_nodes(planned.root):
        if isinstance(node, SortNode):
            out += [src for src, _ in node.keys]
        elif isinstance(node, GroupByNode):
            out += list(node.group_keys)
            out += [src for _, _, src in node.aggregates if src is not None]
        elif isinstance(node, DistinctNode):
            out += list(node.keys)
        elif isinstance(node, SubqueryNode):
            out += list(node.source_keys)
    return out


def assert_no_bare_aggregate(planned: PlannedQuery) -> int:
    """No source is a bare string naming an aggregate call; returns how
    many sources are aggregate references ``("", call)``."""
    sources = sources_of(planned)
    bare = [s for s in sources if isinstance(s, str) and "(" in s]
    assert not bare, f"bare aggregate sources {bare} in\n{planned.explain()}"
    return sum(1 for s in sources if isinstance(s, tuple) and s[0] == "")


def merge_plan(schema, sql: str) -> PlannedQuery:
    """The federation merge tree of ``sql`` over one leaf per binding."""
    composer = SelectComposer(schema)
    analyzed = analyze_select(parse_statement(sql), schema)
    derived_attrs = {
        item.alias: composer.output_names(item.select)
        for item in analyzed.select.from_items
        if isinstance(item, DerivedTable)
    }
    leaves = {b: SourceNode(list, b) for b in analyzed.bindings}
    return plan_merge(composer, analyzed, leaves, derived_attrs)


@pytest.fixture(scope="module")
def tpcw_systems():
    lab = TpcwLab(num_customers=10, repetitions=1, seed=7)
    return lab, {name: lab.build_system(name) for name in PHOENIX_SYSTEMS}


class TestAggregateSources:
    def test_tpcw_plans_name_aggregates_by_key(self, tpcw_systems):
        lab, systems = tpcw_systems
        refs = 0
        for name, system in systems.items():
            for qid in JOIN_QUERIES:
                if not system.supports(qid):
                    continue
                for cost_based in (False, True):
                    system.conn.configure_engine(cost_based=cost_based)
                    refs += assert_no_bare_aggregate(
                        system.conn.plan(system.statement(qid))
                    )
            system.conn.configure_engine(cost_based=False)
        for qid, sql in JOIN_QUERIES.items():
            refs += assert_no_bare_aggregate(merge_plan(lab.schema, sql))
        assert refs > 0  # Q10/Q11 order by SUM(..): the walk saw them

    def test_random_battery_plans_name_aggregates_by_key(self, company_conn):
        schema = company_schema()
        refs = 0
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(100):
                sql = generate_query(rng).sql
                for cost_based in (False, True):
                    company_conn.configure_engine(cost_based=cost_based)
                    refs += assert_no_bare_aggregate(company_conn.plan(sql))
                refs += assert_no_bare_aggregate(merge_plan(schema, sql))
        company_conn.configure_engine(cost_based=False)
        assert refs > 0

    def test_repeated_aggregate_is_numbered(self, company_conn):
        planned = company_conn.plan(
            "SELECT e.EID, e2.EID, COUNT(*), COUNT(*), SUM(e.EID) "
            "FROM Employee as e, Employee as e2 WHERE e.EID = e2.EID "
            "GROUP BY e.EID, e2.EID"
        )
        assert planned.output == (
            ("EID", ("e", "EID")),
            ("e2.EID", ("e2", "EID")),
            ("COUNT(*)", ("", "COUNT(*)")),
            ("COUNT(*)_1", ("", "COUNT(*)")),
            ("SUM(e.EID)", ("", "SUM(e.EID)")),
        )

    def test_bare_name_still_resolves_by_scan(self, company_conn):
        """A derived table's column named without its alias is the one
        source the row scan still serves."""
        sql = (
            "SELECT WO_EID FROM (SELECT w.WO_EID FROM Works_On as w "
            "WHERE w.WO_EID = 2) as t ORDER BY WO_EID DESC"
        )
        assert company_conn.plan(sql).output == (("WO_EID", "WO_EID"),)
        rows = company_conn.execute_query(sql)
        assert rows and all(r == {"WO_EID": 2} for r in rows)


TEXT_AGGREGATES = (
    (
        "SELECT MIN(EName), MAX(EName) FROM Employee",
        [{"MIN(EName)": "emp1", "MAX(EName)": "emp9"}],
    ),
    ("SELECT COUNT(EName) FROM Employee", [{"COUNT(EName)": 10}]),
    (
        "SELECT E_DNo, MIN(EName), COUNT(EName) FROM Employee "
        "GROUP BY E_DNo ORDER BY MIN(EName) DESC",
        [
            {"E_DNo": 1, "MIN(EName)": "emp10", "COUNT(EName)": 5},
            {"E_DNo": 2, "MIN(EName)": "emp1", "COUNT(EName)": 5},
        ],
    ),
)
SPLIT_JOIN = (
    "SELECT d.DName, MIN(e.EName), MAX(e.EName), COUNT(e.EName) "
    "FROM Employee as e, Department as d WHERE e.E_DNo = d.DNo "
    "GROUP BY d.DName ORDER BY d.DName"
)
SPLIT_ROWS = [
    {"DName": "Dept1", "MIN(e.EName)": "emp10", "MAX(e.EName)": "emp8",
     "COUNT(e.EName)": 5},
    {"DName": "Dept2", "MIN(e.EName)": "emp1", "MAX(e.EName)": "emp9",
     "COUNT(e.EName)": 5},
]


@pytest.fixture(scope="module")
def company_systems():
    return {name: build_company_system(name) for name in SYSTEM_NAMES}


class TestAggregatesOverText:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_min_max_count_over_varchar(self, company_systems, name):
        system = company_systems[name]
        for sql, expected in TEXT_AGGREGATES:
            assert system.execute(sql) == expected, (name, sql)
        assert system.execute(SPLIT_JOIN) == SPLIT_ROWS

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    @pytest.mark.parametrize("func", ("SUM", "AVG"))
    def test_sum_avg_over_varchar_is_a_plan_error(
        self, company_systems, name, func
    ):
        with pytest.raises(PlanError, match=f"{func} over a non-numeric"):
            company_systems[name].execute(f"SELECT {func}(EName) FROM Employee")

    def test_through_a_split_merge(self, company_systems):
        mediator = build_mediator(
            company_systems, company_schema(), company_workload(),
            seed=7, mode="split",
        )
        assert mediator.execute(SPLIT_JOIN) == SPLIT_ROWS
        assert mediator.route_log[-1].mode == "split"
        with pytest.raises(PlanError, match="SUM over a non-numeric"):
            mediator.execute(
                "SELECT SUM(e.EName) FROM Employee as e, Department as d "
                "WHERE e.E_DNo = d.DNo"
            )
