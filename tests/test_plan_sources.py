"""How plans name what the operators read, and aggregates over text.

The analyzer (``sql/analyzer.py``) is the one column resolver: every
source a plan reads is a ``(binding, attr)`` key whose binding is a
FROM binding of its scope (the statement's, or inside a derived
table's subplan, the derived SELECT's) and has that attribute — or
``("", call text)`` for an aggregate, the slot ``GroupByNode`` adds.
No source is a bare name, so a node resolves each one to a slot of its
input's schema when it is built, and a source the input does not carry
is a ``PlanError`` then. These tests walk the plans of Q1-Q11 on every
Phoenix-backed system under both planners, VoltDB's procedure plans,
the random-query battery and the federation merge, check that every
row those plans emit has one value per slot of its node's schema, pin
the ``PlanError`` of each node kind, and pin the output names a
repeated aggregate and a bare derived-table column get.

``HashGroupBy`` is shared by the Phoenix planners, the federation merge
and VoltDB procedures, so ``MIN``/``MAX``/``COUNT`` over a VARCHAR
column (which used to raise ``TypeError`` from a running sum every
aggregate kept) and the typed refusal of ``SUM``/``AVG`` over text are
checked on all five systems and through a split federation merge.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.errors import PlanError
from repro.federation.merge import plan_merge
from repro.phoenix import executor, operators
from repro.phoenix.catalog import TABLE, CatalogEntry
from repro.phoenix.planner import PlannedQuery, SelectComposer
from repro.phoenix.plans import (
    AccessSpec,
    ColumnPredicate,
    DistinctNode,
    FilterNode,
    GroupByNode,
    HashJoinNode,
    NestedLoopJoinNode,
    ScanNode,
    SortNode,
    SourceNode,
    SubqueryNode,
    SymmetricJoinNode,
    ValuePredicate,
)
from repro.relational.company import company_schema, company_workload
from repro.relational.datatypes import DataType
from repro.sql.analyzer import AnalyzedSelect, analyze_select
from repro.sql.ast import Literal, Param
from repro.sql.parser import parse_statement
from repro.tpcw.queries import JOIN_QUERIES
from tests.conftest import (
    build_company_federation,
    build_company_system,
    build_mediator,
    build_tpcw_systems,
    plan_nodes,
)
from tests.reference.generators import (
    ROUTED_QUERIES,
    ROUTED_SEED,
    SEEDS,
    generate_query,
)

PHOENIX_SYSTEMS = ("Synergy", "MVCC-A", "MVCC-UA", "Baseline")


def node_sources(node) -> list:
    """The sources one plan node reads (a derived table's ``source_keys``
    belong to its subplan's scope, not this one)."""
    if isinstance(node, ScanNode):
        return [src for p in node.access.residuals for src in p.sources]
    if isinstance(node, NestedLoopJoinNode):
        return [
            k for k in node.outer_keys if not isinstance(k, (Literal, Param))
        ] + [src for p in node.inner.residuals for src in p.sources]
    if isinstance(node, HashJoinNode):
        return [*node.probe_keys, *node.build_keys]
    if isinstance(node, SymmetricJoinNode):
        return [*node.left_keys, *node.right_keys]
    if isinstance(node, FilterNode):
        return [src for p in node.predicates for src in p.sources]
    if isinstance(node, SortNode):
        return [src for src, _ in node.keys]
    if isinstance(node, GroupByNode):
        return [
            *node.group_keys,
            *(src for _, _, src in node.aggregates if src is not None),
        ]
    if isinstance(node, DistinctNode):
        return list(node.keys)
    return []


def assert_sources_bound(planned: PlannedQuery, analyzed: AnalyzedSelect) -> int:
    """Every source of ``planned`` is a ``(binding, attr)`` its scope
    binds (``""`` for an aggregate); returns how many are aggregate
    references ``("", call)``."""
    refs = 0

    def check(src, scope: AnalyzedSelect) -> None:
        nonlocal refs
        assert isinstance(src, tuple) and len(src) == 2, (
            f"bare source {src!r} in\n{planned.explain()}"
        )
        binding, attr = src
        if binding == "":
            refs += 1
            return
        assert binding in scope.bindings, (
            f"{src!r} is not bound in its scope {list(scope.bindings)}"
        )
        names = scope.attrs[binding]
        assert names is None or attr in names, f"{binding!r} has no {attr!r}"

    def walk(node, scope: AnalyzedSelect) -> None:
        for src in node_sources(node):
            check(src, scope)
        if isinstance(node, SubqueryNode):
            sub = scope.derived[node.alias]
            for src in node.source_keys:
                check(src, sub)
            walk(node.subplan, sub)
        else:
            for child in node.children():
                walk(child, scope)

    for _, src in planned.output:
        check(src, analyzed)
    walk(planned.root, analyzed)
    return refs


def merge_plan(schema, sql: str) -> tuple[PlannedQuery, AnalyzedSelect]:
    """The federation merge tree of ``sql`` over one leaf per binding,
    with the analysis it was composed from."""
    analyzed = analyze_select(parse_statement(sql), schema)
    leaves = {
        b: SourceNode(list, b, tuple((b, a) for a in analyzed.attrs[b] or ()))
        for b in analyzed.bindings
    }
    return plan_merge(SelectComposer(), analyzed, leaves), analyzed


def conn_plan(conn, sql: str) -> tuple[PlannedQuery, AnalyzedSelect]:
    """``conn``'s plan of ``sql`` and the analysis against its catalog."""
    analyzed = analyze_select(parse_statement(sql), conn.planner.namespace)
    return conn.plan(sql), analyzed


def record_procedures(system, monkeypatch) -> list:
    """Every (plan, analysis) VoltDB composes a procedure body from,
    nested derived-table procedures included."""
    recorded = []
    compose = system._plan_procedure

    def recording(analyzed, params, scheme, host):
        planned = compose(analyzed, params, scheme, host)
        recorded.append((planned, analyzed))
        return planned

    monkeypatch.setattr(system, "_plan_procedure", recording)
    return recorded


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
                    refs += assert_sources_bound(
                        *conn_plan(system.conn, system.statement(qid))
                    )
            system.conn.configure_engine(cost_based=False)
        for qid, sql in JOIN_QUERIES.items():
            refs += assert_sources_bound(*merge_plan(lab.schema, sql))
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
                    refs += assert_sources_bound(*conn_plan(company_conn, sql))
                refs += assert_sources_bound(*merge_plan(schema, sql))
        company_conn.configure_engine(cost_based=False)
        assert refs > 0

    def test_voltdb_procedure_plans_bind_every_source(
        self, tpcw_systems, monkeypatch
    ):
        lab, _ = tpcw_systems
        volt = lab.build_system("VoltDB")
        recorded = record_procedures(volt, monkeypatch)
        for qid in JOIN_QUERIES:
            if volt.supports(qid):
                volt.execute(
                    volt.statement(qid), lab.generator.params_for_query(qid, 0)
                )
        company = build_company_system("VoltDB")
        recorded += record_procedures(company, monkeypatch)
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(100):
                spec = generate_query(rng)
                company.execute(spec.sql, spec.params)
        refs = sum(assert_sources_bound(*pair) for pair in recorded)
        # Q10/Q11's derived tables ran as nested procedures
        assert any(a.bindings == {"Orders": "Orders"} for _, a in recorded)
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

    def test_bare_derived_column_is_keyed_by_its_alias(self, company_conn):
        """A derived table's column named without its alias resolves to
        ``(alias, attr)`` like any other column: no row scan."""
        sql = (
            "SELECT WO_EID FROM (SELECT w.WO_EID FROM Works_On as w "
            "WHERE w.WO_EID = 2) as t ORDER BY WO_EID DESC"
        )
        planned = company_conn.plan(sql)
        assert planned.output == (("WO_EID", ("t", "WO_EID")),)
        sort = next(n for n in plan_nodes(planned.root) if isinstance(n, SortNode))
        assert sort.keys == ((("t", "WO_EID"), True),)
        rows = company_conn.execute_query(sql)
        assert rows and all(r == {"WO_EID": 2} for r in rows)


# ------------------------------------------------------------ row widths
@pytest.fixture
def checked_widths(monkeypatch) -> Counter:
    """While active, every compiled operator checks that each row it
    emits has one value per slot of its plan node's schema; counts the
    rows checked per node class."""
    compile_plan = operators.compile_plan
    checked: Counter = Counter()

    def compile_checked(node):
        op = compile_plan(node)
        pull, width, kind = op.next_batch, len(node.schema), type(node).__name__

        def next_batch(demand=None):
            batch = pull(demand)
            for row in batch or ():
                assert len(row) == width, f"{kind} emitted {row!r}: {node.schema}"
            checked[kind] += len(batch or ())
            return batch

        op.next_batch = next_batch
        return op

    # the lowering recurses through the module's name; the executor
    # compiles the root through its own
    monkeypatch.setattr(operators, "compile_plan", compile_checked)
    monkeypatch.setattr(executor, "compile_plan", compile_checked)
    return checked


class TestRowsFitTheirSchemas:
    def test_tpcw_queries_on_every_system_and_merge(self, checked_widths):
        lab = TpcwLab(num_customers=10, repetitions=1, seed=7)
        systems = build_tpcw_systems(lab, (*PHOENIX_SYSTEMS, "VoltDB"))
        params = {qid: lab.generator.params_for_query(qid, 0) for qid in JOIN_QUERIES}
        for name in PHOENIX_SYSTEMS:
            system = systems[name]
            for cost_based in (False, True):
                system.conn.configure_engine(cost_based=cost_based)
                for qid in JOIN_QUERIES:
                    if system.supports(qid):
                        system.execute(system.statement(qid), params[qid])
        volt = systems["VoltDB"]
        for qid in JOIN_QUERIES:
            if volt.supports(qid):
                volt.execute(volt.statement(qid), params[qid])
        for mode in ("split", "auto"):
            mediator = build_mediator(
                systems, lab.schema, lab.workload, seed=lab.seed, mode=mode
            )
            for qid in JOIN_QUERIES:
                mediator.execute(qid, params[qid])
            assert any(r.mode == "split" for r in mediator.route_log), mode
        assert set(checked_widths) >= {
            "ScanNode", "SourceNode", "NestedLoopJoinNode", "HashJoinNode",
            "SymmetricJoinNode", "SubqueryNode", "FilterNode", "GroupByNode",
            "SortNode", "LimitNode",
        }

    def test_random_battery_on_every_planner_and_merge(
        self, checked_widths, company_conn
    ):
        volt = build_company_system("VoltDB")
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(100):
                spec = generate_query(rng)
                for cost_based in (False, True):
                    company_conn.configure_engine(cost_based=cost_based)
                    company_conn.execute_query(spec.sql, spec.params)
                volt.execute(spec.sql, spec.params)
        company_conn.configure_engine(cost_based=False)
        for mode in ("split", "auto"):
            mediator = build_company_federation(mode)
            rng = random.Random(ROUTED_SEED)
            for _ in range(ROUTED_QUERIES):
                spec = generate_query(rng)
                mediator.execute(spec.sql, spec.params)
            assert any(r.mode == "split" for r in mediator.route_log), mode
        assert set(checked_widths) >= {
            "ScanNode", "SourceNode", "NestedLoopJoinNode", "HashJoinNode",
            "SymmetricJoinNode", "FilterNode", "GroupByNode", "SortNode",
            "DistinctNode", "LimitNode",
        }


# ------------------------------------------------------------ missing sources
LEFT = SourceNode(list, "t", (("t", "a"), ("t", "b")))
RIGHT = SourceNode(list, "u", (("u", "c"),))
MISSING = ("t", "zz")
INNER = CatalogEntry(
    name="I", kind=TABLE, key_attrs=("k",), attrs=("k", "v"),
    dtypes={"k": DataType.INT, "v": DataType.INT},
)

MISSING_SOURCE = {
    "filter": lambda: FilterNode(LEFT, (ValuePredicate("t", "zz", "=", Literal(1)),)),
    "filter-column": lambda: FilterNode(
        LEFT, (ColumnPredicate(("t", "a"), "<", MISSING),)
    ),
    "sort": lambda: SortNode(LEFT, ((MISSING, False),)),
    "group-by-key": lambda: GroupByNode(LEFT, (MISSING,), ()),
    "group-by-aggregate": lambda: GroupByNode(
        LEFT, (("t", "a"),), (("SUM(zz)", "SUM", MISSING),)
    ),
    "distinct": lambda: DistinctNode(LEFT, (("t", "a"), MISSING)),
    "hash-join-probe": lambda: HashJoinNode(LEFT, RIGHT, (MISSING,), (("u", "c"),)),
    # the build side's key is looked up on the build side only
    "hash-join-build": lambda: HashJoinNode(LEFT, RIGHT, (("t", "a"),), (("t", "b"),)),
    "symmetric-join-left": lambda: SymmetricJoinNode(
        LEFT, RIGHT, (("u", "c"),), (("u", "c"),)
    ),
    "symmetric-join-right": lambda: SymmetricJoinNode(
        LEFT, RIGHT, (("t", "a"),), (("u", "zz"),)
    ),
    "nested-loop-join": lambda: NestedLoopJoinNode(
        LEFT, AccessSpec(INNER, "i", prefix_attrs=("k",)), (MISSING,)
    ),
    "access-residual": lambda: AccessSpec(
        INNER, "i", residuals=(ValuePredicate("i", "zz", "<", Literal(1)),)
    ),
    "derived-table": lambda: SubqueryNode(LEFT, "d", ("a", "zz"), (("t", "a"), MISSING)),
    "root-output": lambda: PlannedQuery(
        LEFT, (("a", ("t", "a")), ("zz", MISSING)), parse_statement("SELECT t.a FROM t")
    ),
}


class TestMissingSourceIsAPlanError:
    @pytest.mark.parametrize("build", MISSING_SOURCE.values(), ids=MISSING_SOURCE)
    def test_when_the_node_is_built(self, build):
        with pytest.raises(PlanError, match="which its input does not carry"):
            build()

    def test_present_sources_resolve_to_slots(self):
        join = HashJoinNode(LEFT, RIGHT, (("t", "b"),), (("u", "c"),))
        assert join.schema == (("t", "a"), ("t", "b"), ("u", "c"))
        assert (join.probe_slots, join.build_slots) == ((1,), (0,))
        nested = NestedLoopJoinNode(
            RIGHT, AccessSpec(INNER, "i", prefix_attrs=("k",)), (Param(0),)
        )
        assert nested.schema == (("u", "c"), ("i", "k"), ("i", "v"))
        assert nested.outer_slots == (Param(0),)
        grouped = GroupByNode(join, (("u", "c"),), (("COUNT(*)", "COUNT", None),))
        assert grouped.schema == (("u", "c"), ("", "COUNT(*)"))

    def test_an_ungrouped_column_in_a_grouped_select(self, company_conn):
        # the group-by emits its keys and aggregates only: EName used to
        # come out NULL, now the plan is refused
        with pytest.raises(PlanError, match="the SELECT list reads"):
            company_conn.plan(
                "SELECT e.EName, COUNT(*) FROM Employee as e GROUP BY e.E_DNo"
            )


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
