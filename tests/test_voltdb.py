"""VoltDB: tables, partition-scheme support matrix, execution."""

import pytest

from repro.bench.tpcw_lab import TpcwLab
from repro.errors import UnsupportedStatementError
from repro.relational.company import company_schema
from repro.sim.clock import Simulation
from repro.sql import analyze_select, parse_statement
from repro.tpcw.queries import JOIN_QUERIES, VOLTDB_UNSUPPORTED
from repro.tpcw.schema import tpcw_schema
from repro.tpcw.workload import tpcw_workload
from repro.tpcw.writes import WRITE_STATEMENTS
from repro.voltdb.system import TPCW_SCHEMES, PartitionScheme, VoltDBSystem
from repro.voltdb.table import VoltTable
from tests.conftest import build_company_system, empty_company_system, plan_nodes


class TestVoltTable:
    def _table(self):
        return VoltTable(company_schema().relation("Employee"))

    def test_insert_get(self):
        t = self._table()
        t.insert({"EID": 1, "EName": "a", "EHome_AID": 1, "EOffice_AID": 1, "E_DNo": 1})
        assert t.rows[(1,)]["EName"] == "a"

    def test_index_lookup_tracks_updates(self):
        t = self._table()
        t.create_index("E_DNo")
        t.insert({"EID": 1, "EName": "a", "EHome_AID": 1, "EOffice_AID": 1, "E_DNo": 1})
        t.insert({"EID": 2, "EName": "b", "EHome_AID": 1, "EOffice_AID": 1, "E_DNo": 2})
        assert [r["EID"] for r in t.lookup("E_DNo", 1)] == [1]
        t.update((1,), {"E_DNo": 2})
        assert sorted(r["EID"] for r in t.lookup("E_DNo", 2)) == [1, 2]

    def test_delete_and_size(self):
        t = self._table()
        t.insert({"EID": 1, "EName": "a", "EHome_AID": 1, "EOffice_AID": 1, "E_DNo": 1})
        size = t.size_bytes
        assert size > 0
        assert t.delete((1,))
        assert t.size_bytes == 0
        assert not t.delete((1,))

    def test_insert_overwrite_replaces(self):
        t = self._table()
        t.insert({"EID": 1, "EName": "a", "EHome_AID": 1, "EOffice_AID": 1, "E_DNo": 1})
        t.insert({"EID": 1, "EName": "b", "EHome_AID": 1, "EOffice_AID": 1, "E_DNo": 1})
        assert len(t.rows) == 1
        assert t.rows[(1,)]["EName"] == "b"


@pytest.fixture(scope="module")
def volt():
    system = VoltDBSystem(tpcw_schema(), tpcw_workload(), sim=Simulation())
    from repro.tpcw.generator import TpcwDataGenerator

    gen = TpcwDataGenerator(20, seed=3)
    system.load(gen.all_rows())
    system.finish_load()
    return system, gen


def analyzed_query(qid):
    return analyze_select(parse_statement(JOIN_QUERIES[qid]), tpcw_schema())


class TestSupportMatrix:
    def test_unsupported_queries_match_paper(self, volt):
        """Fig. 12: Q3, Q7, Q9, Q10 carry an X."""
        system, _ = volt
        unsupported = {q for q in JOIN_QUERIES if not system.supports(q)}
        assert unsupported == set(VOLTDB_UNSUPPORTED)

    def test_all_writes_supported(self, volt):
        system, _ = volt
        assert all(system.supports(w) for w in WRITE_STATEMENTS)

    def test_q11_needs_scheme2(self, volt):
        system, _ = volt
        scheme = system.scheme_for(analyzed_query("Q11"))
        assert scheme is not None and scheme.name == "scheme2"

    def test_q4_needs_scheme3(self, volt):
        system, _ = volt
        scheme = system.scheme_for(analyzed_query("Q4"))
        assert scheme is not None and scheme.name == "scheme3"

    def test_unsupported_execution_raises(self, volt):
        system, gen = volt
        with pytest.raises(UnsupportedStatementError):
            system.execute(JOIN_QUERIES["Q7"], gen.params_for_query("Q7"))


class TestExecution:
    def test_q1_returns_order_lines(self, volt):
        system, gen = volt
        rows = system.execute(JOIN_QUERIES["Q1"], (5,))
        assert rows and all(r["ol_o_id"] == 5 for r in rows)
        assert all(r["i_id"] == r["ol_i_id"] for r in rows)

    def test_q2_latest_order(self, volt):
        system, gen = volt
        rows = system.execute(JOIN_QUERIES["Q2"], (gen.customer_uname(3),))
        assert len(rows) == 1
        assert rows[0]["o_c_id"] == 3

    def test_q11_grouping(self, volt):
        system, gen = volt
        rows = system.execute(JOIN_QUERIES["Q11"], (7,))
        assert len(rows) <= 5
        for r in rows:
            assert r["ol_i_id"] != 7

    def test_write_and_read_back(self, volt):
        system, _ = volt
        system.execute(WRITE_STATEMENTS["W6"], (999, 1.5))
        system.execute(WRITE_STATEMENTS["W11"], (2.5, 999))
        assert system.tables["Shopping_cart"].rows[(999,)]["sc_time"] == 2.5

    def test_filters_the_access_path_does_not_apply(self):
        """Residual predicates the per-table index lookup never sees:
        two columns of one binding compared with each other, an
        equality filter on a derived table, and DISTINCT."""
        system = empty_company_system("VoltDB")
        for eid in range(1, 11):
            system.load_row("Employee", {
                "EID": eid, "EName": f"emp{eid}", "EHome_AID": (eid % 5) + 1,
                "EOffice_AID": 1, "E_DNo": (eid % 2) + 1,
            })
        same_binding = system.execute(
            "SELECT e.EID FROM Employee as e WHERE e.EHome_AID = e.EOffice_AID"
        )
        assert sorted(r["EID"] for r in same_binding) == [5, 10]
        derived = system.execute(
            "SELECT d.EID FROM (SELECT e.EID, e.E_DNo FROM Employee as e) as d "
            "WHERE d.E_DNo = ?", (1,),
        )
        assert sorted(r["EID"] for r in derived) == [2, 4, 6, 8, 10]
        distinct = system.execute("SELECT DISTINCT e.E_DNo FROM Employee as e")
        assert sorted(r["E_DNo"] for r in distinct) == [1, 2]

    def test_single_partition_cheaper_than_multipart(self):
        system = _tpcw_system(TPCW_SCHEMES[0])
        _, single = system.timed("SELECT * FROM Item WHERE i_id = ?", (5,))
        _, multi = system.timed("SELECT * FROM Item WHERE i_title = ?", ("zzz",))
        assert multi > single

    def test_replication_multiplies_size(self):
        partitioned_size = _tpcw_system(TPCW_SCHEMES[0]).db_size_bytes()
        replicated = _tpcw_system(PartitionScheme("nothing-partitioned", {}))
        assert replicated.db_size_bytes() > partitioned_size


def _tpcw_system(scheme: PartitionScheme) -> VoltDBSystem:
    """VoltDB under ``scheme`` alone, loaded with 20 TPC-W customers."""
    from repro.tpcw.generator import TpcwDataGenerator

    system = VoltDBSystem(tpcw_schema(), tpcw_workload())
    system.schemes = (scheme,)
    system.load(TpcwDataGenerator(20, seed=3).all_rows())
    return system


def _examined(system: VoltDBSystem, sql: str, params=()) -> tuple[list, int]:
    """A multi-partition SELECT procedure's rows, and how many rows it
    was charged for: (ms - proc - multipart) / voltdb_row_ms."""
    cost = system.sim.cost
    rows, ms = system.timed(sql, params)
    body = ms - cost.voltdb_proc_base_ms - cost.voltdb_multipart_ms
    examined = round(body / cost.voltdb_row_ms)
    assert body == pytest.approx(examined * cost.voltdb_row_ms, abs=1e-9)
    return rows, examined


class TestProcedureBodyIsAPlan:
    """The body of a SELECT procedure is composed by ``SelectComposer``
    and run by the shared operators; the charge is leaf candidates +
    derived rows + every join's emitted rows. Company data: 10
    employees, 15 Works_On rows, 3 projects, 2 departments."""

    JOIN = (
        "SELECT e.EID FROM Employee as e, Works_On as w WHERE w.WO_EID = e.EID"
    )

    def test_plan_uses_only_the_shared_node_classes(self, volt, monkeypatch):
        from repro.phoenix import operators, plans
        from repro.voltdb import system as voltdb_system

        planned = []

        def recording(plan, ctx):
            planned.append(plan)
            return operators_stream(plan, ctx)

        operators_stream = voltdb_system.stream_rows
        monkeypatch.setattr(voltdb_system, "stream_rows", recording)
        system, gen = volt
        for qid in JOIN_QUERIES:
            if system.supports(qid):
                system.execute(JOIN_QUERIES[qid], gen.params_for_query(qid))
        assert len(planned) > 7  # Q11's derived table is its own procedure

        used = {type(n) for plan in planned for n in plan_nodes(plan.root)}
        assert used <= set(operators._LOWERING)
        assert used == {
            plans.SourceNode, plans.HashJoinNode, plans.FilterNode,
            plans.GroupByNode, plans.SortNode, plans.LimitNode,
        }

    def test_unlimited_join_is_charged_leaves_plus_join_output(self):
        rows, examined = _examined(build_company_system("VoltDB"), self.JOIN)
        assert len(rows) == 15
        assert examined == 10 + 15 + 15

    def test_limit_without_a_blocking_operator_stops_the_joins_early(self):
        """Like every HBase-backed system: the probe side is pulled one
        row at a time under a bounded demand, so only the join rows the
        LIMIT took are charged (both leaves are still read whole — an
        in-memory leaf materializes at its first pull)."""
        system = build_company_system("VoltDB")
        rows, examined = _examined(system, self.JOIN + " LIMIT 2")
        assert len(rows) == 2
        assert examined == 10 + 15 + 2
        # under an ORDER BY the sort drains the joins: nothing is saved
        rows, examined = _examined(
            system, self.JOIN + " ORDER BY e.EID LIMIT 2"
        )
        assert [r["EID"] for r in rows] == [1, 1]
        assert examined == 10 + 15 + 15

    def test_limit_zero_fetches_no_leaf(self):
        rows, examined = _examined(
            build_company_system("VoltDB"), self.JOIN + " LIMIT 0"
        )
        assert rows == [] and examined == 0

    def test_null_join_keys_never_match_and_are_not_charged(self):
        system = empty_company_system("VoltDB")
        for eid, dno in ((1, None), (2, None), (3, 1)):
            system.load_row("Employee", {
                "EID": eid, "EName": f"emp{eid}", "EHome_AID": 1,
                "EOffice_AID": 1, "E_DNo": dno,
            })
        rows, examined = _examined(
            system,
            "SELECT a.EID, b.EID FROM Employee as a, Employee as b "
            "WHERE a.E_DNo = b.E_DNo",
        )
        assert rows == [{"EID": 3, "b.EID": 3}]
        # 3 + 3 leaf rows + the one non-NULL match; the four NULL = NULL
        # pairs are never built into the hash table
        assert examined == 3 + 3 + 1

    def test_theta_connected_binding_joins_before_an_unconnected_one(self):
        """With no equi-connected binding left, the composer attaches a
        theta-connected one (Employee, filtered above the joins) before
        falling back to FROM order (Project would be a bare cross
        product): Department x Employee, then Project on its equi-join."""
        rows, examined = _examined(
            build_company_system("VoltDB"),
            "SELECT d.DNo, p.PNo, e.EID FROM Department as d, Project as p, "
            "Employee as e WHERE e.E_DNo < d.DNo and p.P_DNo = e.E_DNo",
        )
        # E_DNo = 1 < DNo = 2: five employees x project 2
        assert sorted(r["EID"] for r in rows) == [2, 4, 6, 8, 10]
        assert {(r["DNo"], r["PNo"]) for r in rows} == {(2, 2)}
        assert examined == 2 + 10 + 2 * 10 + 3 + 30


class TestOneRoute:
    def test_serial_execute_parses_and_analyses_once(self, volt, monkeypatch):
        """The text is parsed once, and a SELECT analysed once: the
        scheme choice and the procedure share that analysis."""
        from repro.systems import base
        from repro.voltdb import system as voltdb_system

        calls = {"parse": 0, "analyze": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (base, voltdb_system):
            monkeypatch.setattr(
                module, "parse_statement",
                counting("parse", module.parse_statement),
            )
        monkeypatch.setattr(
            voltdb_system, "analyze_select",
            counting("analyze", voltdb_system.analyze_select),
        )
        system, gen = volt
        for qid in ("Q1", "Q4"):
            calls.update(parse=0, analyze=0)
            system.execute(JOIN_QUERIES[qid], gen.params_for_query(qid))
            assert calls == {"parse": 1, "analyze": 1}, qid
        calls.update(parse=0, analyze=0)
        system.execute(WRITE_STATEMENTS["W6"], (998, 1.5))
        assert calls == {"parse": 1, "analyze": 0}

    def test_supports_sql_is_the_public_support_check(self, volt):
        system, _ = volt
        assert system.supports_sql(JOIN_QUERIES["Q1"])
        assert not system.supports_sql(JOIN_QUERIES["Q7"])
        assert system.supports_sql(WRITE_STATEMENTS["W6"])
        assert not system.supports_sql("DELETE FROM Order_line WHERE ol_o_id = ?")
        assert not system.supports_sql(
            "UPDATE Item SET i_cost = ? WHERE i_id > ?"
        )
        assert not system.supports("never-registered")


class TestSupportChecksChangeNothing:
    """A support check is a question: no scheme it tries stays in
    force. ``db_size_bytes`` (Table III) counts replicas under the
    primary scheme even after ``supports("Q4")`` found scheme3, and the
    next statement picks its own scheme."""

    def test_checks_leave_size_and_next_statement_alone(self):
        lab = TpcwLab(num_customers=10, repetitions=1)
        asked, plain = lab.build_system("VoltDB"), lab.build_system("VoltDB")
        lab.populate(asked)
        lab.populate(plain)
        size = plain.db_size_bytes()
        for qid, sql in JOIN_QUERIES.items():
            asked.supports(qid)
            asked.supports_sql(sql)
            asked.scheme_for(analyze_select(parse_statement(sql), lab.schema))
            assert asked.db_size_bytes() == size, qid
            # the next statement: the query itself where it runs
            nxt = qid if plain.supports(qid) else "Q1"
            params = lab.generator.params_for_query(nxt, 0)
            got, got_ms = asked.timed_id(nxt, params)
            expected, expected_ms = plain.timed_id(nxt, params)
            assert got == expected, qid
            assert repr(got_ms) == repr(expected_ms), qid


class TestDerivedTablesPickTheScheme:
    """A derived table runs under its outer statement's scheme, so a
    scheme is picked only if it admits every derived table's joins too."""

    ORDER_LINES = (
        "SELECT t.o_id FROM (SELECT o.o_id FROM Orders as o, Order_line as ol "
        "WHERE o.o_id = ol.ol_o_id) as t"
    )
    # Customer and Address are partitioned on c_id / addr_id everywhere
    NOWHERE = (
        "SELECT t.c_id FROM (SELECT c.c_id FROM Customer as c, Address as a "
        "WHERE c.c_addr_id = a.addr_id) as t"
    )

    @pytest.fixture(scope="class")
    def lab_systems(self):
        lab = TpcwLab(num_customers=10, repetitions=1)
        volt, baseline = lab.build_system("VoltDB"), lab.build_system("Baseline")
        lab.populate(volt)
        lab.populate(baseline)
        return lab, volt, baseline

    def test_derived_join_runs_under_the_scheme_admitting_it(self, lab_systems):
        lab, volt, baseline = lab_systems
        assert volt.supports_sql(self.ORDER_LINES)
        analyzed = analyze_select(parse_statement(self.ORDER_LINES), lab.schema)
        assert volt.scheme_for(analyzed).name == "scheme2"
        rows = volt.execute(self.ORDER_LINES, ())
        expected = baseline.execute(self.ORDER_LINES, ())
        assert rows and sorted(map(repr, rows)) == sorted(map(repr, expected))

    def test_derived_join_no_scheme_admits_is_refused_before_any_charge(
        self, lab_systems
    ):
        _, volt, _ = lab_systems
        assert not volt.supports_sql(self.NOWHERE)
        before = volt.sim.clock.now_ms
        with pytest.raises(UnsupportedStatementError):
            volt.execute(self.NOWHERE, ())
        assert volt.sim.clock.now_ms == before
