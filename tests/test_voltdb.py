"""VoltDB engine: tables, partition-scheme support matrix, execution."""

import pytest

from repro.errors import UnsupportedStatementError
from repro.relational.company import company_schema
from repro.sim.clock import Simulation
from repro.tpcw.queries import JOIN_QUERIES, VOLTDB_UNSUPPORTED
from repro.tpcw.schema import tpcw_schema
from repro.tpcw.workload import tpcw_workload
from repro.tpcw.writes import WRITE_STATEMENTS
from repro.voltdb.system import TPCW_SCHEMES, PartitionScheme, VoltDBSystem
from repro.voltdb.table import VoltTable
from repro.systems.voltdb_sys import VoltDBEvaluatedSystem


class TestVoltTable:
    def _table(self):
        return VoltTable(company_schema().relation("Employee"))

    def test_insert_get(self):
        t = self._table()
        t.insert({"EID": 1, "EName": "a", "EHome_AID": 1, "EOffice_AID": 1, "E_DNo": 1})
        assert t.get((1,))["EName"] == "a"

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
        assert len(t) == 1
        assert t.get((1,))["EName"] == "b"


@pytest.fixture(scope="module")
def volt():
    system = VoltDBEvaluatedSystem(tpcw_schema(), tpcw_workload(),
                                   sim=Simulation())
    from repro.tpcw.generator import TpcwDataGenerator

    gen = TpcwDataGenerator(20, seed=3)
    system.load(gen.all_rows())
    system.finish_load()
    return system, gen


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
        scheme = system.scheme_for(JOIN_QUERIES["Q11"])
        assert scheme is not None and scheme.name == "scheme2"

    def test_q4_needs_scheme3(self, volt):
        system, _ = volt
        scheme = system.scheme_for(JOIN_QUERIES["Q4"])
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
        assert system.engine.tables["Shopping_cart"].get((999,))["sc_time"] == 2.5

    def test_filters_the_access_path_does_not_apply(self):
        """Residual predicates the per-table index lookup never sees:
        two columns of one binding compared with each other, an
        equality filter on a derived table, and DISTINCT."""
        system = VoltDBSystem(company_schema())
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
        system = VoltDBSystem(tpcw_schema(), Simulation(), TPCW_SCHEMES[0])
        from repro.tpcw.generator import TpcwDataGenerator

        for rel, row in TpcwDataGenerator(20, seed=3).all_rows():
            system.load_row(rel, row)
        _, single = system.timed("SELECT * FROM Item WHERE i_id = ?", (5,))
        _, multi = system.timed("SELECT * FROM Item WHERE i_title = ?", ("zzz",))
        assert multi > single

    def test_replication_multiplies_size(self):
        scheme_all_partitioned = TPCW_SCHEMES[0]
        sim = Simulation()
        system = VoltDBSystem(tpcw_schema(), sim, scheme_all_partitioned)
        from repro.tpcw.generator import TpcwDataGenerator

        for rel, row in TpcwDataGenerator(20, seed=3).all_rows():
            system.load_row(rel, row)
        partitioned_size = system.db_size_bytes()
        system.set_scheme(PartitionScheme("nothing-partitioned", {}))
        assert system.db_size_bytes() > partitioned_size
