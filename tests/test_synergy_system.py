"""SynergySystem façade behaviours not covered elsewhere."""


from repro.relational.company import COMPANY_ROOTS, company_schema, company_workload
from repro.systems import SynergySystem
from tests.reference.sql import load_company


class TestFacade:
    def test_statements_cover_whole_workload(self, company_synergy):
        assert set(company_synergy.statements) == {"W1", "W2", "W3"}

    def test_reads_use_views(self, company_synergy):
        assert "MV_Address__Employee" in company_synergy.statements["W1"]
        assert "MV_Employee__Works_On" in company_synergy.statements["W2"]

    def test_execute_id(self, company_synergy):
        rows = company_synergy.execute_id("W1", (3,))
        assert len(rows) == 1

    def test_rewrite_ad_hoc_uses_materialized_views_only(self, company_synergy):
        sql = (
            "SELECT * FROM Employee as e, Address as a "
            "WHERE a.AID = e.EHome_AID and e.EID = ?"
        )
        rewritten = company_synergy.rewrite_ad_hoc(sql)
        assert "MV_Address__Employee" in rewritten
        # a join whose view was never selected stays on base tables
        sql2 = (
            "SELECT * FROM Employee as e, Dependent as d "
            "WHERE e.EID = d.DP_EID"
        )
        assert "MV_" not in company_synergy.rewrite_ad_hoc(sql2)

    def test_rewrite_ad_hoc_prints_text_the_parser_reads_back(self, company_synergy):
        from repro.sql.ast import Literal
        from repro.sql.parser import parse_statement

        rewritten = company_synergy.rewrite_ad_hoc(
            "SELECT * FROM Employee as e, Address as a "
            "WHERE a.AID = e.EHome_AID and e.EID = 0.00001"
        )
        assert "MV_Address__Employee" in rewritten
        literals = [
            c.right for c in parse_statement(rewritten).where
            if isinstance(c.right, Literal)
        ]
        assert literals == [Literal(0.00001)]

    def test_ad_hoc_write_passthrough(self, company_synergy):
        sql = "UPDATE Department SET DName = ? WHERE DNo = ?"
        assert company_synergy.rewrite_ad_hoc(sql) == sql

    def test_db_size_grows_with_writes(self, company_synergy):
        before = company_synergy.db_size_bytes()
        company_synergy.execute(
            "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            (3, 2, 5),
        )
        assert company_synergy.db_size_bytes() > before

    def test_describe_lists_everything(self, company_synergy):
        text = company_synergy.describe()
        assert "Address-Employee" in text
        assert "view-indexes" in text

    def test_timed_returns_positive_virtual_time(self, company_synergy):
        _, ms = company_synergy.timed(company_synergy.statements["W3"], (30,))
        assert ms > 0

    def test_two_tx_slaves_round_robin(self):
        system = SynergySystem(
            company_schema(), company_workload(), COMPANY_ROOTS, num_tx_slaves=2
        )
        load_company(system)
        system.finish_load()
        for i in range(4):
            system.execute(
                "INSERT INTO Address (AID, Street, City, Zip) VALUES (?, ?, ?, ?)",
                (100 + i, "s", "c", "z"),
            )
        walsizes = [len(s.wal) for s in system.txlayer.slaves]
        assert walsizes == [2, 2]

    def test_query_results_match_baseline_semantics(self, company_synergy):
        """Rewritten W2 returns exactly what the base-table join returns."""
        via_views = company_synergy.execute_id("W2", (1,))
        base_sql = company_workload().by_id("W2").sql
        via_base = company_synergy.execute(base_sql, (1,))
        key = lambda r: (r["EID"], r["WO_PNo"])
        assert sorted(map(key, via_views)) == sorted(map(key, via_base))
