"""SynergySystem façade behaviours not covered elsewhere."""


from repro.bench.tpcw_lab import TpcwLab
from repro.relational.company import COMPANY_ROOTS, company_schema, company_workload
from repro.sql.ast import Literal, Select
from repro.sql.parser import parse_statement
from repro.synergy.rewrite import rewrite_query
from repro.systems import SynergySystem
from tests.conftest import build_tpcw_systems
from tests.reference.sql import load_company


class TestFacade:
    def test_statements_cover_whole_workload(self, company_synergy):
        assert set(company_synergy.statements) == {"W1", "W2", "W3"}

    def test_reads_use_views(self, company_synergy):
        assert "MV_Address__Employee" in company_synergy.statements["W1"]
        assert "MV_Employee__Works_On" in company_synergy.statements["W2"]

    def test_rewritten_statement_executes(self, company_synergy):
        rows = company_synergy.execute(company_synergy.statements["W1"], (3,))
        assert len(rows) == 1

    def test_rewritten_text_reads_back_through_the_parser(self, company_synergy):
        """A rewritten SELECT is executed as printed text: the printer's
        output parses back to the same text, literals included."""
        for text in company_synergy.statements.values():
            assert isinstance(parse_statement(text), Select)
            assert str(parse_statement(text)) == text
        select = parse_statement(
            "SELECT * FROM Employee as e, Address as a "
            "WHERE a.AID = e.EHome_AID and e.EID = 0.00001"
        )
        views = company_synergy.design.selection.per_query["W1"]
        rewritten = str(rewrite_query(select, company_synergy.schema, views).select)
        assert "MV_Address__Employee" in rewritten
        literals = [
            c.right for c in parse_statement(rewritten).where
            if isinstance(c.right, Literal)
        ]
        assert literals == [Literal(0.00001)]

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
        via_views = company_synergy.execute(company_synergy.statements["W2"], (1,))
        base_sql = company_workload().by_id("W2").sql
        via_base = company_synergy.execute(base_sql, (1,))
        key = lambda r: (r["EID"], r["WO_PNo"])
        assert sorted(map(key, via_views)) == sorted(map(key, via_base))


class TestViewIndexes:
    def test_view_index_beats_a_full_view_scan(self):
        """View-index ablation (Sec. VI-C): Q2 filters the Customer-Orders
        view on c_uname through ix_c_uname; filtering on the unindexed
        c_fname scans the whole view. The indexed path must win by more
        than ~3 sigma of jitter on a mean of ``reps`` samples."""
        lab = TpcwLab(num_customers=50, repetitions=1, seed=171001792)
        synergy = build_tpcw_systems(lab, ["Synergy"])["Synergy"]
        reps = 5
        with_index = no_index = 0.0
        for rep in range(reps):
            params = lab.generator.params_for_query("Q2", 5 + rep)
            with_index += synergy.timed(synergy.statements["Q2"], params)[1] / reps
            no_index += synergy.timed(
                "SELECT * FROM MV_Customer__Orders WHERE c_fname = ? "
                "ORDER BY o_date DESC, o_id DESC LIMIT 1",
                (params[0].replace("uname", "Cf"),),
            )[1] / reps
        margin = 3.0 * lab.jitter_fraction * max(with_index, no_index) / reps**0.5
        assert no_index > with_index + margin, (with_index, no_index, margin)
