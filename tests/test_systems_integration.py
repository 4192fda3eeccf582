"""Cross-system integration: all five evaluated systems answer the TPC-W
queries identically (modulo X-ed VoltDB queries), writes take effect
everywhere, and the cost orderings the paper reports hold."""

import pytest

from repro.bench.tpcw_lab import TpcwLab
from repro.tpcw.queries import JOIN_QUERIES, VOLTDB_UNSUPPORTED
from repro.tpcw.writes import WRITE_STATEMENTS
from tests.conftest import build_tpcw_systems
from tests.reference.sql import canonical

SCALE = 30
SEED = 11


@pytest.fixture(scope="module")
def lab():
    return TpcwLab(num_customers=SCALE, repetitions=2, seed=SEED)


@pytest.fixture(scope="module")
def systems(lab):
    names = ("Synergy", "MVCC-A", "MVCC-UA", "Baseline", "VoltDB")
    return build_tpcw_systems(lab, names)


class TestResultConsistency:
    @pytest.mark.parametrize("qid", list(JOIN_QUERIES))
    def test_all_systems_agree(self, systems, lab, qid):
        params = lab.generator.params_for_query(qid, 0)
        reference = None
        for name, system in systems.items():
            if not system.supports(qid):
                assert name == "VoltDB" and qid in VOLTDB_UNSUPPORTED
                continue
            got = canonical(qid, system.execute(system.statement(qid), params))
            if reference is None:
                reference = (got, name)
            else:
                assert got == reference[0], (
                    f"{name} disagrees with {reference[1]} on {qid}"
                )

    def test_write_visible_after_insert_everywhere(self, systems):
        for name, system in systems.items():
            system.execute(
                WRITE_STATEMENTS["W6"], (5000, 1.0)
            )
            rows = system.execute(
                "SELECT * FROM Shopping_cart WHERE sc_id = ?", (5000,)
            )
            assert len(rows) == 1, name


class TestCostOrderings:
    """The qualitative results the paper's figures rest on."""

    def test_synergy_writes_cheapest_among_hbase_systems(self, systems, lab):
        params = lab.generator.params_for_write("W1", 500)
        _, synergy = systems["Synergy"].timed_id("W1", params)
        params = lab.generator.params_for_write("W1", 501)
        _, baseline = systems["Baseline"].timed_id("W1", params)
        assert synergy * 3 < baseline

    def test_mvcc_overhead_dominates_write_cost(self, systems, lab):
        params = lab.generator.params_for_write("W6", 600)
        _, ms = systems["Baseline"].timed_id("W6", params)
        cost = systems["Baseline"].sim.cost
        assert ms > (cost.mvcc_begin_ms + cost.mvcc_commit_ms) * 0.8

    def test_view_backed_query_beats_baseline_join(self, systems, lab):
        params = lab.generator.params_for_query("Q4", 1)
        _, synergy = systems["Synergy"].timed_id("Q4", params)
        _, baseline = systems["Baseline"].timed_id("Q4", params)
        assert synergy < baseline

    def test_cheap_writes_for_viewless_relations(self, systems, lab):
        """W6/W11 (Shopping_cart) are Synergy's cheapest writes (Fig. 14)."""
        synergy = systems["Synergy"]
        _, w6 = synergy.timed_id("W6", lab.generator.params_for_write("W6", 700))
        _, w13 = synergy.timed_id("W13", lab.generator.params_for_write("W13", 700))
        assert w6 < w13

    def test_voltdb_fastest_on_writes(self, systems, lab):
        _, volt = systems["VoltDB"].timed_id(
            "W6", lab.generator.params_for_write("W6", 800)
        )
        _, synergy = systems["Synergy"].timed_id(
            "W6", lab.generator.params_for_write("W6", 801)
        )
        assert volt < synergy

    def test_db_size_ordering_matches_table3(self, systems):
        sizes = {name: s.db_size_bytes() for name, s in systems.items()}
        assert sizes["VoltDB"] < sizes["Baseline"]
        assert sizes["Baseline"] < sizes["MVCC-UA"]
        assert sizes["MVCC-UA"] < sizes["Synergy"]
        assert abs(sizes["Synergy"] - sizes["MVCC-A"]) / sizes["Synergy"] < 0.05


class TestAdvisorOutcome:
    def test_mvcc_ua_has_single_q10_view(self, systems):
        ua = systems["MVCC-UA"]
        assert len(ua.recommendations) == 1
        cand = ua.recommendations[0]
        assert cand.view.relations == ("Author", "Item", "Order_line")
        assert cand.source_queries == ("Q10",)
        assert "ADV_" in ua.statement("Q10")
        assert "ADV_" not in ua.statement("Q4")

    def test_advisor_view_projection_is_narrow(self, systems):
        ua = systems["MVCC-UA"]
        entry = ua.catalog.view(ua.recommendations[0].view.name)
        assert "i_desc" not in entry.attrs  # wide column not projected
        assert "ol_qty" in entry.attrs
