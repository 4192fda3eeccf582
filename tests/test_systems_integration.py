"""Cross-system integration: all five evaluated systems answer the TPC-W
queries identically (modulo X-ed VoltDB queries) and writes take effect
everywhere. The cost orderings the paper reports are the ``tpcw`` smoke
gate's checks (``tests/test_bench.py::TestFigureGates``)."""

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
