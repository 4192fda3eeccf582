"""Federation mediator suite.

The mediator fronts all five evaluated systems at once; these tests pin
the three properties the bench's federation sweep relies on:

* **row equivalence** — a statement routed through the mediator (whole
  to one backend, or split into per-binding fragments merged through
  the streaming operators) returns exactly the rows a single system
  returns, including the VoltDB-unsupported joins that only execute
  federated via split;
* **determinism** — two mediators built from the same seed produce
  byte-identical routing decision logs and route records;
* **write safety** — writes broadcast to every supporting backend (so
  the backends stay convergent), and the session retry path refuses to
  re-execute a write that may already have applied on a backend whose
  sessions cannot roll back.

Seed 7 is shared with the equivalence suite: all engines agree on the
tie-prone Q11 top-5 there, so full-row canonicalization is safe.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.config import DEFAULT_COST_MODEL
from repro.errors import ReproError, TransactionError
from repro.federation import (
    FederationError,
    FederationWriteHazardError,
    RoutingAdvisor,
)
from repro.federation.decompose import decompose, split_eligible
from repro.federation.estimate import (
    estimate_ms,
    phoenix_estimate,
    voltdb_estimate,
)
from repro.federation.merge import plan_merge
from repro.phoenix.planner import SelectComposer
from repro.phoenix.plans import SourceNode
from repro.relational.company import company_schema
from repro.sql.analyzer import analyze_select
from repro.sql.parser import parse_statement
from repro.tpcw.queries import JOIN_QUERIES, VOLTDB_UNSUPPORTED
from repro.tpcw.writes import WRITE_STATEMENTS
from tests.conftest import build_mediator, build_tpcw_systems, run_four_client_schedule
from tests.reference.generators import four_client_txns
from tests.reference.sql import query_battery

SCALE = 25
SEED = 7

@pytest.fixture(scope="module")
def lab():
    return TpcwLab(num_customers=SCALE, repetitions=2, seed=SEED)


@pytest.fixture(scope="module")
def backends(lab):
    return build_tpcw_systems(lab, SYSTEM_NAMES)


@pytest.fixture(scope="module")
def mediator(lab, backends):
    return build_mediator(backends, lab.schema, lab.workload, seed=SEED)


def small_federation(names, num_customers=10):
    """A fresh small lab plus a mediator over just ``names`` — for
    tests that mutate state and must not disturb the module fixtures."""
    lab = TpcwLab(num_customers=num_customers, repetitions=1, seed=SEED)
    systems = build_tpcw_systems(lab, names)
    mediator = build_mediator(systems, lab.schema, lab.workload, seed=SEED)
    return lab, systems, mediator


# --------------------------------------------------------------- routing
class TestRoutedQueries:
    def test_mediator_supports_every_workload_statement(self, mediator):
        for sid in list(JOIN_QUERIES) + list(WRITE_STATEMENTS):
            assert mediator.supports(sid), sid

    def test_routed_battery_matches_single_system(
        self, mediator, backends, lab
    ):
        """Auto-routed execution is row-for-row identical to a pinned
        single system, for all 11 queries — including the four VoltDB
        cannot run whole."""
        routed = query_battery(mediator, lab)
        reference = query_battery(backends["Synergy"], lab)
        assert set(routed) == set(reference)
        for key in reference:
            assert routed[key] == reference[key], (
                f"mediator disagrees with Synergy on {key}"
            )

    def test_split_battery_matches_single_system(self, backends, lab):
        """Forcing decomposition: every multi-binding query splits into
        per-binding fragments, possibly on different backends, and the
        streaming merge reproduces the single-system rows."""
        split = build_mediator(
            backends, lab.schema, lab.workload, seed=SEED, mode="split"
        )
        battery = query_battery(split, lab)
        reference = query_battery(backends["Synergy"], lab)
        assert battery == reference
        split_qids = {
            rec.statement_id for rec in split.route_log if rec.mode == "split"
        }
        assert set(JOIN_QUERIES) <= split_qids

    def test_route_log_records_every_statement(self, mediator):
        assert mediator.route_log
        for rec in mediator.route_log:
            assert rec.mode in ("whole", "split", "broadcast")
            assert rec.assignments
            for a in rec.assignments:
                assert a["backend"] in mediator.backends
            json.dumps(dataclasses.asdict(rec))  # JSON-friendly

    def test_voltdb_unsupported_join_runs_federated(self, backends, lab):
        """Pinned to VoltDB the paper's 3-way joins are unsupported in
        whole mode; unpinned, the mediator still answers them (whole on
        a Phoenix backend, or split across fragments VoltDB can serve)."""
        pinned = build_mediator(
            backends, lab.schema, lab.workload,
            seed=SEED, mode="whole", pin="VoltDB",
        )
        for qid in VOLTDB_UNSUPPORTED:
            assert not pinned.supports(qid)
            with pytest.raises(FederationError):
                pinned.execute(pinned.statement(qid),
                               lab.generator.params_for_query(qid, 0))

    def test_pin_restricts_every_route(self, backends, lab):
        pinned = build_mediator(
            backends, lab.schema, lab.workload,
            seed=SEED, mode="whole", pin="MVCC-A",
        )
        battery = query_battery(pinned, lab)
        assert battery == query_battery(backends["MVCC-A"], lab)
        assert pinned.route_log
        for rec in pinned.route_log:
            assert all(a["backend"] == "MVCC-A" for a in rec.assignments)


# --------------------------------------------------------------- advisor
class TestRoutingAdvisor:
    def test_estimate_wins_until_enough_observations(self):
        advisor = RoutingAdvisor()
        advisor.observe("Q1", "A", 50.0)
        advisor.observe("Q1", "A", 50.0)
        cost, overridden = advisor.advised_cost("Q1", "A", 1.0)
        assert (cost, overridden) == (1.0, False)

    def test_diverged_ewma_overrides_and_reroutes(self):
        """A backend whose observed latency diverges from its estimate
        loses the route to the runner-up once the EWMA is trusted."""
        advisor = RoutingAdvisor()
        candidates = [("A", 1.0), ("B", 5.0)]
        for _ in range(3):
            assert advisor.choose("Q1", candidates, 0.0) == "A"
            advisor.observe("Q1", "A", 50.0)  # 50x worse than modeled
        assert advisor.choose("Q1", candidates, 0.0) == "B"
        last = advisor.decision_log[-1]
        assert last.rerouted == ("A",)
        assert last.costs["A"] == pytest.approx(50.0)

    def test_faster_than_modeled_backend_steals_the_route(self):
        advisor = RoutingAdvisor()
        for _ in range(3):
            advisor.observe("Q1", "B", 0.5)  # modeled 5.0, observed 0.5
        assert advisor.choose("Q1", [("A", 1.0), ("B", 5.0)], 0.0) == "B"

    def test_online_rerouting_spreads_statements_in_practice(
        self, backends, lab
    ):
        """Integration: after enough repetitions the observed EWMAs
        override the static estimates and at least one statement routes
        to more than one backend over its lifetime."""
        mediator = build_mediator(
            backends, lab.schema, lab.workload, seed=SEED
        )
        for rep in range(6):
            for qid in JOIN_QUERIES:
                params = lab.generator.params_for_query(qid, rep)
                mediator.execute(mediator.statement(qid), params)
        assert any(d.rerouted for d in mediator.advisor.decision_log)
        chosen: dict[str, set] = {}
        for d in mediator.advisor.decision_log:
            chosen.setdefault(d.statement_id, set()).add(d.chosen)
        assert any(len(s) >= 2 for s in chosen.values())


class TestDeterminism:
    def test_decision_and_route_logs_identical_across_fresh_builds(self):
        """Two from-scratch federations (same seed) produce
        byte-identical advisor decision logs and route records."""
        logs, routes = [], []
        for _ in range(2):
            lab, _, mediator = small_federation(SYSTEM_NAMES, num_customers=10)
            for rep in range(2):
                for qid in JOIN_QUERIES:
                    params = lab.generator.params_for_query(qid, rep)
                    mediator.execute(mediator.statement(qid), params)
            logs.append(json.dumps(mediator.advisor.log_dicts()))
            routes.append(
                json.dumps([dataclasses.asdict(r) for r in mediator.route_log])
            )
        assert logs[0] == logs[1]
        assert routes[0] == routes[1]


# --------------------------------------------------------------- writes
class TestBroadcastWrites:
    """Declared after the read-only classes on purpose: these mutate the
    module-scope backends (in lock-step, which is the property)."""

    def test_broadcast_write_applies_on_every_backend(
        self, mediator, backends
    ):
        mediator.execute("W9", (4242, 3))
        rec = mediator.route_log[-1]
        assert rec.mode == "broadcast"
        assert {a["backend"] for a in rec.assignments} == set(backends)
        for name, system in backends.items():
            rows = system.execute("SELECT * FROM Item WHERE i_id = ?", (3,))
            assert rows[0]["i_stock"] == 4242, name

    def test_scheduled_multi_client_session_run_converges(
        self, mediator, backends, lab
    ):
        """Four federated clients through the deterministic scheduler:
        every transaction commits, execution genuinely interleaves, and
        afterwards all five backends agree row for row on the full query
        battery (broadcast keeps them convergent)."""
        per_client = four_client_txns()
        report = run_four_client_schedule(mediator, per_client)

        total = sum(len(t) for t in per_client)
        assert report.committed == total
        assert report.steps > total  # genuinely interleaved
        batteries = {
            name: query_battery(system, lab)
            for name, system in backends.items()
        }
        reference = query_battery(mediator, lab)
        for name, battery in batteries.items():
            for key, rows in battery.items():
                assert rows == reference[key], (
                    f"{name} diverged from the federation on {key}"
                )


class TestWriteHazard:
    def test_abort_poisons_write_applied_on_no_rollback_backend(self):
        """Synergy sessions auto-commit (no rollback): after an aborted
        federated transaction the insert has applied there but not on
        the MVCC backend, and re-executing it must raise instead of
        double-applying."""
        lab, systems, mediator = small_federation(("Synergy", "MVCC-A"))
        probe = (
            "SELECT * FROM Shopping_cart_line "
            "WHERE scl_sc_id = ? and scl_i_id = ?"
        )
        key = (lab.generator.num_carts + 50, 1)
        session = mediator.open_session("c0")
        assert session.rolls_back_on_abort is False

        session.begin()
        session.execute("W7", key + (3,))
        session.abort()
        assert len(systems["Synergy"].execute(probe, key)) == 1
        assert len(systems["MVCC-A"].execute(probe, key)) == 0

        with pytest.raises(FederationWriteHazardError):
            session.execute("W7", key + (3,))
        # still applied exactly once — the hazard blocked the double-apply
        assert len(systems["Synergy"].execute(probe, key)) == 1

        # a *different* write is not poisoned
        other = (key[0] + 1, 1)
        session.begin()
        session.execute("W7", other + (3,))
        session.commit()
        assert len(systems["Synergy"].execute(probe, other)) == 1
        assert len(systems["MVCC-A"].execute(probe, other)) == 1

    def test_hazard_error_is_not_retried_as_a_conflict(self):
        """The scheduler's transaction loop retries TransactionError;
        the hazard must not be one, or a retry loop would spin on it."""
        assert issubclass(FederationWriteHazardError, ReproError)
        assert not issubclass(FederationWriteHazardError, TransactionError)

    def test_rollback_capable_federation_can_retry_after_abort(self):
        """With only MVCC backends every session rolls back on abort, so
        nothing is poisoned and the classic abort-then-retry works."""
        lab, systems, mediator = small_federation(("MVCC-A", "MVCC-UA"))
        probe = (
            "SELECT * FROM Shopping_cart_line "
            "WHERE scl_sc_id = ? and scl_i_id = ?"
        )
        key = (lab.generator.num_carts + 50, 1)
        session = mediator.open_session("c0")
        assert session.rolls_back_on_abort is True

        session.begin()
        session.execute("W7", key + (3,))
        session.abort()
        for system in systems.values():
            assert len(system.execute(probe, key)) == 0

        session.begin()
        session.execute("W7", key + (3,))  # retry is safe: nothing applied
        session.commit()
        for system in systems.values():
            assert len(system.execute(probe, key)) == 1


# --------------------------------------------------------------- errors
class TestFederationErrors:
    def test_no_backends_rejected(self, lab):
        with pytest.raises(FederationError):
            build_mediator({}, lab.schema, lab.workload)

    def test_unknown_mode_rejected(self, lab, backends):
        with pytest.raises(FederationError):
            build_mediator(backends, lab.schema, lab.workload, mode="bogus")

    def test_unregistered_pin_rejected(self, lab, backends):
        with pytest.raises(FederationError):
            build_mediator(backends, lab.schema, lab.workload, pin="Nope")

    def test_unknown_statement_id_unsupported(self, mediator):
        assert not mediator.supports("NOPE")


# --------------------------------------------------------------- the seams
# decompose / estimate / merge are plain functions: tested here directly,
# on the Company schema, without building a single backend.
class TestSeams:
    @staticmethod
    def analyzed(sql):
        schema = company_schema()
        return schema, analyze_select(parse_statement(sql), schema)

    def test_decompose_binds_filters_without_renumbering(self):
        # ?0 belongs to the SECOND fragment and ?1 to the first: each
        # fragment carries its own values, so neither is renumbered
        _, analyzed = self.analyzed(
            "SELECT e.EName, a.City FROM Employee as e, Address as a "
            "WHERE a.AID > ? and e.E_DNo = ? and e.EHome_AID = a.AID "
            "and a.City = 'Nashville' and e.EHome_AID <> e.EOffice_AID"
        )
        assert split_eligible(analyzed)
        e, a = decompose(analyzed, (1, 2))
        assert (e.binding, e.sql, e.params) == (
            "e", "SELECT * FROM Employee as e WHERE e.E_DNo = ?", (2,)
        )
        assert (a.binding, a.sql, a.params) == (
            "a",
            "SELECT * FROM Address as a WHERE a.AID > ? and a.City = ?",
            (1, "Nashville"),
        )
        assert e.attrs == ("EID", "EName", "EHome_AID", "EOffice_AID", "E_DNo")
        # the column/column filter went to neither fragment: merge-side

    def test_derived_tables_become_fragments_unless_they_bind_params(self):
        sql = (
            "SELECT e.EName, t.WO_EID FROM Employee as e, (SELECT w.WO_EID, "
            "COUNT(*) FROM Works_On as w {where}GROUP BY w.WO_EID) as t "
            "WHERE e.EID = t.WO_EID"
        )
        _, analyzed = self.analyzed(sql.format(where=""))
        assert split_eligible(analyzed)
        _, t = decompose(analyzed, ())
        assert t.sql.startswith("SELECT w.WO_EID") and t.params == ()
        assert t.attrs == ("WO_EID", "COUNT(*)")
        _, with_param = self.analyzed(sql.format(where="WHERE w.Hours > ? "))
        assert not split_eligible(with_param)
        _, single = self.analyzed("SELECT e.EID FROM Employee as e")
        assert not split_eligible(single)

    def test_voltdb_estimate_is_the_arithmetic_model(self):
        def table(n_rows, *indexed):
            return SimpleNamespace(
                rows=[None] * n_rows, has_index=lambda a: a in indexed
            )

        cost = DEFAULT_COST_MODEL
        tables = {"Employee": table(40, "E_DNo"), "Address": table(7)}
        _, analyzed = self.analyzed(
            "SELECT e.EName FROM Employee as e, Address as a, Project as p "
            "WHERE e.E_DNo = ? and a.City = 'x' and e.EHome_AID = a.AID"
        )
        # 1 + indexed equality (1) + unindexed scan (7) + unknown table (100)
        assert voltdb_estimate(cost, tables, analyzed) == pytest.approx(
            cost.voltdb_proc_base_ms + cost.voltdb_row_ms * 109.0
        )

    def test_backend_without_a_catalog_has_no_estimate(self):
        cost = DEFAULT_COST_MODEL
        backend = SimpleNamespace(sim=SimpleNamespace(cost=cost))
        sql = "SELECT e.EID FROM Employee as e, Address as a"
        _, analyzed = self.analyzed(sql)
        with pytest.raises(FederationError, match="no estimate prices"):
            estimate_ms(backend, analyzed)

    def test_statement_the_planner_cannot_plan_has_no_estimate(self, backends):
        with pytest.raises(FederationError, match="cannot price"):
            phoenix_estimate(
                backends["Baseline"], parse_statement("SELECT x.a FROM Nope as x")
            )

    def test_estimates_leave_the_backends_clocks_and_counters_alone(
        self, backends, lab
    ):
        for name, backend in backends.items():
            sim = backend.sim
            before = (sim.clock.now_ms, sim.metrics.counters())
            for sql in JOIN_QUERIES.values():
                analyzed = analyze_select(parse_statement(sql), lab.schema)
                assert estimate_ms(backend, analyzed) > 0.0
            assert (sim.clock.now_ms, sim.metrics.counters()) == before, name

    def test_merge_starts_in_from_order_and_attaches_equi_connected_first(self):
        # d is second in FROM order but only e connects to {a}: e attaches
        # first, d after; the e.EID comparison stays a residual filter
        _, analyzed = self.analyzed(
            "SELECT a.City, d.DName FROM Address as a, Department as d, "
            "Employee as e WHERE e.E_DNo = d.DNo and e.EHome_AID = a.AID "
            "and e.EID < e.E_DNo ORDER BY d.DName LIMIT 3"
        )
        leaves = {
            b: SourceNode(list, b, tuple((b, a) for a in analyzed.attrs[b]))
            for b in analyzed.bindings
        }
        planned = plan_merge(SelectComposer(), analyzed, leaves)
        assert planned.explain() == "\n".join((
            "LIMIT 3",
            "  SORT ((('d', 'DName'), False),)",
            "    FILTER (ColumnPredicate(left=('e', 'EID'), op='<', "
            "right=('e', 'E_DNo')),)",
            "      SYMMETRIC HASH JOIN on left=(('e', 'E_DNo'),) "
            "right=(('d', 'DNo'),)",
            "        SYMMETRIC HASH JOIN on left=(('a', 'AID'),) "
            "right=(('e', 'EHome_AID'),)",
            "          SOURCE a",
            "          SOURCE e",
            "        SOURCE d",
        ))
        assert [name for name, _ in planned.output] == ["City", "DName"]
