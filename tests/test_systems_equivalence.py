"""Differential cross-system equivalence suite.

The same TPC-W statement sequence is driven through Synergy, MVCC-A,
MVCC-UA and VoltDB, and every query's result set must agree row for row
across systems — first as a single client issuing an interleaved
read/write script, then as a 4-client schedule through the
deterministic cooperative scheduler. The 4-client schedule writes
disjoint key slices per client, so the final database state is
schedule-independent and must converge across systems even though each
system interleaves the clients differently (different virtual
latencies -> different resume orders).
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from repro.bench.tpcw_lab import TpcwLab
from repro.errors import SqlError, UnsupportedStatementError, WorkloadError
from repro.sim.scheduler import DeterministicScheduler
from repro.tpcw.queries import JOIN_QUERIES, VOLTDB_UNSUPPORTED
from repro.tpcw.writes import WRITE_STATEMENTS
from tests.conftest import (
    build_company_federation, build_company_system, build_tpcw_systems,
    run_four_client_schedule,
)
from tests.reference.generators import (
    ROUTED_QUERIES, ROUTED_SEED, QuerySpec, WriteSpec, four_client_txns,
    generate_query, generate_write,
)
from tests.reference.sql import (
    TABLES, canonical, company_rows, query_battery, ref_execute, ref_write,
)

SCALE = 25
SEED = 7
SYSTEMS = ("Synergy", "MVCC-A", "MVCC-UA", "VoltDB")

#: One repetition of the single-client script: the 13 writes in W1..W13
#: order (inserts before the statements that reference them) with the 11
#: queries interleaved so each query runs right after writes it can see.
SCRIPT = (
    ("w", "W1"), ("q", "Q7"), ("w", "W2"), ("w", "W3"), ("q", "Q1"),
    ("w", "W4"), ("w", "W5"), ("q", "Q3"), ("w", "W6"), ("w", "W7"),
    ("q", "Q8"), ("w", "W8"), ("w", "W9"), ("q", "Q6"), ("w", "W10"),
    ("q", "Q4"), ("q", "Q5"), ("w", "W11"), ("w", "W12"), ("q", "Q9"),
    ("w", "W13"), ("q", "Q2"), ("q", "Q10"), ("q", "Q11"),
)


@pytest.fixture(scope="module")
def lab():
    return TpcwLab(num_customers=SCALE, repetitions=2, seed=SEED)


@pytest.fixture(scope="module")
def systems(lab):
    return build_tpcw_systems(lab, SYSTEMS)


def assert_batteries_agree(batteries: dict[str, dict]) -> None:
    reference_name = SYSTEMS[0]
    reference = batteries[reference_name]
    for name, battery in batteries.items():
        for key, rows in battery.items():
            if key not in reference:
                assert name == "VoltDB" and key[0] in VOLTDB_UNSUPPORTED
                continue
            assert rows == reference[key], (
                f"{name} disagrees with {reference_name} on {key}"
            )


class TestSingleClientScript:
    def test_interleaved_script_row_for_row(self, systems, lab):
        """Replay the same read/write script on every system; each
        query's rows must match the reference system's exactly."""
        transcripts = {name: {} for name in SYSTEMS}
        for name, system in systems.items():
            for rep in range(2):
                for kind, sid in SCRIPT:
                    if not system.supports(sid):
                        assert name == "VoltDB" and sid in VOLTDB_UNSUPPORTED
                        continue
                    if kind == "q":
                        params = lab.generator.params_for_query(sid, rep)
                        rows = system.execute(system.statement(sid), params)
                        transcripts[name][(sid, rep)] = canonical(sid, rows)
                    else:
                        params = lab.generator.params_for_write(sid, rep)
                        system.execute(system.statement(sid), params)
        assert_batteries_agree(transcripts)

    def test_post_script_battery_row_for_row(self, systems, lab):
        """After the scripted mutations, a full fresh query battery
        still agrees across systems (catches divergence the in-script
        queries did not observe, e.g. stale view rows)."""
        assert_batteries_agree(
            {name: query_battery(systems[name], lab) for name in SYSTEMS}
        )


@pytest.fixture(scope="module")
def four_client_reports(systems, lab):
    """Run the 4-client schedule once on every system; both schedule
    tests consume this, so each passes when selected in isolation."""
    per_client = four_client_txns()
    return per_client, {
        name: run_four_client_schedule(system, per_client)
        for name, system in systems.items()
    }


class TestFourClientSchedule:
    def test_scheduled_mutations_converge_row_for_row(
        self, systems, lab, four_client_reports
    ):
        """Drive the same 4-client transaction mix through each system's
        scheduler; every client's writes land (disjoint keys -> no lost
        work) and the final query battery agrees row for row."""
        per_client, reports = four_client_reports
        total_txns = sum(len(t) for t in per_client)
        for name, report in reports.items():
            assert report.committed == total_txns, name
            assert report.steps > total_txns  # genuinely interleaved
        assert_batteries_agree(
            {name: query_battery(systems[name], lab) for name in SYSTEMS}
        )

    def test_mutated_rows_identical_across_systems(
        self, systems, four_client_reports
    ):
        """Point-read every row the schedule wrote: the last-writer
        value per key must be identical on all four systems."""
        for c in range(4):
            i_id, c_id, sc_id = c + 1, c + 1, c + 1
            expected_stock = 1000 * (c + 1) + 2  # t == 2 is the last txn
            for name, system in systems.items():
                item = system.execute(
                    "SELECT * FROM Item WHERE i_id = ?", (i_id,)
                )
                assert item[0]["i_stock"] == expected_stock, name
                cust = system.execute(
                    "SELECT * FROM Customer WHERE c_id = ?", (c_id,)
                )
                assert cust[0]["c_balance"] == float(expected_stock), name
                cart = system.execute(
                    "SELECT * FROM Shopping_cart WHERE sc_id = ?", (sc_id,)
                )
                assert cart[0]["sc_time"] == float(expected_stock), name


class TestStreamingEngine:
    """The operator pipeline returns the same rows when queries run
    through the deterministic cooperative scheduler at 4 clients as when
    one client runs them serially."""

    @pytest.fixture(scope="class")
    def systems(self):
        out = []
        for _ in range(2):
            lab = TpcwLab(num_customers=SCALE, repetitions=2, seed=SEED)
            out.append((lab, build_tpcw_systems(lab, ["Baseline"])["Baseline"]))
        return out

    def test_streaming_scheduled_rows_equal_legacy_serial(self, systems):
        lab, serial_system = systems[0]
        serial = {}
        for qid in JOIN_QUERIES:
            params = lab.generator.params_for_query(qid, 0)
            serial[qid] = canonical(
                qid, serial_system.execute(serial_system.statement(qid), params)
            )

        s_lab, streaming = systems[1]
        scheduler = DeterministicScheduler(streaming.sim)
        collected: dict[str, list] = {}
        qids = list(JOIN_QUERIES)
        for i in range(4):
            session = streaming.open_session(f"c{i}")
            share = qids[i::4]

            def program(client, session=session, share=share):
                for qid in share:
                    params = s_lab.generator.params_for_query(qid, 0)
                    yield "op"
                    rows = session.execute(streaming.statement(qid), params)
                    collected[qid] = canonical(qid, rows)

            scheduler.add_client(f"c{i}", program)
        report = scheduler.run()
        assert report.steps >= len(qids)
        assert collected == serial


class TestStreamingEarlyClose:
    """LIMIT-abandoned operator trees must release their scanner state:
    in-flight batch charges settle and the region-server serial window
    is released at close time (the PR 4 scan-finally guarantee, driven
    through the cursor) — and a LIMIT must not make the stores read one
    row more than the rows it returns need."""

    #: Big enough that Orders (10x customers) spans several operator
    #: batches and several scan-batch charge boundaries — at tiny scales
    #: one 256-row batch swallows a whole table and nothing closes early.
    EARLY_CLOSE_SCALE = 120

    @pytest.fixture(scope="class")
    def baseline(self):
        lab = TpcwLab(
            num_customers=self.EARLY_CLOSE_SCALE, repetitions=1, seed=SEED,
        )
        return build_tpcw_systems(lab, ["Baseline"])["Baseline"]

    def test_abandoned_cursor_settles_batch_and_releases_window(self, baseline):
        from repro.phoenix.executor import stream_rows
        from repro.phoenix.plans import ExecutionContext
        from repro.sim.scheduler import ConcurrencyContext

        conn, sim = baseline.conn, baseline.sim
        ctx = ConcurrencyContext()
        sim.concurrency = ctx
        try:
            # Order_line is bigger than one operator batch, so after a
            # few rows the region scan is still mid-flight
            planned = conn.plan("SELECT ol.ol_o_id FROM Order_line as ol")
            cursor = stream_rows(planned, ExecutionContext(conn, ()))
            for _ in range(5):
                next(cursor)
            counters = sim.metrics.counters()
            rpc_before = counters["client.rpc"]
            bytes_before = counters.get("client.bytes", 0)
            cursor.close()  # consumer abandons the operator tree
            counters = sim.metrics.counters()
            assert counters["client.rpc"] == rpc_before + 1  # settled batch
            assert counters["client.bytes"] > bytes_before
            # the scan's finally released the server's serial window as
            # of the settlement clock — nothing left holding the region
            assert ctx._serial_busy_until
            assert max(ctx._serial_busy_until.values()) == sim.clock.now_ms
        finally:
            sim.concurrency = None

    @staticmethod
    def _reads(sim, run):
        """``(result, store rows read, client bytes, client RPCs)`` of
        ``run()``, from the public counter deltas."""
        before = sim.metrics.counters()
        result = run()
        delta = {
            name: value - before.get(name, 0)
            for name, value in sim.metrics.counters().items()
        }
        rows_read = sum(
            value for name, value in delta.items()
            if name.startswith("rs.") and name.endswith(".rows_read")
        )
        return result, rows_read, delta["client.bytes"], delta["client.rpc"]

    @pytest.mark.parametrize(
        "where, qualifies",
        (("", lambda row: True), ("WHERE ol_id > 1 ", lambda row: row["ol_id"] > 1)),
        ids=("every-row", "key-predicate"),
    )
    def test_limit_over_a_scan_reads_up_to_the_nth_qualifying_row(
        self, baseline, where, qualifies
    ):
        """300 > one operator batch: a full batch and the remainder of
        the demand are both pulled. The oracle walks the raw table scan
        and abandons it at the 300th qualifying row."""
        from repro.hbase.ops import Scan

        conn, sim = baseline.conn, baseline.sim
        sql = f"SELECT ol_o_id, ol_id FROM Order_line {where}LIMIT 300"
        entry = conn.plan(sql).root.child.access.entry

        def raw_prefix():
            scan = conn.client.table(entry.name).scan(
                Scan(columns=entry.projection())
            )
            rows = []
            for result in scan:
                row = entry.result_to_row(result)
                if qualifies(row):
                    rows.append({"ol_o_id": row["ol_o_id"], "ol_id": row["ol_id"]})
                    if len(rows) == 300:
                        break
            scan.close()
            return rows

        expected, *expected_reads = self._reads(sim, raw_prefix)
        rows, *reads = self._reads(sim, lambda: conn.execute_query(sql))
        assert rows == expected and len(rows) == 300
        assert reads == expected_reads

    def test_limit_closes_scans_before_exhaustion(self, baseline):
        """Under a LIMIT the broadcast join still reads its build side
        whole, but its probe side stops at the row that yields the last
        match asked for — far short of the un-limited join."""
        conn, sim = baseline.conn, baseline.sim
        join = (
            "SELECT o.o_id, o2.o_id FROM Orders as o, Orders as o2 "
            "WHERE o.o_date = o2.o_date and o.o_id <> o2.o_id"
        )
        orders = conn.execute_query("SELECT o_id, o_date FROM Orders")
        same_day: dict = {}
        for row in orders:
            same_day[row["o_date"]] = same_day.get(row["o_date"], 0) + 1
        matches = probe_rows = 0
        for row in orders:  # the probe side streams in key order
            probe_rows += 1
            matches += same_day[row["o_date"]] - 1
            if matches >= 64:
                break

        rows, limited_read, _, limited_rpcs = self._reads(
            sim, lambda: conn.execute_query(join + " LIMIT 64")
        )
        assert len(rows) == 64
        assert limited_read == len(orders) + probe_rows
        _, full_read, _, full_rpcs = self._reads(
            sim, lambda: conn.execute_query(join)
        )
        assert full_read == 2 * len(orders)
        assert probe_rows * 4 < len(orders)
        assert limited_rpcs < full_rpcs

    def test_limit_zero_touches_no_store(self, baseline):
        conn, sim = baseline.conn, baseline.sim
        for sql in (
            "SELECT o_id FROM Orders LIMIT 0",
            "SELECT o.o_id FROM Orders as o, Orders as o2 "
            "WHERE o.o_date = o2.o_date LIMIT 0",
        ):
            rows, *reads = self._reads(sim, lambda: conn.execute_query(sql))
            assert rows == [] and reads == [0, 0, 0], sql

    def test_no_operator_returns_more_than_its_demand(self, baseline, monkeypatch):
        """The demand contract, checked from outside the hot path on
        every operator of the TPC-W battery and of LIMITs nested in
        derived tables: at most ``demand`` rows per call, never an empty
        batch."""
        from repro.phoenix import operators

        calls = []

        def checked(cls):
            pull = cls.next_batch

            def next_batch(self, demand=None):
                batch = pull(self, demand)
                assert batch is None or 0 < len(batch) <= (demand or len(batch))
                calls.append((cls.__name__, demand, len(batch or ())))
                return batch

            monkeypatch.setattr(cls, "next_batch", next_batch)

        for name in operators.__all__:
            cls = getattr(operators, name)
            if isinstance(cls, type) and cls is not operators.PhysicalOperator:
                checked(cls)

        conn, sim = baseline.conn, baseline.sim
        gen = TpcwLab(num_customers=self.EARLY_CLOSE_SCALE, seed=SEED).generator
        for qid in JOIN_QUERIES:
            baseline.execute(baseline.statement(qid), gen.params_for_query(qid, 0))
        assert {name for name, _, _ in calls} >= {
            "StreamingScan", "IndexNestedLoopJoin", "BroadcastHashJoin",
            "HashGroupBy", "StreamingSort", "Limit",
        }

        del calls[:]
        nested = (
            "SELECT d.o_id FROM (SELECT o_id FROM Orders LIMIT 40) as d, "
            "(SELECT o_id FROM Orders LIMIT 7) as d2 LIMIT 5"
        )
        rows, rows_read, _, _ = self._reads(sim, lambda: conn.execute_query(nested))
        assert len(rows) == 5
        # the build side's LIMIT is asked for all it has; the probe
        # side's for one row, which already yields 7 matches
        assert rows_read == 7 + 1
        limits = [(demand, n) for name, demand, n in calls if name == "Limit" and n]
        assert limits == [(None, 7), (1, 1), (None, 5)]


class TestSupportsTruthfulProbe:
    """Differential probe of ``supports()``: for every workload
    statement id on every system, a True claim must execute cleanly and
    a False claim must refuse with UnsupportedStatementError — no
    over-claiming (the old base default answered True for everything)
    and no under-claiming."""

    @pytest.fixture(scope="class")
    def probe(self):
        # own small-scale fixtures: the probe EXECUTES every write, so
        # it must not share state with the module-scope systems above
        lab = TpcwLab(num_customers=10, repetitions=1, seed=SEED)
        return lab, build_tpcw_systems(lab, (*SYSTEMS, "Baseline"))

    def test_every_statement_id_on_every_system(self, probe):
        lab, systems = probe
        refused = set()
        for name, system in systems.items():
            for sid in (*JOIN_QUERIES, *WRITE_STATEMENTS):
                params = (
                    lab.generator.params_for_query(sid, 0)
                    if sid in JOIN_QUERIES
                    else lab.generator.params_for_write(sid, 0)
                )
                if system.supports(sid):
                    system.execute(system.statement(sid), params)
                else:
                    refused.add((name, sid))
                    with pytest.raises(UnsupportedStatementError):
                        system.execute(system.statement(sid), params)
        # the only truthful refusals are VoltDB's multi-way joins
        assert refused == {("VoltDB", q) for q in VOLTDB_UNSUPPORTED}

    def test_unknown_statement_id_unsupported_everywhere(self, probe):
        _, systems = probe
        for name, system in systems.items():
            assert not system.supports("NOPE"), name


class TestRoutedRandomQueries:
    """PR 8's random-query generator, driven through the federation
    mediator: whole-routed and split-routed execution over a registry of
    differently-configured backends (a rule-planned and a cost-planned
    Baseline plus an all-replicated VoltDB), and whole-routed execution pinned to VoltDB,
    must match the naive reference model row for row, and the advisor's
    decision log must be byte-identical across fresh rebuilds."""

    @pytest.mark.parametrize(
        "mode,pin",
        (("whole", None), ("split", None), ("whole", "voltdb")),
        ids=("whole", "split", "pinned-voltdb"),
    )
    def test_routed_random_queries_match_reference(self, mode, pin):
        mediator = build_company_federation(mode, pin)
        data = company_rows()
        rng = random.Random(ROUTED_SEED)
        for i in range(ROUTED_QUERIES):
            spec = generate_query(rng)
            expected = sorted(ref_execute(spec, data))
            rows = mediator.execute(spec.sql, spec.params)
            got = sorted(tuple(r.values()) for r in rows)
            assert got == expected, (
                f"routed query #{i} (mode={mode}, pin={pin}) diverged:\n{spec.sql}\n"
                f"params={spec.params}\nexpected={expected}\ngot={got}"
            )
        if mode == "split":
            # multi-binding specs genuinely decomposed into fragments
            assert any(r.mode == "split" for r in mediator.route_log)

    def test_advisor_decision_log_byte_identical_across_rebuilds(self):
        logs = []
        for _ in range(2):
            mediator = build_company_federation("auto")
            rng = random.Random(ROUTED_SEED)
            for _i in range(ROUTED_QUERIES):
                spec = generate_query(rng)
                mediator.execute(spec.sql, spec.params)
            logs.append(json.dumps(mediator.advisor.log_dicts()))
        assert logs[0] == logs[1]


class TestRefusedWrites:
    """Every system reads a write statement through the one
    ``compile_write``, so a malformed INSERT is refused the same way —
    and before anything is stored — on all five (Company schema)."""

    ADDRESSES = "SELECT * FROM Address"
    NAMES = ("Synergy", "MVCC-A", "MVCC-UA", "Baseline", "VoltDB")

    @pytest.fixture(scope="class", params=NAMES)
    def system(self, request):
        return build_company_system(request.param)

    def addresses(self, system):
        return sorted(r["AID"] for r in system.execute(self.ADDRESSES))

    def test_unbound_key_attribute_is_refused(self, system):
        before = self.addresses(system)
        with pytest.raises(UnsupportedStatementError):
            system.execute("INSERT INTO Address (Street) VALUES (?)", ("x",))
        assert self.addresses(system) == before

    def test_arity_mismatch_is_refused(self, system):
        before = self.addresses(system)
        with pytest.raises(WorkloadError):
            system.execute(
                "INSERT INTO Address (AID, Street, City, Zip) VALUES (?, ?)",
                (77, "x"),
            )
        assert self.addresses(system) == before

    def employees(self, system):
        return sorted(
            tuple(r.values()) for r in system.execute("SELECT * FROM Employee")
        )

    def test_non_key_where_conjunct_is_refused(self, system):
        """The WHERE of a single-row write is key equalities only: a
        conjunct on another column is refused, not ignored (row 1 is
        not renamed, row 2 is not deleted)."""
        before = self.employees(system)
        for sql in (
            "UPDATE Employee SET EName = 'zz' WHERE EID = 1 AND EName = 'nomatch'",
            "DELETE FROM Employee WHERE EID = 2 AND EName = 'nomatch'",
        ):
            with pytest.raises(UnsupportedStatementError, match="key-equality"):
                system.execute(sql)
        assert self.employees(system) == before

    def test_unknown_column_in_set_or_where_is_refused(self, system):
        before = self.employees(system)
        for sql in (
            "UPDATE Employee SET nosuch = 'zz' WHERE EID = 1",
            "UPDATE Employee SET EName = 'zz' WHERE EID = 1 AND nosuch = 1",
            "DELETE FROM Employee WHERE EID = 2 AND nosuch = 1",
        ):
            with pytest.raises(SqlError, match="nosuch"):
                system.execute(sql)
        assert self.employees(system) == before

    def test_unknown_insert_column_is_refused(self, system):
        before = self.employees(system)
        with pytest.raises(SqlError, match="nosuch"):
            system.execute(
                "INSERT INTO Employee (EID, EName, nosuch) VALUES (77, 'x', 1)"
            )
        assert self.employees(system) == before

    def test_session_commits_the_rest_after_a_refusal(self, system):
        """A statement refused inside ``begin()`` ... ``commit()`` leaves
        the transaction's other writes untouched (this is the only path
        on which an ``MvccSession`` buffers compiled intents)."""
        before = self.addresses(system)
        session = system.open_session("c0")
        session.begin()
        session.execute(
            "INSERT INTO Address (AID, Street, City, Zip) VALUES (?, ?, ?, ?)",
            (88, "s", "c", "z"),
        )
        with pytest.raises(UnsupportedStatementError):
            session.execute("INSERT INTO Address (Street) VALUES (?)", ("x",))
        session.execute("UPDATE Address SET City = ? WHERE AID = ?", ("moved", 1))
        session.commit()
        assert self.addresses(system) == sorted(before + [88])
        rows = system.execute("SELECT City FROM Address WHERE AID = ?", (1,))
        assert [r["City"] for r in rows] == ["moved"]


class TestKeyUpdateRefusedWhenIssued:
    """The HBase-backed systems refuse an UPDATE of a key attribute when
    it is compiled, so inside an MVCC ``begin()`` ... ``commit()`` it is
    refused before it is buffered. It used to be refused only when the
    intent was applied: ``commit`` stored the statements before it,
    then raised."""

    HOURS = "SELECT Hours FROM Works_On WHERE WO_EID = ? and WO_PNo = ?"

    @pytest.mark.parametrize("name", ["MVCC-A", "MVCC-UA"])
    def test_refused_when_issued_and_nothing_is_applied(self, name):
        system = build_company_system(name)
        session = system.open_session("c0")
        session.begin()
        session.execute(
            "UPDATE Works_On SET Hours = ? WHERE WO_EID = ? and WO_PNo = ?",
            (55, 2, 2),
        )
        with pytest.raises(UnsupportedStatementError, match="cannot be updated"):
            session.execute(
                "UPDATE Works_On SET WO_PNo = ? WHERE WO_EID = ? and WO_PNo = ?",
                (9, 2, 2),
            )
        session.abort()
        assert system.execute(self.HOURS, (2, 2)) == [{"Hours": 20}]
        assert system.execute(self.HOURS, (2, 9)) == []


class TestUnknownColumns:
    """A column no FROM binding has is a ``SqlError`` wherever it is
    named — projection, WHERE, GROUP BY, ORDER BY, a derived table's
    columns — on all five systems and through the federation mediator,
    never a column of NULLs or a clause silently dropped. The analyzer
    is the one resolver, so a derived table's column named bare is the
    same column as ``alias.col``, and a bare name both a base and a
    derived binding have is ambiguous."""

    DERIVED = "(SELECT EID FROM Employee) as d"
    UNKNOWN = (
        "SELECT nosuch FROM Employee",
        "SELECT e.nosuch FROM Employee as e",
        f"SELECT x FROM {DERIVED}",
        f"SELECT d.x FROM {DERIVED}",
        f"SELECT d.EID FROM {DERIVED} WHERE d.x = 3",
        "SELECT EID FROM Employee ORDER BY nosuch",
        "SELECT COUNT(*) FROM Employee GROUP BY nosuch",
        "SELECT SUM(nosuch) FROM Employee",
        "SELECT d.DName FROM Employee as e, Department as d "
        "WHERE e.E_DNo = d.DNo ORDER BY e.nosuch",
        # TRUE is no keyword: a bare column no binding has
        "SELECT e.EID FROM Employee as e WHERE e.E_DNo = TRUE",
    )
    AMBIGUOUS = (
        f"SELECT EID FROM Employee as e, {DERIVED} WHERE e.EID = d.EID"
    )
    BARE, QUALIFIED = (
        f"SELECT {col} FROM (SELECT e.EID FROM Employee as e WHERE e.EID < 4) "
        f"as d ORDER BY {col} DESC"
        for col in ("EID", "d.EID")
    )
    TARGETS = (*TestRefusedWrites.NAMES, "split", "auto")

    @pytest.fixture(scope="class", params=TARGETS)
    def target(self, request):
        if request.param in ("split", "auto"):
            return build_company_federation(request.param)
        return build_company_system(request.param)

    @pytest.mark.parametrize("sql", UNKNOWN, ids=range(len(UNKNOWN)))
    def test_unknown_column_is_a_sql_error(self, target, sql):
        with pytest.raises(SqlError, match="'(x|nosuch|TRUE)'"):
            target.execute(sql)

    def test_bare_name_of_a_base_and_a_derived_binding_is_ambiguous(self, target):
        with pytest.raises(SqlError, match="ambiguous"):
            target.execute(self.AMBIGUOUS)

    def test_derived_column_named_bare_is_the_aliased_column(self, target):
        rows = target.execute(self.BARE)
        assert rows == target.execute(self.QUALIFIED)
        assert rows == [{"EID": 3}, {"EID": 2}, {"EID": 1}]


class TestNullComparisons:
    """One NULL rule at every filter site, ``plans.compare``'s: anything
    compared with NULL is false. Employee 900 has a NULL name. Before
    the rule held everywhere, the answer depended on the access path: a
    pushed-down Phoenix filter compared the stored empty value as bytes
    (so ``= NULL`` and ``<> 'x'`` kept the row) and a VoltDB leaf
    compared with ``==`` (so ``= NULL`` kept it, also beside a key
    equality)."""

    EVERYONE = list(range(1, 11))
    CASES = (
        ("SELECT e.EID FROM Employee as e WHERE e.EName = NULL", (), []),
        (
            "SELECT e.EID FROM Employee as e WHERE e.EID = 900 AND e.EName = NULL",
            (),
            [],
        ),
        ("SELECT e.EID FROM Employee as e WHERE e.EName <> 'x'", (), EVERYONE),
        ("SELECT e.EID FROM Employee as e WHERE e.EName = ?", (None,), []),
        ("SELECT e.EID FROM Employee as e WHERE e.EName <> ?", (None,), []),
        ("SELECT e.EID FROM Employee as e WHERE e.EName < 'z'", (), EVERYONE),
        ("SELECT e.EID FROM Employee as e WHERE e.EID = 900", (), [900]),
    )

    #: Each case's WHERE as the reference reads it: ``(attr, op, value)``.
    WHERES = (
        [("EName", "=", None)], [("EID", "=", 900), ("EName", "=", None)],
        [("EName", "<>", "x")], [("EName", "=", None)], [("EName", "<>", None)],
        [("EName", "<", "z")], [("EID", "=", 900)],
    )
    EMPLOYEE_900 = WriteSpec(
        "INSERT", "Employee", list(TABLES["Employee"]),
        [(value, True) for value in (900, None, 1, 1, 1)],
    )

    @pytest.fixture(scope="class", params=TestRefusedWrites.NAMES)
    def system(self, request):
        system = build_company_system(request.param)
        system.execute(self.EMPLOYEE_900.sql)
        return system

    @pytest.mark.parametrize(
        "sql,params,expected", CASES, ids=[f"case{i}" for i in range(len(CASES))]
    )
    def test_anything_against_null_is_false(self, system, sql, params, expected):
        rows = system.execute(sql, params)
        assert sorted(r["EID"] for r in rows) == expected

    def test_the_reference_gives_the_same_lists(self):
        data = company_rows()
        assert ref_write(data, self.EMPLOYEE_900) == 1
        for where, (sql, _, expected) in zip(self.WHERES, self.CASES, strict=True):
            spec = QuerySpec(
                bindings=[("e", "Employee")], columns=[("e", "EID")],
                filters=[("e", *condition) for condition in where],
            )
            assert sorted(eid for (eid,) in ref_execute(spec, data)) == expected, sql


def outcome(execute, *args):
    """The rows a write wrote, or the type of its refusal."""
    try:
        return int(execute(*args))
    except (SqlError, UnsupportedStatementError, WorkloadError) as refusal:
        return type(refusal)


class TestGeneratedWrites:
    """Generated writes interleaved with generated queries, on each
    system and on the reference model: every statement returns the same
    rows (as a multiset), writes the same number of rows or is refused
    with the same type, and the tables end up equal."""

    SEED = 20170904
    STATEMENTS = 100

    @pytest.mark.parametrize("name", TestRefusedWrites.NAMES)
    def test_each_statement_and_the_final_tables_match_the_reference(self, name):
        system = build_company_system(name)
        data = company_rows()
        rng = random.Random(self.SEED)
        for i in range(self.STATEMENTS):
            if rng.random() < 0.5:
                spec = generate_write(rng, data)
                expected = outcome(ref_write, data, spec)
                got = outcome(system.execute, spec.sql, spec.params)
            else:
                spec = generate_query(rng)
                expected = Counter(ref_execute(spec, data))
                rows = system.execute(spec.sql, spec.params)
                got = Counter(tuple(row.values()) for row in rows)
            assert got == expected, f"#{i}: {spec.sql} {spec.params}"
        for table, attrs in TABLES.items():
            stored = system.execute(f"SELECT * FROM {table}")
            assert Counter(tuple(r[a] for a in attrs) for r in stored) == Counter(
                tuple(r[a] for a in attrs) for r in data[table]
            ), table


class TestStatementDoors:
    """``execute`` is one template in ``systems/base.py`` — parse, then
    ``read(select, params)`` or ``write(stmt, params)`` — so a system's
    ``execute``, its session's ``execute`` outside ``begin()`` and the
    two methods called with the AST are the same statement: same rows,
    and the same charges in the same order (each ``Simulation.charge``
    draws one jitter sample, so ``repr`` of the virtual ms pins both)."""

    SCRIPT = (
        ("SELECT * FROM Employee as e, Address as a "
         "WHERE a.AID = e.EHome_AID and e.EID = ?", (3,)),
        ("INSERT INTO Address (AID, Street, City, Zip) VALUES (?, ?, ?, ?)",
         (50, "s", "c", "z")),
        ("UPDATE Employee SET EName = ? WHERE EID = ?", ("renamed", 2)),
        ("SELECT * FROM Department as d, Employee as e, Works_On as wo "
         "WHERE d.DNo = e.E_DNo and e.EID = wo.WO_EID and d.DNo = ?", (1,)),
        ("UPDATE Works_On SET Hours = ? WHERE WO_EID = ? and WO_PNo = ?",
         (7, 2, 2)),
        ("DELETE FROM Dependent WHERE DP_EID = ? and DPName = ?", (1, "dep1")),
        ("SELECT e.EName, COUNT(*) FROM Employee as e, Works_On as w "
         "WHERE e.EID = w.WO_EID GROUP BY e.EName ORDER BY e.EName LIMIT 4", ()),
        ("SELECT * FROM Dependent", ()),
        # literals whose Python repr is not SQL: nothing below the door
        # may print a statement and parse it back
        ("UPDATE Employee SET EName = NULL WHERE EID = ?", (3,)),
        ("UPDATE Works_On SET Hours = 0.00001 WHERE WO_EID = ? and WO_PNo = ?",
         (2, 2)),
        ("INSERT INTO Dependent (DP_EID, DPName, DPHome_AID) VALUES (4, 'd', NULL)",
         ()),
    )

    @staticmethod
    def by_ast(system):
        from repro.sql.ast import Select
        from repro.sql.parser import parse_statement

        def run(sql, params):
            stmt = parse_statement(sql)
            door = system.read if isinstance(stmt, Select) else system.write
            return door(stmt, params)

        return run

    DOORS = {
        "system.execute": lambda system: system.execute,
        "session.execute": lambda system: system.open_session().execute,
        "read/write(AST)": by_ast,
    }

    @pytest.mark.parametrize("jitter", (0.0, 0.02))
    @pytest.mark.parametrize("name", TestRefusedWrites.NAMES)
    def test_every_door_same_rows_same_virtual_ms(self, name, jitter):
        from repro.sim.clock import Simulation
        transcripts = {}
        for door, bind in self.DOORS.items():
            sim = Simulation(seed=SEED, jitter_fraction=jitter)
            run = bind(build_company_system(name, sim))
            transcript = []
            for sql, params in self.SCRIPT:
                sw = sim.stopwatch()
                out = run(sql, params)
                transcript.append((out, repr(sw.stop())))
            transcripts[door] = transcript
        reference = transcripts.pop("system.execute")
        assert sum(bool(out) for out, _ in reference) == len(self.SCRIPT)
        for door, transcript in transcripts.items():
            assert transcript == reference, door

    def test_a_system_without_a_concurrency_control_cannot_be_built(self):
        from repro.systems.hbase_backed import HBaseBackedSystem

        class NoControl(HBaseBackedSystem):
            read_isolation = {}

        with pytest.raises(TypeError, match="read.*write"):
            NoControl(None, None, None, None)
