"""Chaos engine behaviour: deterministic fault plans, injector weaving,
bounded failover retry, scan resume across crash/recovery, and the
durability/scan-consistency oracle (including that it has teeth)."""

from __future__ import annotations

import pytest

from repro.bench.suites.faults import chaos_cell
from repro.config import ClusterConfig
from repro.errors import RegionRetriesExhaustedError
from repro.hbase import HBaseClient, HBaseCluster, Put
from repro.hbase.client import HTable
from repro.sim.clock import Simulation
from repro.hbase import chaos
from repro.hbase.chaos import (
    FAMILY,
    QUALIFIER,
    ChaosHistory,
    FaultConfig,
    ScanObservation,
    build_fault_plan,
    chaos_scan,
    check_invariants,
)
from repro.sim.rng import derive_rng
from repro.sim.scheduler import DeterministicScheduler


class TestFaultPlan:
    NAMES = ["rs1", "rs2", "rs3"]

    def plan(self, cycles=6, seed=7, **overrides):
        cfg = FaultConfig(cycles=cycles, **overrides)
        return build_fault_plan(self.NAMES, cfg, derive_rng(seed, cfg.label))

    def test_plan_is_deterministic(self):
        assert self.plan() == self.plan()

    def test_three_events_per_cycle_in_time_order(self):
        plan = self.plan(cycles=5)
        assert len(plan) == 15
        assert [e.at_ms for e in plan] == sorted(e.at_ms for e in plan)

    def test_per_server_lifecycle_alternates(self):
        """Each server's event stream must be crash -> recover ->
        restart, repeated — never two crashes without a restart between."""
        per_server: dict[str, list[str]] = {}
        for e in self.plan(cycles=8, crash_interval_ms=10.0):
            per_server.setdefault(e.server, []).append(e.kind)
        for kinds in per_server.values():
            for i, kind in enumerate(kinds):
                assert kind == ("crash", "recover", "restart")[i % 3]

    def test_single_server_cluster_gets_no_faults(self):
        """A cluster that can never spare a server plans nothing rather
        than crashing the planner (or the last live server)."""
        plan = build_fault_plan(
            ["only"], FaultConfig(cycles=3), derive_rng(1, "faults")
        )
        assert plan == []

    def test_never_kills_the_last_live_server(self, monkeypatch):
        """Even with gaps far shorter than the down window, at least one
        server stays up at every crash instant."""
        monkeypatch.setattr(chaos, "FAILOVER_DELAY_MS", 50.0)
        monkeypatch.setattr(chaos, "RESTART_DELAY_MS", 50.0)
        monkeypatch.setattr(chaos, "INTERVAL_JITTER", 0.0)
        plan = build_fault_plan(
            ["a", "b"],
            FaultConfig(cycles=10, crash_interval_ms=1.0),
            derive_rng(3, "faults"),
        )
        down_until: dict[str, float] = {}
        for e in plan:
            if e.kind == "crash":
                live = [
                    n for n in ("a", "b")
                    if n != e.server and down_until.get(n, 0.0) <= e.at_ms
                ]
                assert live, f"crash of {e.server} at {e.at_ms} left no server"
                down_until[e.server] = e.at_ms + 100.0
            elif e.kind == "restart":
                down_until[e.server] = e.at_ms


def build_chaos_fixture(num_servers=2, rows=60, split_at=(20, 40), seed=11):
    """A small cluster with the key space spread over ``num_servers``."""
    sim = Simulation(seed=seed)
    cluster = HBaseCluster(
        sim, ClusterConfig(num_region_servers=num_servers, seed=seed)
    )
    client = HBaseClient(cluster)
    splits = [b"%08d" % k for k in split_at]
    table = client.create_table("c", families=(FAMILY,), split_keys=splits)
    puts = []
    for i in range(rows):
        p = Put(b"%08d" % i)
        p.add(FAMILY, QUALIFIER, b"seed-%06d" % i)
        puts.append(p)
    table.put_batch(puts)
    sim.reset_clock()
    return sim, cluster


class TestChaosCell:
    def test_clients_ride_out_crash_recover_cycles(self):
        run = chaos_cell(
            clients=8, ops_per_client=32, fault_config=FaultConfig(cycles=2)
        )
        assert run.violations == []
        assert run.history.crash_count >= 2
        assert run.history.recover_count >= 2
        assert run.history.regions_recovered > 0
        assert run.history.failover_retries > 0  # ops genuinely stalled
        assert run.history.stalls_ms  # and recovered after the stall
        assert run.report.committed == 8 * 32  # nothing gave up

    def test_injector_is_invisible_without_cycles(self):
        """cycles=0 must behave exactly like a fault-free scheduled run."""
        run = chaos_cell(clients=4, fault_config=FaultConfig(cycles=0))
        assert run.history.crash_count == 0
        assert run.history.failover_retries == 0
        assert run.violations == []

    def test_injector_daemon_does_not_stretch_the_makespan(self):
        """A fault planned long after the workload ends is wound down,
        not waited for."""
        late = FaultConfig(cycles=1, first_crash_ms=10_000_000.0)
        run = chaos_cell(clients=2, ops_per_client=4, fault_config=late)
        assert run.history.crash_count == 0
        assert run.report.makespan_ms < 1_000_000.0
        assert run.report.clients["fault-injector"]["committed"] == 0

    @pytest.mark.parametrize("seed", [1, 2, 20170904])
    def test_invariants_hold_across_seeds(self, seed):
        run = chaos_cell(
            clients=6,
            ops_per_client=24,
            fault_config=FaultConfig(cycles=3, crash_interval_ms=40.0),
            seed=seed,
        )
        assert run.violations == []

    def test_rerun_is_byte_identical(self):
        def one():
            run = chaos_cell(
                clients=6, ops_per_client=24,
                fault_config=FaultConfig(cycles=2),
            )
            return (
                run.as_dict(),
                run.report,
                run.history.acked,
                [s.rows for s in run.history.scans],
                run.history.events,
            )

        assert one() == one()

    def test_outage_longer_than_retry_budget_is_a_typed_failure(
        self, monkeypatch
    ):
        """A region that never comes back must surface the bounded,
        typed exhaustion error — not loop forever on meta retries."""
        monkeypatch.setattr(chaos, "FAILOVER_DELAY_MS", 10_000.0)
        monkeypatch.setitem(chaos.RETRIES, "failover", 3)
        monkeypatch.setattr(chaos, "RETRY_BACKOFF_MS", 2.0)
        with pytest.raises(RegionRetriesExhaustedError):
            chaos_cell(
                clients=2,
                ops_per_client=12,
                fault_config=FaultConfig(cycles=1, first_crash_ms=2.0),
            )


class TestScanResume:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(chaos, "SCAN_CHUNK_ROWS", 8)

    def run_scan_with_fault(self, victim_index, t_crash, t_recover):
        """Drive one chaos scan over the whole table while a surgical
        daemon crashes (and later recovers) one chosen server."""
        sim, cluster = build_chaos_fixture()
        history = ChaosHistory()
        handle = HTable(cluster, "c")
        victim = cluster.servers[victim_index]
        scheduler = DeterministicScheduler(sim)

        def scanner(vc):
            yield from chaos_scan(vc, handle, b"", None, history)

        def faulter(vc):
            vc.clock.advance(t_crash)
            yield "crash"
            victim.crash()
            vc.clock.advance(t_recover - t_crash)
            yield "recover"
            cluster.recover_server(victim)

        scheduler.add_client("scanner", scanner)
        scheduler.add_client("faulter", faulter, daemon=True)
        scheduler.run()
        return history

    def test_scan_resumes_after_failover_with_no_dup_or_loss(self):
        """Crash the server the scan has not reached yet, with a
        recovery that lands only after the scan has already failed and
        backed off: the scan must retry, reopen at the cursor on the
        recovered region, and deliver every row exactly once."""
        history = self.run_scan_with_fault(
            victim_index=1, t_crash=1.0, t_recover=6.0
        )
        assert history.failover_retries > 0  # the outage was observed
        rows = [r for r, _v in history.scans[0].rows]
        assert rows == sorted(set(rows))
        assert rows == [b"%08d" % i for i in range(60)]

    def test_open_scan_rides_an_in_flight_recovery(self):
        """Recovery completing while the scan generator is open: the
        client absorbs it inside HTable.scan (meta round trip + reopen
        on the recovered region) without a program-level retry."""
        history = self.run_scan_with_fault(
            victim_index=0, t_crash=0.9, t_recover=0.91
        )
        assert history.failover_retries == 0  # absorbed inside the scan
        rows = [r for r, _v in history.scans[0].rows]
        assert rows == [b"%08d" % i for i in range(60)]

    def test_scan_retry_budget_is_per_outage_not_per_scan(self, monkeypatch):
        """A long scan riding out several separately-recovered outages
        must not exhaust a cumulative budget: each recovered outage
        resets the retry counter, so only a region that truly never
        comes back can exhaust it."""
        sim, cluster = build_chaos_fixture()
        history = ChaosHistory()
        monkeypatch.setattr(chaos, "SCAN_CHUNK_ROWS", 4)
        monkeypatch.setitem(chaos.RETRIES, "failover", 3)
        monkeypatch.setattr(chaos, "RETRY_BACKOFF_MS", 2.0)
        handle = HTable(cluster, "c")
        scheduler = DeterministicScheduler(sim)

        def scanner(vc):
            yield from chaos_scan(vc, handle, b"", None, history)

        def faulter(vc):
            for cycle in range(5):
                victim = cluster.servers[cycle % 2]
                vc.clock.advance(0.8)
                yield "crash"
                victim.crash()
                vc.clock.advance(2.5)
                yield "recover"
                cluster.recover_server(victim)
                victim.restart()

        scheduler.add_client("scanner", scanner)
        scheduler.add_client("faulter", faulter, daemon=True)
        scheduler.run()
        rows = [r for r, _v in history.scans[0].rows]
        assert rows == [b"%08d" % i for i in range(60)]
        # more total retries than one outage's budget were ridden out
        assert history.failover_retries > chaos.RETRIES["failover"]

    def test_clean_scan_without_faults(self):
        sim, cluster = build_chaos_fixture()
        history = ChaosHistory()
        handle = HTable(cluster, "c")
        scheduler = DeterministicScheduler(sim)

        def scanner(vc):
            yield from chaos_scan(vc, handle, b"", None, history)

        scheduler.add_client("scanner", scanner)
        scheduler.run()
        assert history.failover_retries == 0
        assert len(history.scans[0].rows) == 60


class TestOracleHasTeeth:
    """The invariant checker must actually detect corruption — a chaos
    harness whose oracle cannot fail proves nothing."""

    def fixture(self):
        sim, cluster = build_chaos_fixture(rows=10)
        history = ChaosHistory()
        for i in range(10):
            history.record_ack(b"%08d" % i, b"seed-%06d" % i)
        return cluster, history

    def test_clean_state_passes(self):
        cluster, history = self.fixture()
        assert check_invariants(history, HTable(cluster, "c")) == []

    def test_lost_acked_write_is_detected(self):
        cluster, history = self.fixture()
        history.record_ack(b"%08d" % 99, b"never-applied")
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any("lost" in v for v in violations)

    def test_stale_value_is_detected(self):
        cluster, history = self.fixture()
        # history claims a newer value than the store ever saw
        history.record_ack(b"%08d" % 3, b"newer")
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any("serial replay" in v for v in violations)

    def test_stale_get_is_detected(self):
        """A get that returns an older acked value — what a row cache
        that missed an invalidation serves — is a read violation."""
        cluster, history = self.fixture()
        row = b"%08d" % 3
        history.record_ack(row, b"newer")
        history.record_get(row, b"seed-%06d" % 3)
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any(
            v.startswith("read:") and "newest write acked" in v
            for v in violations
        )

    def test_phantom_row_is_detected(self):
        cluster, history = self.fixture()
        history.acked = [a for a in history.acked if a[1] != b"%08d" % 7]
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any("phantom" in v for v in violations)

    def test_scan_duplication_is_detected(self):
        cluster, history = self.fixture()
        row = b"%08d" % 2
        value = b"seed-%06d" % 2
        history.scans.append(
            ScanObservation(
                history.next_seq(), history.next_seq(),
                b"", None, [(row, value), (row, value)],
            )
        )
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any("out of order / duplicated" in v for v in violations)

    def test_scan_loss_is_detected(self):
        cluster, history = self.fixture()
        # a scan started after every ack but delivered only half the rows
        rows = [
            (b"%08d" % i, b"seed-%06d" % i) for i in range(0, 10, 2)
        ]
        history.scans.append(
            ScanObservation(
                history.next_seq(), history.next_seq(), b"", None, rows
            )
        )
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any("was not delivered" in v for v in violations)

    def test_unacked_scan_value_is_detected(self):
        cluster, history = self.fixture()
        history.scans.append(
            ScanObservation(
                history.next_seq(), history.next_seq(),
                b"", b"%08d" % 1, [(b"%08d" % 0, b"forged")],
            )
        )
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any("never acked before the scan ended" in v for v in violations)

    def test_value_acked_only_after_the_scan_is_detected(self):
        """end_seq bounds the value check: a delivered value whose only
        ack lands after the scan finished cannot have been read by it."""
        cluster, history = self.fixture()
        scan_rows = [(b"%08d" % 0, b"late")]
        start, end = history.next_seq(), history.next_seq()
        history.scans.append(ScanObservation(start, end, b"", b"%08d" % 1, scan_rows))
        history.record_ack(b"%08d" % 0, b"late")  # acked after end_seq
        violations = check_invariants(history, HTable(cluster, "c"))
        assert any("never acked before the scan ended" in v for v in violations)
