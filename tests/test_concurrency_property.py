"""Property tests for the deterministic multi-client scheduler.

Randomized (but seeded) interleavings of blind-write transactions must
leave the database in a state some *serial* execution order produces —
here, the order in which the transactions actually committed — and the
scheduler itself must be bit-identical across two runs with the same
seed."""

from __future__ import annotations

import random

import pytest

from repro.errors import TransactionConflictError
from repro.sim.clock import Simulation
from repro.sim.scheduler import DeterministicScheduler, run_transaction
from tests.conftest import build_company_system

EMPLOYEE_UPDATE = "UPDATE Employee SET EName = ? WHERE EID = ?"
ADDRESS_UPDATE = "UPDATE Address SET City = ? WHERE AID = ?"


def build_system(kind: str, seed: int):
    name = "Synergy" if kind == "synergy" else "Baseline"
    return build_company_system(name, Simulation(seed=seed))


def random_transactions(seed: int, num_clients: int, txns_per_client: int):
    """Per-client lists of blind-write transactions over a small hot key
    space (EIDs 1-4, AIDs 1-3), so interleavings genuinely contend."""
    rng = random.Random(seed)
    per_client = []
    for c in range(num_clients):
        txns = []
        for t in range(txns_per_client):
            statements = []
            for k in range(rng.randint(1, 2)):
                token = f"v{seed}-{c}-{t}-{k}"
                if rng.random() < 0.6:
                    statements.append(
                        (EMPLOYEE_UPDATE, (token, rng.randint(1, 4)))
                    )
                else:
                    statements.append(
                        (ADDRESS_UPDATE, (token, rng.randint(1, 3)))
                    )
            txns.append(statements)
        per_client.append(txns)
    return per_client


class StatementLoggingSession:
    """Session wrapper recording each successfully executed statement.

    For auto-commit systems (Synergy: every statement is its own
    lock-protected transaction) the serialization point is statement
    execution, not ``run_transaction`` completion — writes land the
    moment ``execute`` returns, so the equivalent serial order is the
    statement execution order, which this wrapper captures."""

    def __init__(self, inner, log: list) -> None:
        self.inner = inner
        self.log = log

    def begin(self) -> None:
        self.inner.begin()

    def execute(self, sql, params=()):
        result = self.inner.execute(sql, params)
        self.log.append((sql, params))
        return result

    def commit(self) -> None:
        self.inner.commit()

    def abort(self) -> None:
        self.inner.abort()


def run_scheduled(system, per_client, commit_log=None, statement_log=None):
    scheduler = DeterministicScheduler(system.sim)
    for i, txns in enumerate(per_client):
        session = system.open_session(f"c{i}")
        if statement_log is not None:
            session = StatementLoggingSession(session, statement_log)

        def program(client, session=session, txns=txns):
            for txn in txns:
                if commit_log is not None:
                    yield from run_transaction(
                        client, session, txn,
                        on_commit=lambda txn=txn: commit_log.append(txn),
                    )
                else:
                    yield from run_transaction(client, session, txn)

        scheduler.add_client(f"c{i}", program)
    return scheduler, scheduler.run()


def db_state(system):
    emp = system.execute("SELECT * FROM Employee")
    addr = system.execute("SELECT * FROM Address")
    return (
        sorted((r["EID"], r["EName"]) for r in emp),
        sorted((r["AID"], r["City"]) for r in addr),
    )


class TestSerializability:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mvcc_final_state_matches_commit_order_replay(self, seed):
        """MVCC buffers a transaction's writes until commit makes them
        visible atomically, so the concurrent final state must equal the
        serial execution of the committed transactions in
        commit-completion order."""
        per_client = random_transactions(seed, num_clients=3, txns_per_client=4)
        system = build_system("mvcc", seed)
        commit_log: list = []
        _, report = run_scheduled(system, per_client, commit_log)
        assert report.committed == len(commit_log)
        concurrent_state = db_state(system)

        serial = build_system("mvcc", seed)
        for txn in commit_log:
            for sql, params in txn:
                serial.execute(sql, params)
        assert db_state(serial) == concurrent_state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synergy_final_state_matches_statement_order_replay(self, seed):
        """Synergy sessions are auto-commit — each statement is its own
        lock-protected transaction whose write lands when ``execute``
        returns — so its serialization order is the statement execution
        order, and replaying the executed statements serially in that
        order must reproduce the concurrent final state."""
        per_client = random_transactions(seed, num_clients=3, txns_per_client=4)
        system = build_system("synergy", seed)
        statement_log: list = []
        _, report = run_scheduled(system, per_client, statement_log=statement_log)
        assert report.committed == sum(len(t) for t in per_client)
        assert len(statement_log) == sum(
            len(txn) for txns in per_client for txn in txns
        )
        concurrent_state = db_state(system)

        serial = build_system("synergy", seed)
        for sql, params in statement_log:
            serial.execute(sql, params)
        assert db_state(serial) == concurrent_state

    def test_every_transaction_commits_despite_conflicts(self):
        """Blind writes with retries always make progress: nothing is
        lost even when the optimistic check aborts transactions."""
        per_client = random_transactions(7, num_clients=4, txns_per_client=5)
        system = build_system("mvcc", 7)
        _, report = run_scheduled(system, per_client)
        total = sum(len(t) for t in per_client)
        assert report.committed == total
        assert report.aborted > 0  # the hot key space genuinely conflicts
        assert system.tephra.conflict_count == report.aborted


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["mvcc", "synergy"])
    def test_bit_identical_across_runs(self, kind):
        """Two runs from the same seed produce the same interleaving
        trace, the same stats and the same final state — bit for bit."""
        outcomes = []
        for _ in range(2):
            per_client = random_transactions(3, num_clients=4, txns_per_client=4)
            system = build_system(kind, 3)
            scheduler, report = run_scheduled(system, per_client)
            outcomes.append(
                (scheduler.trace, report, db_state(system))
            )
        assert outcomes[0] == outcomes[1]


class TestContentionMechanics:
    def test_synergy_lock_waits_are_counted_and_state_consistent(self):
        system = build_system("synergy", 11)
        # every client updates employees living at the same root Address
        per_client = [
            [[(EMPLOYEE_UPDATE, (f"n{c}-{t}", 1 + (t % 2)))] for t in range(4)]
            for c in range(4)
        ]
        _, report = run_scheduled(system, per_client)
        assert report.lock_wait_count > 0
        assert report.aborted == 0  # locking blocks, it does not abort
        assert report.committed == 16
        # no lock left held: a fresh write must not wait
        system.execute(EMPLOYEE_UPDATE, ("final", 1))
        rows = system.execute("SELECT * FROM Employee WHERE EID = ?", (1,))
        assert rows[0]["EName"] == "final"

    def test_clean_teardown_after_run(self):
        """The scheduler restores the simulation for single-client use:
        master clock advanced to the makespan, no lingering context."""
        system = build_system("mvcc", 5)
        per_client = random_transactions(5, num_clients=2, txns_per_client=2)
        _, report = run_scheduled(system, per_client)
        assert system.sim.concurrency is None
        assert system.sim.clock.now_ms == pytest.approx(report.makespan_ms)
        # ordinary execution still works after the scheduled run
        rows = system.execute("SELECT * FROM Department WHERE DNo = ?", (1,))
        assert len(rows) == 1

    def test_mvcc_in_transaction_reads_are_read_committed(self):
        """Pin the documented isolation model: in-transaction reads see
        the committed store — not a begin-time snapshot, and not the
        session's own buffered write intents."""
        system = build_system("mvcc", 13)
        s1 = system.open_session("a")
        s2 = system.open_session("b")
        s1.begin()
        before = s1.execute("SELECT * FROM Employee WHERE EID = ?", (1,))
        assert before[0]["EName"] != "by-s2"
        s2.begin()
        s2.execute(EMPLOYEE_UPDATE, ("by-s2", 1))
        s2.commit()
        again = s1.execute("SELECT * FROM Employee WHERE EID = ?", (1,))
        assert again[0]["EName"] == "by-s2"  # read committed, not snapshot
        s1.execute(EMPLOYEE_UPDATE, ("own-write", 2))
        own = s1.execute("SELECT * FROM Employee WHERE EID = ?", (2,))
        assert own[0]["EName"] != "own-write"  # intents apply at commit
        s1.abort()
        rows = system.execute("SELECT * FROM Employee WHERE EID = ?", (2,))
        assert rows[0]["EName"] != "own-write"  # abort leaves no trace

    def test_mvcc_sessions_overlap_for_real(self):
        """Two interleaved sessions on one Tephra server: the later
        committer of a conflicting write aborts."""
        system = build_system("mvcc", 9)
        s1 = system.open_session("a")
        s2 = system.open_session("b")
        s1.begin()
        s2.begin()
        s1.execute(EMPLOYEE_UPDATE, ("from-s1", 1))
        s2.execute(EMPLOYEE_UPDATE, ("from-s2", 1))
        s1.commit()
        with pytest.raises(TransactionConflictError):
            s2.commit()
        rows = system.execute("SELECT * FROM Employee WHERE EID = ?", (1,))
        assert rows[0]["EName"] == "from-s1"
