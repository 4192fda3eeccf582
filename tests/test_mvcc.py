"""Tephra-style MVCC: snapshots, conflicts, abort semantics, charges."""

import pytest

from repro.errors import TransactionAbortedError, TransactionConflictError
from repro.mvcc.tephra import TephraServer, TransactionAwareExecutor
from repro.sim.clock import Simulation


@pytest.fixture
def server():
    return TephraServer(Simulation())


class TestTransactions:
    def test_begin_charges_write_tx(self, server):
        before = server.sim.clock.now_ms
        server.begin(read_only=False)
        assert server.sim.clock.now_ms - before >= server.sim.cost.mvcc_begin_ms * 0.5

    def test_read_snapshot_is_cheap(self, server):
        before = server.sim.clock.now_ms
        server.begin(read_only=True)
        cost = server.sim.clock.now_ms - before
        assert cost < server.sim.cost.mvcc_begin_ms / 10

    def test_commit_without_writes_skips_conflict_check(self, server):
        tx = server.begin()
        before = server.sim.clock.now_ms
        server.commit(tx)
        assert server.sim.clock.now_ms == before  # no commit round trip

    def test_write_commit_charges(self, server):
        tx = server.begin()
        tx.record_write("t", b"k")
        before = server.sim.clock.now_ms
        server.commit(tx)
        assert server.sim.clock.now_ms > before

    def test_conflict_detection(self, server):
        a = server.begin()
        b = server.begin()
        a.record_write("t", b"k")
        b.record_write("t", b"k")
        server.commit(a)
        with pytest.raises(TransactionConflictError):
            server.commit(b)
        assert b.state == "aborted"

    def test_disjoint_writes_both_commit(self, server):
        a = server.begin()
        b = server.begin()
        a.record_write("t", b"k1")
        b.record_write("t", b"k2")
        server.commit(a)
        server.commit(b)
        assert server.commit_count == 2

    def test_serial_writes_to_same_key_commit(self, server):
        a = server.begin()
        a.record_write("t", b"k")
        server.commit(a)
        b = server.begin()  # starts after a committed
        b.record_write("t", b"k")
        server.commit(b)

    def test_commit_after_abort_rejected(self, server):
        tx = server.begin()
        server.abort(tx)
        with pytest.raises(TransactionAbortedError):
            server.commit(tx)

    def test_aborted_writer_joins_invalid_set(self, server):
        tx = server.begin()
        tx.record_write("t", b"k")
        server.abort(tx)
        assert tx.tx_id in server.invalid

    def test_snapshot_visibility(self, server):
        a = server.begin()
        b = server.begin()
        # b cannot see a (in progress at b's snapshot)
        assert a.tx_id in b.in_progress
        server.commit(a)
        c = server.begin()
        assert a.tx_id <= c.snapshot_ts and a.tx_id not in c.in_progress

    def test_executor_wrappers(self, server):
        ex = TransactionAwareExecutor(server)
        assert ex.run_read(lambda: 42) == 42

        def write(tx):
            tx.record_write("t", b"x")
            return "done"

        assert ex.run_write(write) == "done"
        assert server.commit_count == 2

    def test_executor_aborts_on_exception(self, server):
        ex = TransactionAwareExecutor(server)
        with pytest.raises(RuntimeError):
            ex.run_read(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        assert server.abort_count == 1
