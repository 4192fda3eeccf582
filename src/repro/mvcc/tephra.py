"""A minimal Tephra: snapshot handout, optimistic conflict detection.

The real Tephra assigns transaction ids from a timestamp oracle, tracks
in-progress and invalid transactions, and rejects commits whose change
sets overlap transactions committed after the snapshot was taken. We
keep exactly that bookkeeping (it is what the concurrency tests need)
and charge the begin/commit round trips that dominate the paper's write
latencies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TransactionAbortedError, TransactionConflictError
from repro.sim.clock import Simulation


@dataclass
class MvccTransaction:
    """A client-held transaction handle."""

    tx_id: int
    snapshot_ts: int
    in_progress: frozenset[int]
    change_set: set[bytes] = field(default_factory=set)
    state: str = "open"  # open | committed | aborted

    def record_write(self, table: str, row_key: bytes) -> None:
        self.change_set.add(table.encode() + b"\x00" + row_key)


class TephraServer:
    """Central transaction manager."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._ids = itertools.count(1)
        self.in_progress: set[int] = set()
        self.invalid: set[int] = set()
        self._committed: dict[bytes, int] = {}
        """change-set key -> tx id of latest committed writer."""
        self.commit_count = 0
        self.abort_count = 0
        self.conflict_count = 0
        """Commits rejected by the optimistic check (a subset of
        ``abort_count``); under a scheduled multi-client run these are
        *real* conflicts between overlapping client transactions."""

    # -- lifecycle -----------------------------------------------------------------
    def begin(self, read_only: bool = False) -> MvccTransaction:
        """Start a transaction. Writes pay the server round trip; reads
        use the client-cached snapshot (small refresh cost)."""
        if read_only:
            self.sim.charge("mvcc.snapshot", "mvcc_read_snapshot_ms", 1)
        else:
            self.sim.charge("mvcc.begin", "mvcc_begin_ms", 1)
        tx_id = next(self._ids)
        tx = MvccTransaction(
            tx_id=tx_id,
            snapshot_ts=tx_id - 1,
            in_progress=frozenset(self.in_progress),
        )
        self.in_progress.add(tx_id)
        return tx

    def can_commit(self, tx: MvccTransaction) -> bool:
        """Optimistic check: no committed writer touched our change set
        after our snapshot."""
        for key in tx.change_set:
            committed_by = self._committed.get(key)
            if committed_by is None:
                continue
            if committed_by > tx.snapshot_ts or committed_by in tx.in_progress:
                return False
        return True

    def commit(self, tx: MvccTransaction) -> None:
        if tx.state != "open":
            raise TransactionAbortedError(f"tx {tx.tx_id} is {tx.state}")
        if tx.change_set:
            self.sim.charge("mvcc.commit", "mvcc_commit_ms", 1)
            if not self.can_commit(tx):
                self.conflict_count += 1
                ctx = self.sim.concurrency
                if ctx is not None:
                    ctx.conflict_abort_count += 1
                self.abort(tx)
                raise TransactionConflictError(
                    f"tx {tx.tx_id}: write-write conflict detected at commit"
                )
            for key in tx.change_set:
                self._committed[key] = tx.tx_id
        self.in_progress.discard(tx.tx_id)
        tx.state = "committed"
        self.commit_count += 1

    def abort(self, tx: MvccTransaction) -> None:
        self.in_progress.discard(tx.tx_id)
        if tx.change_set:
            self.invalid.add(tx.tx_id)
        tx.state = "aborted"
        self.abort_count += 1


class TransactionAwareExecutor:
    """Wraps arbitrary statement callables in one MVCC transaction each
    (Phoenix auto-commit mode, as the paper's evaluated systems run)."""

    def __init__(self, server: TephraServer) -> None:
        self.server = server

    def run_read(self, fn: Callable[[], Any]) -> Any:
        tx = self.server.begin(read_only=True)
        try:
            result = fn()
        except BaseException:
            self.server.abort(tx)
            raise
        self.server.commit(tx)
        return result

    def run_write(
        self,
        fn: Callable[[MvccTransaction], Any],
    ) -> Any:
        """``fn`` receives the transaction and must record its change set."""
        tx = self.server.begin(read_only=False)
        try:
            result = fn(tx)
        except BaseException:
            self.server.abort(tx)
            raise
        self.server.commit(tx)
        return result
