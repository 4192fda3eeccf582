"""Hierarchical locking via HBase lock tables (paper Sec. VIII-A).

One lock table per root relation; the lock-table key mirrors the root
relation's key and carries a single boolean column. A write to any
relation in a rooted tree acquires exactly one lock — on the key of the
associated root row — through HBase ``checkAndPut``.

The stand-alone :class:`LockBatch` reproduces the Fig. 11 overhead
experiment: acquire/release N row locks from a cold client.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import LockTimeoutError
from repro.hbase.client import HBaseClient
from repro.hbase.ops import Put
from repro.phoenix.catalog import CF
from repro.relational.datatypes import DataType
from repro.hbase.bytes_util import encode_key

LOCK_FREE = b"\x00"
LOCK_HELD = b"\x01"
LOCK_QUALIFIER = b"lock"
LOCK_ATTEMPTS = 64
"""``checkAndPut`` rounds an acquire tries before it times out."""
BATCH_TABLE = "LOCK_BENCH"
"""The table :class:`LockBatch` locks rows of."""


def lock_table_name(root: str) -> str:
    return f"LOCK_{root}"


class LockManager:
    """Acquire/release root-row locks through the lock tables."""

    def __init__(
        self,
        client: HBaseClient,
        root_key_dtypes: dict[str, Sequence[DataType]],
    ) -> None:
        self.client = client
        self.root_key_dtypes = dict(root_key_dtypes)
        self.max_attempts = LOCK_ATTEMPTS

    def create_lock_tables(self) -> None:
        for root in self.root_key_dtypes:
            name = lock_table_name(root)
            if not self.client.has_table(name):
                self.client.create_table(name, families=(CF,))

    def _encode(self, root: str, key_values: Sequence[Any]) -> bytes:
        return encode_key(self.root_key_dtypes[root], key_values)

    def register_root_row(self, root: str, key_values: Sequence[Any]) -> None:
        """Called when a tuple is inserted into the root relation: create
        the lock-table entry in the free state."""
        table = self.client.table(lock_table_name(root))
        put = Put(self._encode(root, key_values))
        put.add(CF, LOCK_QUALIFIER, LOCK_FREE)
        table.put(put)

    def acquire(self, root: str, key_values: Sequence[Any]) -> bytes:
        """Grab the root-row lock; returns the lock-table row key.

        Under a multi-client scheduled run the acquisition is also
        checked against the other virtual clients' recorded holds: if
        another client's hold is not yet released,
        :class:`~repro.errors.LockWaitRequired` is raised *before* any
        lock-table state changes, and the transaction runner blocks
        (charges the wait until the release point) and retries —
        conservative FCFS in execution order, since the holder's store
        mutations have already happened.
        """
        table = self.client.table(lock_table_name(root))
        row = self._encode(root, key_values)
        sim = self.client.cluster.sim
        ctx = sim.concurrency
        if ctx is not None:
            ctx.lock_check((root, row), sim.clock.now_ms)
        put = Put(row)
        put.add(CF, LOCK_QUALIFIER, LOCK_HELD)
        for _ in range(self.max_attempts):
            if table.check_and_put(row, CF, LOCK_QUALIFIER, LOCK_FREE, put):
                if ctx is not None:
                    ctx.lock_record((root, row))
                return row
            # entry may not exist yet (root row inserted in this txn)
            if table.check_and_put(row, CF, LOCK_QUALIFIER, None, put):
                if ctx is not None:
                    ctx.lock_record((root, row))
                return row
        raise LockTimeoutError(
            f"could not acquire lock on {root} key {list(key_values)!r} "
            f"after {self.max_attempts} attempts"
        )

    def release(self, root: str, row: bytes) -> None:
        table = self.client.table(lock_table_name(root))
        put = Put(row)
        put.add(CF, LOCK_QUALIFIER, LOCK_FREE)
        table.put(put)
        sim = self.client.cluster.sim
        ctx = sim.concurrency
        if ctx is not None:
            # close the hold interval *after* the release put's charges,
            # so the interval covers the whole critical section
            ctx.lock_release((root, row), sim.clock.now_ms)


class LockBatch:
    """The Fig. 11 micro-experiment: acquire+release N independent row
    locks from a fresh client (cold connection => fixed setup cost)."""

    def __init__(self, client: HBaseClient) -> None:
        self.client = client
        if not client.has_table(BATCH_TABLE):
            client.create_table(BATCH_TABLE, families=(CF,))

    def run(self, num_locks: int) -> float:
        """Acquire and release ``num_locks`` locks; returns elapsed
        virtual milliseconds (the paper's 'overhead')."""
        sim = self.client.cluster.sim
        table = self.client.table(BATCH_TABLE)
        sw = sim.stopwatch()
        sim.charge("lock.client_setup", "lock_client_setup_ms", 1)
        for i in range(num_locks):
            row = f"lk{i:09d}".encode()
            put = Put(row)
            put.add(CF, LOCK_QUALIFIER, LOCK_HELD)
            acquired = table.check_and_put(row, CF, LOCK_QUALIFIER, None, put) or (
                table.check_and_put(row, CF, LOCK_QUALIFIER, LOCK_FREE, put)
            )
            assert acquired, "benchmark lock unexpectedly contended"
        for i in range(num_locks):
            row = f"lk{i:09d}".encode()
            free = Put(row)
            free.add(CF, LOCK_QUALIFIER, LOCK_FREE)
            table.put(free)
        return sw.stop()
