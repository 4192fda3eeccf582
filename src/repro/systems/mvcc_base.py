"""The MVCC concurrency control of the three Tephra-backed systems
(Baseline, MVCC-A, MVCC-UA): the design's views are maintained inside
each write transaction (no hierarchical locks, no dirty-row marking —
consistency comes from MVCC snapshots instead)."""

from __future__ import annotations

from typing import Any

from repro.errors import PlanError
from repro.mvcc.tephra import (
    MvccTransaction,
    TephraServer,
    TransactionAwareExecutor,
)
from repro.phoenix.writes import WritePlan
from repro.relational.schema import Schema
from repro.sim.clock import Simulation
from repro.sql.ast import Select, Statement
from repro.systems.base import SystemSession
from repro.systems.hbase_backed import HBaseBackedSystem


class MvccSession(SystemSession):
    """A per-client session holding ONE open Tephra transaction across
    statements, so transactions from different virtual clients genuinely
    overlap: begins and commits interleave at the shared TephraServer,
    and the optimistic check at commit detects *real* write-write
    conflicts (raised as ``TransactionConflictError`` for the scheduler's
    transaction runner to abort and retry). The Tephra write transaction
    opens lazily at the first write statement, so read-only transactions
    pay only the cached-snapshot refresh, never the begin round trip.

    Writes inside an open transaction are buffered as intents: the
    change-set key is recorded at ``write`` time (so the optimistic
    check sees it), but the store mutation is applied only after
    ``commit`` passes the conflict check — the equivalent of Tephra's
    rollback of persisted changes on abort. An aborted transaction
    therefore leaves no trace in the store, and concurrent readers never
    observe uncommitted writes.

    Isolation model: reads inside the open transaction go straight to
    the committed store — **read committed**, not a begin-time snapshot
    (the store keeps no per-transaction versions), and they do not see
    the session's own buffered writes. Combined with write-write-only
    conflict detection, serializability is guaranteed for transactions
    whose writes are blind (the scheduled TPC-W mixes and the property
    suites); read-write anti-dependencies are not tracked, as in real
    Tephra."""

    system: "MvccSystemBase"

    rolls_back_on_abort = True  # buffered intents are discarded on abort

    def __init__(self, system: "MvccSystemBase", client_name: str = "client") -> None:
        super().__init__(system, client_name)
        self.tx: MvccTransaction | None = None
        self._open = False
        self._snapshot_charged = False
        self._pending: list[WritePlan] = []

    def begin(self) -> None:
        if self._open:
            raise PlanError(f"{self.client_name}: transaction already open")
        self._open = True
        self._snapshot_charged = False
        self._pending = []

    def read(self, select: Select, params: tuple[Any, ...]) -> Any:
        if not self._open:  # auto-commit outside begin/commit
            return self.system.read(select, params)
        if self.tx is None and not self._snapshot_charged:
            # read-only so far: pay only the client-cached snapshot
            # refresh, matching the single-client read path
            self.system.sim.charge("mvcc.snapshot", "mvcc_read_snapshot_ms", 1)
            self._snapshot_charged = True
        # read committed: straight from the store, no server round
        # trip (see the class docstring for the isolation model)
        return self.system.conn.execute_query(select, params)

    def write(self, stmt: Statement, params: tuple[Any, ...]) -> Any:
        if not self._open:
            return self.system.write(stmt, params)
        self.system.sim.charge("phoenix.statement", "phoenix_statement_ms", 1)
        if self.tx is None:
            # the write transaction opens lazily at the first write, so
            # read-only transactions never pay the begin round trip
            self.tx = self.system.tephra.begin(read_only=False)
        self._pending.append(self.system._record_write(stmt, params, self.tx))
        return None  # row count is unknown until the intent is applied

    def commit(self) -> None:
        if not self._open:
            return
        self._open = False
        tx, self.tx = self.tx, None
        pending, self._pending = self._pending, []
        if tx is None:
            return  # read-only transaction: nothing to commit
        self.system.tephra.commit(tx)  # may raise TransactionConflictError
        for plan in pending:
            self.system._apply_write(plan)

    def abort(self) -> None:
        if not self._open:
            return
        self._open = False
        tx, self.tx = self.tx, None
        self._pending = []
        if tx is not None and tx.state == "open":
            self.system.tephra.abort(tx)


class MvccSystemBase(HBaseBackedSystem):
    """HBase + Phoenix with Phoenix-Tephra transaction support enabled."""

    read_isolation = {"dirty_check_views": False, "mvcc_version_check": True}

    def __init__(
        self,
        schema: Schema,
        design: Any,
        sim: Simulation | None,
    ) -> None:
        super().__init__(schema, design, sim)
        self.tephra = TephraServer(self._sim)
        self._auto_commit = TransactionAwareExecutor(self.tephra)

    def open_session(self, client_name: str = "client") -> MvccSession:
        return MvccSession(self, client_name)

    # -- execution ------------------------------------------------------------------
    def read(self, select: Select, params: tuple[Any, ...]) -> Any:
        return self._auto_commit.run_read(
            lambda: self.conn.execute_query(select, params)
        )

    def write(self, stmt: Statement, params: tuple[Any, ...]) -> Any:
        self._sim.charge("phoenix.statement", "phoenix_statement_ms", 1)
        return self._auto_commit.run_write(
            lambda tx: self._apply_write(self._record_write(stmt, params, tx))
        )

    def _record_write(
        self, stmt: Statement, params: tuple[Any, ...], tx: MvccTransaction
    ) -> WritePlan:
        """Compile a write and enter its row in ``tx``'s change set.
        Stores nothing: a session records the key (so the optimistic
        check sees it) long before the mutation is applied."""
        plan = self.writer.compile(stmt, params)
        entry = self.catalog.table_for_relation(plan.relation)
        tx.record_write(entry.name, entry.encode_key(plan.target))
        return plan

    def _apply_write(self, plan: WritePlan) -> int:
        """The MVCC write procedure: base table first, then each view —
        no locks and no dirty marking; snapshots isolate the readers."""
        relation = plan.relation
        if plan.kind == "insert":
            stored = self.writer.insert_row(relation, plan.row)
            self.maintainer.apply_insert(relation, stored)
            return 1
        if plan.kind == "update":
            changes = plan.changes
            if self.writer.update_row(relation, plan.key, changes) is None:
                return 0
            for view in self.maintainer.views_for_update(relation):
                view_entry = self.maintainer.view_entry(view)
                if not any(a in view_entry.attrs for a in changes):
                    continue  # narrow advisor views may not store the attr
                rows = self.maintainer.locate_view_rows(view, relation, plan.key)
                self.maintainer.write_view_rows(view, rows, changes)
            return 1
        if self.writer.delete_row(relation, plan.key) is None:
            return 0
        self.maintainer.apply_delete(relation, plan.key)
        return 1
