"""Shared machinery for the three MVCC-backed systems (Baseline, MVCC-A,
MVCC-UA): HBase + Phoenix + Tephra transactions, optional views
maintained inside each write transaction (no hierarchical locks, no
dirty-row marking — consistency comes from MVCC snapshots instead)."""

from __future__ import annotations

from typing import Any

from repro.config import ClusterConfig, DEFAULT_CLUSTER_CONFIG
from repro.errors import PlanError
from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.mvcc.tephra import MvccTransaction, TephraServer
from repro.phoenix.catalog import Catalog
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.executor import PhoenixConnection
from repro.phoenix.writes import WriteExecutor, eval_const, key_from_where
from repro.relational.schema import Schema
from repro.sim.clock import Simulation
from repro.sql.ast import Delete, Insert, Select, Update
from repro.sql.parser import parse_statement
from repro.synergy.maintenance import ViewMaintainer
from repro.synergy.views import ViewDef
from repro.systems.base import EvaluatedSystem, SystemSession


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
    change-set key is recorded at ``execute`` time (so the optimistic
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
        self._pending: list[tuple[Any, tuple[Any, ...], tuple[Any, dict]]] = []

    def begin(self) -> None:
        if self._open:
            raise PlanError(f"{self.client_name}: transaction already open")
        self._open = True
        self._snapshot_charged = False
        self._pending = []

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        if not self._open:  # auto-commit outside begin/commit
            return self.system.execute(sql, params)
        sim = self.system.sim
        stmt = parse_statement(sql)
        if isinstance(stmt, Select):
            if self.tx is None and not self._snapshot_charged:
                # read-only so far: pay only the client-cached snapshot
                # refresh, matching the single-client read path
                sim.charge(sim.cost.mvcc_read_snapshot_ms, "mvcc.snapshot")
                self._snapshot_charged = True
            # read committed: straight from the store, no server round
            # trip (see the class docstring for the isolation model)
            return self.system.conn.execute_query(stmt, params)
        sim.charge(sim.cost.phoenix_statement_ms, "phoenix.statement")
        if self.tx is None:
            # the write transaction opens lazily at the first write, so
            # read-only transactions never pay the begin round trip
            self.tx = self.system.tephra.begin(read_only=False)
        target = self.system._write_target(stmt, tuple(params))
        self.tx.record_write(target[0].name, target[0].encode_key(target[1]))
        self._pending.append((stmt, tuple(params), target))
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
        for stmt, params, target in pending:
            self.system._apply_write(stmt, params, target)

    def abort(self) -> None:
        if not self._open:
            return
        self._open = False
        tx, self.tx = self.tx, None
        self._pending = []
        if tx is not None and tx.state == "open":
            self.system.tephra.abort(tx)


class MvccSystemBase(EvaluatedSystem):
    """HBase + Phoenix with Phoenix-Tephra transaction support enabled."""

    def __init__(
        self,
        schema: Schema,
        sim: Simulation | None = None,
        cluster_config: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
        views: list[ViewDef] | None = None,
    ) -> None:
        self._sim = sim or Simulation(cost=cluster_config.cost)
        self.schema = schema
        self.cluster = HBaseCluster(self._sim, cluster_config)
        self.client = HBaseClient(self.cluster)
        self.catalog: Catalog = create_baseline_schema(self.client, schema)
        self.tephra = TephraServer(self._sim)
        self.views: list[ViewDef] = list(views or [])
        self.conn = PhoenixConnection(
            self.client, self.catalog,
            dirty_check_views=False, mvcc_version_check=True,
        )
        self.writer = WriteExecutor(self.client, self.catalog)
        self.maintainer = ViewMaintainer(self.client, self.catalog, self.views)
        self._statements: dict[str, str] = {}

    @property
    def sim(self) -> Simulation:
        return self._sim

    # -- statements ---------------------------------------------------------------
    def register_statement(self, statement_id: str, sql: str) -> None:
        self._statements[statement_id] = sql

    def statement(self, statement_id: str) -> str:
        return self._statements[statement_id]

    # -- loading ------------------------------------------------------------------
    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        self.writer.insert_row(relation, row)
        self.maintainer.apply_insert(relation, row)

    def finish_load(self) -> None:
        self.cluster.major_compact()
        self.conn.analyze()
        self._sim.reset_clock()

    def db_size_bytes(self) -> int:
        return self.cluster.total_size_bytes()

    def open_session(self, client_name: str = "client") -> MvccSession:
        return MvccSession(self, client_name)

    # -- execution ------------------------------------------------------------------
    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        stmt = parse_statement(sql)
        if isinstance(stmt, Select):
            tx = self.tephra.begin(read_only=True)
            try:
                rows = self.conn.execute_query(stmt, params)
            except BaseException:
                self.tephra.abort(tx)
                raise
            self.tephra.commit(tx)
            return rows
        self._sim.charge(
            self._sim.cost.phoenix_statement_ms, "phoenix.statement"
        )
        tx = self.tephra.begin(read_only=False)
        try:
            result = self._execute_write(stmt, tuple(params), tx)
        except BaseException:
            self.tephra.abort(tx)
            raise
        self.tephra.commit(tx)
        return result

    def _execute_write(
        self, stmt: Any, params: tuple[Any, ...], tx: MvccTransaction
    ) -> int:
        target = self._write_target(stmt, params)
        tx.record_write(target[0].name, target[0].encode_key(target[1]))
        return self._apply_write(stmt, params, target)

    def _write_target(
        self, stmt: Any, params: tuple[Any, ...]
    ) -> tuple[Any, dict[str, Any]]:
        """The catalog entry and row/key dict a write statement touches.
        Pure computation: lets a session record its change-set key
        before the store mutation is applied."""
        if not isinstance(stmt, (Insert, Update, Delete)):
            raise PlanError(f"not a write statement: {stmt}")
        entry = self.catalog.table_for_relation(stmt.table)
        if isinstance(stmt, Insert):
            columns = stmt.columns or entry.attrs
            row = {c: eval_const(v, params) for c, v in zip(columns, stmt.values)}
            return entry, row
        return entry, key_from_where(entry, stmt.where, params)

    def _apply_write(
        self,
        stmt: Any,
        params: tuple[Any, ...],
        target: tuple[Any, dict[str, Any]] | None = None,
    ) -> int:
        entry, row_or_key = target or self._write_target(stmt, params)
        if isinstance(stmt, Insert):
            self.writer.insert_row(stmt.table, row_or_key)
            self.maintainer.apply_insert(stmt.table, row_or_key)
            return 1
        if isinstance(stmt, Update):
            changes = {c: eval_const(v, params) for c, v in stmt.assignments}
            if self.writer.update_row(stmt.table, row_or_key, changes) is None:
                return 0
            for view in self.maintainer.views_for_update(stmt.table):
                view_entry = self.maintainer.view_entry(view)
                if not any(a in view_entry.attrs for a in changes):
                    continue  # narrow advisor views may not store the attr
                rows = self.maintainer.locate_view_rows(view, stmt.table, row_or_key)
                self.maintainer.write_view_rows(view, rows, changes)
            return 1
        # only Delete remains: _write_target already rejected non-writes
        if self.writer.delete_row(stmt.table, row_or_key) is None:
            return 0
        self.maintainer.apply_delete(stmt.table, row_or_key)
        return 1
