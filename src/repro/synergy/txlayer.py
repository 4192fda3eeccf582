"""The Synergy Transaction layer (paper Sec. VIII, Fig. 7).

A distributed, fault-tolerant layer of one master and N slaves. Clients
send write requests to a slave's transaction manager, which assigns a
transaction id, appends the statement to its WAL (stored 'in HDFS'),
executes the write procedure through the Phoenix API, and responds. The
master detects slave failures and replays the failed slave's WAL on a
stand-in. Reads bypass the layer entirely and go straight to HBase.

The layer sits below the statement door (``systems/base.py``): its WAL
records the parsed statement and, once the procedure holds the lock,
the :class:`~repro.synergy.procedures.LockedWrite`. A slave that dies
mid-statement (a step hook calls ``crash()`` and raises) does nothing
more: the entry stays ``pending`` and its lock held until a stand-in
has run and released that ``LockedWrite``. An exception on a live
slave is a statement error (a refusal, ``LockWaitRequired``, a hook
that raises without crashing): the lock is released, the entry
``failed`` and never replayed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.errors import TransactionError, UnsupportedStatementError
from repro.sim.clock import Simulation
from repro.sql.ast import Select, Statement
from repro.synergy.procedures import LockedWrite, StepHook, WriteProcedures


@dataclass
class TxLogEntry:
    """One WAL record of a transaction-manager slave; ``write`` is set
    once the statement holds its lock."""

    tx_id: int
    stmt: Statement
    params: tuple[Any, ...]
    status: str = "pending"  # -> "committed" | "failed" | "recovered"
    write: LockedWrite | None = None


class TransactionManagerSlave:
    """One slave node: WAL + write-procedure execution."""

    _ids = itertools.count(1)

    def __init__(
        self,
        name: str,
        sim: Simulation,
        procedures: WriteProcedures,
    ) -> None:
        self.name = name
        self.sim = sim
        self.procedures = procedures
        self.wal: list[TxLogEntry] = []
        self.alive = True

    def execute_write(
        self,
        stmt: Statement,
        params: tuple[Any, ...],
        on_step: StepHook | None = None,
    ) -> bool:
        if not self.alive:
            raise TransactionError(f"transaction slave {self.name} is down")
        if isinstance(stmt, Select):
            raise UnsupportedStatementError("reads do not go through the tx layer")
        entry = TxLogEntry(tx_id=next(self._ids), stmt=stmt, params=tuple(params))
        self.wal.append(entry)
        self.sim.charge("txlayer.wal", "wal_append_ms", 1)
        try:
            result = self.finish(entry, on_step)
        except BaseException:
            if self.alive:  # a statement error, not a crash
                if entry.write is not None:
                    self.procedures.release(entry.write)
                entry.status = "failed"
            raise
        entry.status = "committed"
        return result

    def finish(self, entry: TxLogEntry, on_step: StepHook | None = None) -> bool:
        """Prepare ``entry``'s write unless a slave already holds its
        lock, then run and release it; False when the row is absent."""
        procedures = self.procedures
        if entry.write is None:
            entry.write = procedures.prepare(
                procedures.writer.compile(entry.stmt, entry.params)
            )
            if entry.write is None:
                return False
        procedures.run(entry.write, on_step)
        procedures.release(entry.write)
        return True

    def crash(self) -> None:
        self.alive = False

    def pending_entries(self) -> list[TxLogEntry]:
        return [e for e in self.wal if e.status == "pending"]


class SynergyTransactionLayer:
    """Master + slaves; clients call :meth:`execute_write`."""

    def __init__(
        self,
        sim: Simulation,
        procedures: WriteProcedures,
        num_slaves: int = 1,
    ) -> None:
        self.sim = sim
        self.procedures = procedures
        self.slaves = [
            TransactionManagerSlave(f"tx-slave-{i + 1}", sim, procedures)
            for i in range(num_slaves)
        ]
        self._route = 0

    def execute_write(
        self,
        stmt: Statement,
        params: tuple[Any, ...] = (),
        on_step: StepHook | None = None,
    ) -> bool:
        self.sim.charge("txlayer.dispatch", "txlayer_dispatch_ms", 1)
        # the transaction procedures execute through the Phoenix API
        self.sim.charge("txlayer.phoenix", "phoenix_statement_ms", 1)
        live = [s for s in self.slaves if s.alive]
        if not live:
            raise TransactionError("no live transaction-layer slaves")
        slave = live[self._route % len(live)]
        self._route += 1
        return slave.execute_write(stmt, tuple(params), on_step)

    # -- master duties -----------------------------------------------------------------
    def recover_slave(self, dead: TransactionManagerSlave) -> int:
        """Start a stand-in slave that finishes the failed slave's
        pending WAL entries (Sec. VIII: 'take over and replay the WAL')."""
        if dead.alive:
            raise TransactionError(f"slave {dead.name} is alive")
        standby = TransactionManagerSlave(
            f"{dead.name}-standby", self.sim, self.procedures
        )
        pending = dead.pending_entries()
        for entry in pending:
            standby.finish(entry)
            entry.status = "recovered"
        self.slaves = [s for s in self.slaves if s is not dead] + [standby]
        return len(pending)
