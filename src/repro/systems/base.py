"""Common interface for the five evaluated systems."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable

from repro.sim.clock import Simulation
from repro.sql.ast import Select, Statement
from repro.sql.parser import parse_statement


def run_statement(door: Any, sql: str, params: tuple[Any, ...]) -> Any:
    """``execute`` of a system or session: text is parsed here, once; a
    SELECT goes to ``door.read``, anything else to ``door.write``. A
    concurrency control *is* those two (``docs/ARCHITECTURE.md``)."""
    stmt = parse_statement(sql)
    if isinstance(stmt, Select):
        return door.read(stmt, params)
    return door.write(stmt, params)


@dataclass(frozen=True)
class SystemDescription:
    """One row of the paper's Fig. 13 mechanism matrix."""

    name: str
    mv_selection: str
    concurrency_control: str


class SystemSession:
    """One virtual client's connection to an evaluated system.

    The default implementation is auto-commit: ``begin``/``commit`` are
    no-ops and every ``read`` / ``write`` is the system's own, its own
    transaction (which is how Synergy runs — each write is one
    lock-protected transaction through the transaction layer — and
    VoltDB, whose every procedure is its own serializable transaction).
    Systems with real multi-statement transaction state (the
    Tephra-backed ones) override the two.
    """

    rolls_back_on_abort = False
    """Whether ``abort()`` genuinely undoes writes executed since
    ``begin()``. False for auto-commit sessions, where every write has
    already applied by the time ``abort`` is called — callers that
    retry aborted transactions (the federation mediator, chiefly) must
    not re-execute writes against a session that reports False here."""

    def __init__(self, system: "EvaluatedSystem", client_name: str = "client") -> None:
        self.system = system
        self.client_name = client_name

    def begin(self) -> None:
        pass

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        return run_statement(self, sql, params)

    def read(self, select: Select, params: tuple[Any, ...]) -> Any:
        return self.system.read(select, params)

    def write(self, stmt: Statement, params: tuple[Any, ...]) -> Any:
        return self.system.write(stmt, params)

    def commit(self) -> None:
        pass

    def abort(self) -> None:
        pass


class EvaluatedSystem(abc.ABC):
    """A populated system that can run workload statements and report
    virtual response times. ``execute`` is :func:`run_statement` for
    the five systems; the mediator routes text, has no ``read`` and
    overrides it."""

    description: SystemDescription

    @property
    @abc.abstractmethod
    def sim(self) -> Simulation: ...

    @abc.abstractmethod
    def statement(self, statement_id: str) -> str:
        """Executable SQL for a workload statement id (possibly rewritten
        over this system's views)."""

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        return run_statement(self, sql, params)

    @abc.abstractmethod
    def load_row(self, relation: str, row: dict[str, Any]) -> None: ...

    @abc.abstractmethod
    def finish_load(self) -> None: ...

    @abc.abstractmethod
    def db_size_bytes(self) -> int: ...

    def supports(self, statement_id: str) -> bool:
        """Whether this system can execute the workload statement.

        Truthful by construction: an id the system has never registered
        is *not* supported (the old default claimed ``True`` for every
        string, which broke any router trusting the contract)."""
        try:
            self.statement(statement_id)
        except KeyError:
            return False
        return True

    def supports_sql(self, sql: str) -> bool:
        """Whether this system can execute ad-hoc statement text. The
        HBase-backed systems run any SQL the dialect parses; VoltDB
        refuses joins no partitioning scheme admits."""
        return True

    def open_session(self, client_name: str = "client") -> SystemSession:
        """A per-client session handle for scheduled multi-client runs."""
        return SystemSession(self, client_name)

    def timed(self, sql: str, params: tuple[Any, ...] = ()) -> tuple[Any, float]:
        sw = self.sim.stopwatch()
        result = self.execute(sql, params)
        return result, sw.stop()

    def timed_id(
        self, statement_id: str, params: tuple[Any, ...] = ()
    ) -> tuple[Any, float]:
        return self.timed(self.statement(statement_id), params)

    def load(self, rows: Iterable[tuple[str, dict[str, Any]]]) -> int:
        count = 0
        for relation, row in rows:
            self.load_row(relation, row)
            count += 1
        return count
