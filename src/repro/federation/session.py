"""Session: one virtual client's connection to the federation."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import FederationWriteHazardError
from repro.sql.ast import Select
from repro.systems.base import SystemSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.federation.mediator import Mediator


class FederatedSession(SystemSession):
    """One virtual client's connection to the federation.

    Reads route exactly like :meth:`Mediator.execute`. Writes broadcast
    through per-backend *sessions*, so Tephra-backed backends buffer
    them transactionally while auto-commit backends (Synergy, VoltDB)
    apply immediately — which is why the retry path below exists:

    * every write executed inside the session is tracked with the set
      of backends where it has *already applied irrevocably* (session
      ``rolls_back_on_abort`` False);
    * ``abort()`` rolls back what can be rolled back, and **poisons**
      the writes that cannot be;
    * re-executing a poisoned write raises
      :class:`FederationWriteHazardError` instead of double-applying.
    """

    system: "Mediator"

    def __init__(self, system: "Mediator", client_name: str = "client") -> None:
        super().__init__(system, client_name)
        self._sessions: dict[str, SystemSession] = {
            name: backend.open_session(client_name)
            for name, backend in system.backends.items()
        }
        self.rolls_back_on_abort = all(
            s.rolls_back_on_abort for s in self._sessions.values()
        )
        self._open = False
        self._txn_writes: list[tuple[tuple[str, tuple], tuple[str, ...]]] = []
        self._poisoned: dict[tuple[str, tuple], tuple[str, ...]] = {}

    def begin(self) -> None:
        for session in self._sessions.values():
            session.begin()
        self._open = True
        self._txn_writes = []

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        canonical = self.system._statements.get(sql, sql)
        stmt, _ = self.system._parse(canonical)
        if isinstance(stmt, Select):
            return self.system._execute(sql, params, sessions=None)
        key = (canonical, tuple(params))
        if key in self._poisoned:
            raise FederationWriteHazardError(
                f"refusing to re-execute {canonical!r}: its writes may "
                f"already have applied on {list(self._poisoned[key])} "
                "(no rollback on abort)"
            )
        applied = tuple(
            name
            for name, session in self._sessions.items()
            if not session.rolls_back_on_abort
        )
        try:
            result = self.system._execute(sql, params, sessions=self._sessions)
        except BaseException:
            # a partial broadcast: anything that applied on an
            # auto-commit backend is now unretriable
            self._poisoned[key] = applied
            raise
        if self._open:
            self._txn_writes.append((key, applied))
        return result

    def commit(self) -> None:
        self._open = False
        self._txn_writes = []
        for session in self._sessions.values():
            session.commit()

    def abort(self) -> None:
        self._open = False
        writes, self._txn_writes = self._txn_writes, []
        for session in self._sessions.values():
            session.abort()
        for key, applied in writes:
            if applied:
                self._poisoned[key] = applied
