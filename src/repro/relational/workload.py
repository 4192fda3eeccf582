"""Workload model (paper Section II-B).

A workload ``W = {w1, ..., wm}`` is a set of SQL statements. We keep the
raw SQL (``parsed`` is the one parser's memoized AST of it) and optional
per-statement frequencies used by selection heuristics and the advisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.ast import Statement


@dataclass
class WorkloadStatement:
    """One statement of a workload: SQL text, an id and a frequency weight."""

    sql: str
    statement_id: str = ""
    frequency: float = 1.0

    @property
    def parsed(self) -> "Statement":
        from repro.sql.parser import parse_statement

        return parse_statement(self.sql)


class Workload:
    """An ordered collection of :class:`WorkloadStatement`."""

    def __init__(self, statements: Iterable[WorkloadStatement | str] = ()) -> None:
        self._statements: list[WorkloadStatement] = []
        for s in statements:
            self.add(s)

    def add(
        self,
        statement: WorkloadStatement | str,
        statement_id: str = "",
        frequency: float = 1.0,
    ) -> WorkloadStatement:
        if isinstance(statement, str):
            statement = WorkloadStatement(statement, statement_id, frequency)
        if not statement.statement_id:
            statement.statement_id = f"w{len(self._statements) + 1}"
        self._statements.append(statement)
        return statement

    def __iter__(self) -> Iterator[WorkloadStatement]:
        return iter(self._statements)

    def by_id(self, statement_id: str) -> WorkloadStatement:
        for s in self._statements:
            if s.statement_id == statement_id:
                return s
        raise KeyError(statement_id)

    def writes(self) -> "Workload":
        """Sub-workload of INSERT/UPDATE/DELETE statements."""
        from repro.sql.ast import Select

        return Workload(
            s for s in self._statements if not isinstance(s.parsed, Select)
        )
