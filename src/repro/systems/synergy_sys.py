"""Synergy wrapped in the evaluated-system interface."""

from __future__ import annotations

from typing import Any, Sequence

from repro.config import ClusterConfig, DEFAULT_CLUSTER_CONFIG
from repro.phoenix.executor import PhoenixConnection
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.synergy.system import SynergySystem
from repro.systems.base import EvaluatedSystem, SystemDescription


class SynergyEvaluatedSystem(EvaluatedSystem):
    """Synergy uses the default auto-commit :class:`SystemSession` for
    multi-client runs: each write is one lock-protected transaction
    through the transaction layer, and contention surfaces as
    ``LockWaitRequired`` from the LockManager's recorded hold intervals
    (blocking-and-retry in the scheduler's transaction runner)."""

    description = SystemDescription(
        name="Synergy",
        mv_selection="Schema relationships aware",
        concurrency_control="Hierarchical locking",
    )

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        roots: Sequence[str],
        sim: Simulation | None = None,
        cluster_config: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
    ) -> None:
        self.system = SynergySystem(
            schema, workload, roots, sim=sim, cluster_config=cluster_config
        )

    @property
    def sim(self) -> Simulation:
        return self.system.sim

    @property
    def conn(self) -> PhoenixConnection:
        """The Phoenix connection, where every Phoenix-backed system
        exposes it."""
        return self.system.conn

    def statement(self, statement_id: str) -> str:
        return self.system.statements[statement_id]

    def register_statement(self, statement_id: str, sql: str) -> None:
        # ad-hoc statements skip the view-rewrite pipeline (that runs at
        # construction over the declared workload) and execute over base
        # tables — correct, just not view-accelerated
        self.system.statements[statement_id] = sql

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        return self.system.execute(sql, params)

    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        self.system.load_row(relation, row)

    def finish_load(self) -> None:
        self.system.finish_load()

    def db_size_bytes(self) -> int:
        return self.system.db_size_bytes()
