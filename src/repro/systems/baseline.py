"""Baseline system: base tables + indexes only, Phoenix-Tephra MVCC on
(paper Sec. IX-D2). No materialized views: every join pays the join
algorithm; every statement pays the MVCC transaction overhead."""

from __future__ import annotations

from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.systems.base import SystemDescription
from repro.systems.hbase_backed import NoViews
from repro.systems.mvcc_base import MvccSystemBase


class BaselineSystem(MvccSystemBase):
    description = SystemDescription(
        name="Baseline",
        mv_selection="None",
        concurrency_control="MVCC",
    )

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        sim: Simulation | None = None,
    ) -> None:
        super().__init__(schema, NoViews(workload), sim)
