"""MVCC-A: Synergy's views and view-indexes + Tephra MVCC instead of the
specialized concurrency control (paper Sec. IX-D2). Isolates the
contribution of the concurrency-control mechanism: reads match Synergy
(same views), writes pay the MVCC begin/commit overhead."""

from __future__ import annotations

from typing import Sequence

from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.synergy.design import SchemaAwareDesign
from repro.systems.base import SystemDescription
from repro.systems.mvcc_base import MvccSystemBase


class MvccASystem(MvccSystemBase):
    description = SystemDescription(
        name="MVCC-A",
        mv_selection="Schema relationships aware",
        concurrency_control="MVCC",
    )

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        roots: Sequence[str],
        sim: Simulation | None = None,
    ) -> None:
        design = SchemaAwareDesign(schema, workload, roots)
        super().__init__(schema, design, sim)
