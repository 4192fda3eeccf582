"""The four HBase-backed systems, assembled one way.

A system is a **view design** (which views are materialized: none,
schema-relationships aware, advisor) under a **concurrency control**
(how writes are isolated: Tephra MVCC, hierarchical locks). The design
is an object handed to this base; the concurrency control is the
subclass (:class:`~repro.systems.mvcc_base.MvccSystemBase`,
:class:`~repro.systems.synergy_sys.SynergySystem`).
"""

from __future__ import annotations

import abc
from typing import Any

from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.phoenix.catalog import Catalog
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.executor import PhoenixConnection
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sql.ast import Select, Statement
from repro.synergy.maintenance import ViewMaintainer
from repro.synergy.views import ViewDef
from repro.systems.base import EvaluatedSystem


class NoViews:
    """The empty view design: every statement runs as written."""

    def __init__(self, workload: Workload) -> None:
        self.views: list[ViewDef] = []
        self.statements = {s.statement_id: s.sql for s in workload}

    def materialize(self, client: HBaseClient, catalog: Catalog) -> None:
        pass


class HBaseBackedSystem(EvaluatedSystem):
    """HBase + Phoenix + a materialized view design. ``design`` is any
    object with ``views``, ``statements`` (executable SQL per workload
    id) and ``materialize(client, catalog)``."""

    read_isolation: dict[str, bool]
    """The :class:`PhoenixConnection` read options of the subclass's
    concurrency control."""

    def __init__(
        self,
        schema: Schema,
        design: Any,
        sim: Simulation | None,
    ) -> None:
        self._sim = sim or Simulation()
        self.schema = schema
        self.design = design
        self.cluster = HBaseCluster(self._sim)
        self.client = HBaseClient(self.cluster)
        # Creation order IS region placement (HBaseCluster._assign deals
        # regions round-robin on a cursor): baseline tables, then the
        # design's views and view-indexes; a subclass that needs tables
        # of its own creates them after this constructor returns.
        self.catalog: Catalog = create_baseline_schema(self.client, schema)
        design.materialize(self.client, self.catalog)
        self.views: list[ViewDef] = design.views
        self.statements: dict[str, str] = dict(design.statements)
        self.conn = PhoenixConnection(
            self.client, self.catalog, **self.read_isolation
        )
        self.writer = self.conn.writer
        self.maintainer = ViewMaintainer(self.client, self.catalog, self.views)

    @property
    def sim(self) -> Simulation:
        return self._sim

    # -- statements ---------------------------------------------------------------
    def statement(self, statement_id: str) -> str:
        return self.statements[statement_id]

    @abc.abstractmethod
    def read(self, select: Select, params: tuple[Any, ...]) -> Any: ...

    @abc.abstractmethod
    def write(self, stmt: Statement, params: tuple[Any, ...]) -> Any: ...

    # -- loading ------------------------------------------------------------------
    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        """Bulk-load one row: base table + indexes + applicable views.
        Load parents before children so view tuples can be constructed."""
        stored = self.writer.insert_row(relation, row)
        self.maintainer.apply_insert(relation, stored)

    def finish_load(self) -> None:
        """Major-compact everything (the paper compacts after population)."""
        self.cluster.major_compact()
        self.conn.analyze()
        self._sim.reset_clock()

    def db_size_bytes(self) -> int:
        return self.cluster.total_size_bytes()
