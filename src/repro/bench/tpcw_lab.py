"""TpcwLab: populate each evaluated system and measure the workload.

Systems are built, populated, measured and released **sequentially** so
peak memory stays bounded at one simulated cluster. All five systems are
populated from the same deterministic generator stream; statement
parameters are drawn per (statement, repetition), so repetitions have
realistic variance and insert repetitions never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.clock import Simulation
from repro.systems import (
    BaselineSystem,
    EvaluatedSystem,
    HBaseBackedSystem,
    MvccASystem,
    MvccUASystem,
    SynergySystem,
)
from repro.tpcw import (
    TPCW_ROOTS,
    TpcwDataGenerator,
    tpcw_schema,
    tpcw_workload,
)
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.writes import WRITE_STATEMENTS
from repro.voltdb import VoltDBSystem

SYSTEM_NAMES = ("VoltDB", "Synergy", "MVCC-A", "MVCC-UA", "Baseline")


@dataclass
class SystemMeasurement:
    """Everything recorded for one system before it is released."""

    name: str
    query_times: dict[str, list[float]] = field(default_factory=dict)
    write_times: dict[str, list[float]] = field(default_factory=dict)
    unsupported: set[str] = field(default_factory=set)
    db_size_bytes: int = 0
    total_times: list[float] = field(default_factory=list)
    """Per repetition: sum of RT of every supported statement."""


class TpcwLab:
    """Builds, populates and measures the five systems at one scale."""

    def __init__(
        self,
        num_customers: int = 200,
        repetitions: int = 10,
        seed: int = 171001792,
        jitter_fraction: float = 0.02,
        cost_based_planner: bool = False,
    ) -> None:
        self.num_customers = num_customers
        self.repetitions = repetitions
        self.seed = seed
        self.jitter_fraction = jitter_fraction
        self.cost_based_planner = cost_based_planner
        self.schema = tpcw_schema()
        self.workload = tpcw_workload()
        self.generator = TpcwDataGenerator(num_customers, seed=seed)
        self._measurements: dict[str, SystemMeasurement] = {}

    # -- system construction ------------------------------------------------------------
    def row_estimates(self) -> dict[str, int]:
        g = self.generator
        return {
            "Country": 92,
            "Address": g.num_addresses,
            "Customer": g.num_customers,
            "Author": g.num_authors,
            "Item": g.num_items,
            "Orders": g.num_orders,
            "Order_line": 3 * g.num_orders,
            "CC_Xacts": g.num_orders,
            "Shopping_cart": g.num_carts,
            "Shopping_cart_line": 3 * g.num_carts,
        }

    def _sim(self) -> Simulation:
        return Simulation(seed=self.seed, jitter_fraction=self.jitter_fraction)

    def build_system(self, name: str) -> EvaluatedSystem:
        if name == "Synergy":
            return SynergySystem(
                self.schema, self.workload, TPCW_ROOTS, sim=self._sim()
            )
        if name == "MVCC-A":
            return MvccASystem(
                self.schema, self.workload, TPCW_ROOTS, sim=self._sim()
            )
        if name == "MVCC-UA":
            return MvccUASystem(
                self.schema, self.workload, self.row_estimates(), sim=self._sim()
            )
        if name == "Baseline":
            return BaselineSystem(self.schema, self.workload, sim=self._sim())
        if name == "VoltDB":
            return VoltDBSystem(self.schema, self.workload, sim=self._sim())
        raise KeyError(name)

    def populate(self, system: EvaluatedSystem) -> None:
        gen = TpcwDataGenerator(self.num_customers, seed=self.seed)
        system.load(gen.all_rows())
        system.finish_load()
        # the lab's planner mode, on the systems that plan through
        # Phoenix (VoltDB composes its own procedure bodies)
        if isinstance(system, HBaseBackedSystem):
            system.conn.configure_engine(cost_based=self.cost_based_planner)

    # -- measurement ----------------------------------------------------------------------
    def measure_system(
        self,
        name: str,
        progress: Callable[[str], None] | None = None,
    ) -> SystemMeasurement:
        """Build + populate + run the full workload; release the system."""
        if name in self._measurements:
            return self._measurements[name]
        say = progress or (lambda _msg: None)
        say(f"[{name}] building and populating scale={self.num_customers}")
        system = self.build_system(name)
        self.populate(system)
        m = SystemMeasurement(name=name, db_size_bytes=system.db_size_bytes())

        statement_ids = list(JOIN_QUERIES) + list(WRITE_STATEMENTS)
        for sid in statement_ids:
            if not system.supports(sid):
                m.unsupported.add(sid)
        for rep in range(self.repetitions):
            total = 0.0
            for qid in JOIN_QUERIES:
                if qid in m.unsupported:
                    continue
                params = self.generator.params_for_query(qid, rep)
                _, ms = system.timed_id(qid, params)
                m.query_times.setdefault(qid, []).append(ms)
                total += ms
            for wid in WRITE_STATEMENTS:
                if wid in m.unsupported:
                    continue
                params = self.generator.params_for_write(wid, rep)
                _, ms = system.timed_id(wid, params)
                m.write_times.setdefault(wid, []).append(ms)
                total += ms
            m.total_times.append(total)
            say(f"[{name}] rep {rep + 1}/{self.repetitions} total={total:.0f}ms")
        self._measurements[name] = m
        del system  # release the simulated cluster before the next one
        return m

    def measure_all(
        self, progress: Callable[[str], None] | None = None
    ) -> dict[str, SystemMeasurement]:
        for name in SYSTEM_NAMES:
            self.measure_system(name, progress)
        return dict(self._measurements)
