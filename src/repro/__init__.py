"""repro — reproduction of the Synergy system (IEEE Cluster 2017).

Public API highlights:

* :class:`repro.systems.SynergySystem` — the paper's system, end to end.
* :class:`repro.sim.Simulation` — the virtual-time substrate.
* :mod:`repro.systems` — the five evaluated systems behind one interface.
* :mod:`repro.bench` — one experiment runner per table/figure;
  ``python -m repro.bench`` regenerates them all.
"""

from repro.config import ClusterConfig, CostModel
from repro.relational.schema import ForeignKey, Index, Relation, Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.systems.synergy_sys import SynergySystem

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "CostModel",
    "ForeignKey",
    "Index",
    "Relation",
    "Schema",
    "Simulation",
    "SynergySystem",
    "Workload",
    "__version__",
]
