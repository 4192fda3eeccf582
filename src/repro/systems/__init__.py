"""The five evaluated systems (paper Fig. 13) behind one interface.

==========  =============================  ==========================  =====================
System      Materialized-views selection   Concurrency control         Class
==========  =============================  ==========================  =====================
VoltDB      none                           single-threaded partitions  VoltDBSystem
Synergy     schema-relationships aware     hierarchical locking        SynergySystem
MVCC-A      schema-relationships aware     MVCC (Tephra)               MvccASystem
MVCC-UA     schema-relationships UNaware   MVCC (Tephra)               MvccUASystem
Baseline    none                           MVCC (Tephra)               BaselineSystem
==========  =============================  ==========================  =====================

The four HBase-backed rows are one assembly
(:class:`~repro.systems.hbase_backed.HBaseBackedSystem`): the view
selection column is the *design object* the constructor picks
(``NoViews``, ``SchemaAwareDesign``, ``AdvisorDesign``), the concurrency
control column is the *subclass* (``MvccSystemBase``, ``SynergySystem``).
See ``docs/ARCHITECTURE.md``. VoltDB's class lives in :mod:`repro.voltdb`,
which builds on this package's base class.
"""

from repro.systems.base import EvaluatedSystem, SystemDescription, SystemSession
from repro.systems.baseline import BaselineSystem
from repro.systems.hbase_backed import HBaseBackedSystem, NoViews
from repro.systems.mvcc_a import MvccASystem
from repro.systems.mvcc_base import MvccSession
from repro.systems.mvcc_ua import AdvisorDesign, MvccUASystem
from repro.systems.synergy_sys import SynergySystem
from repro.systems.advisor import AdvisorCandidate, TuningAdvisor

__all__ = [
    "AdvisorCandidate",
    "AdvisorDesign",
    "BaselineSystem",
    "EvaluatedSystem",
    "HBaseBackedSystem",
    "MvccASystem",
    "MvccSession",
    "MvccUASystem",
    "NoViews",
    "SynergySystem",
    "SystemDescription",
    "SystemSession",
    "TuningAdvisor",
]
