"""The five evaluated systems (paper Fig. 13) behind one interface.

==========  =============================  ===============================
System      Materialized-views selection   Concurrency control
==========  =============================  ===============================
VoltDB      none                           single-threaded partitions
Synergy     schema-relationships aware     hierarchical locking
MVCC-A      schema-relationships aware     MVCC (Tephra)
MVCC-UA     schema-relationships UNaware   MVCC (Tephra)
Baseline    none                           MVCC (Tephra)
==========  =============================  ===============================
"""

from repro.systems.base import EvaluatedSystem, SystemDescription, SystemSession
from repro.systems.baseline import BaselineSystem
from repro.systems.mvcc_a import MvccASystem
from repro.systems.mvcc_base import MvccSession
from repro.systems.mvcc_ua import MvccUASystem
from repro.systems.synergy_sys import SynergyEvaluatedSystem
from repro.systems.voltdb_sys import VoltDBEvaluatedSystem
from repro.systems.advisor import AdvisorCandidate, TuningAdvisor

__all__ = [
    "AdvisorCandidate",
    "BaselineSystem",
    "EvaluatedSystem",
    "MvccASystem",
    "MvccSession",
    "MvccUASystem",
    "SynergyEvaluatedSystem",
    "SystemDescription",
    "SystemSession",
    "TuningAdvisor",
    "VoltDBEvaluatedSystem",
]
