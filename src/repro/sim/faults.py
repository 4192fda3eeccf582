"""Re-export for ``perfbench/workloads/serving_zipf.py``, which imports
these four names from here. The cluster cell and its chaos harness are
:mod:`repro.hbase.chaos`."""

from repro.hbase.chaos import FAMILY, QUALIFIER, ChaosHistory, check_invariants

__all__ = ["FAMILY", "QUALIFIER", "ChaosHistory", "check_invariants"]
