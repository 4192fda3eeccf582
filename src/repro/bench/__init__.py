"""Benchmark harness: one suite per table/figure of the paper, plus one
per layer the repo has grown since.

The paper's evaluation (runners in :mod:`repro.bench.suites.paper`,
re-exported here):

=============  ========================================  =====================
``--only``     Paper result                              Runner
=============  ========================================  =====================
``fig10``      micro-benchmark: view scan vs join        :func:`run_fig10`
``fig11``      row-locking overhead vs lock count        :func:`run_fig11`
``fig13``      mechanism matrix                          :func:`run_fig13`
``table1``     qualitative comparison                    :func:`run_table1`
``tpcw``       TPC-W on 5 systems: joins (Fig. 12),      :func:`run_fig12`,
               writes (Fig. 14), sum of all statement    :func:`run_fig14`,
               response times (Table II), database       :func:`run_table2`,
               sizes (Table III), from one ``TpcwLab``   :func:`run_table3`
=============  ========================================  =====================

The nine layer suites the repo has grown since (``storage``,
``concurrency``, ``scaleout``, ``faults``, ``replication``,
``orchestration``, ``serving``, ``federation``, ``query``) live one
module each under :mod:`repro.bench.suites`, as ``run_<name>`` plus a
``Suite`` record; :data:`repro.bench.suites.SUITES` is the one table
behind every ``--only`` name. ``python -m repro.bench --scale 200``
regenerates everything and prints the paper-style rows; ``python -m
repro.bench --smoke <suite|all>`` runs the gates (``fig10``, ``fig11``
and ``tpcw`` hold the paper's shape claims). A small rerun of the
evaluation::

    python -m repro.bench --only tpcw --scale 100 --reps 3
    python -m repro.bench --only fig10 --micro-scales 20,100,500 --reps 5
"""

from repro.bench.harness import ExperimentResult, Series, summarize
from repro.bench.tpcw_lab import TpcwLab
from repro.bench.suites.paper import (
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_table1,
    run_table2,
    run_table3,
)

__all__ = [
    "ExperimentResult",
    "Series",
    "TpcwLab",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_table1",
    "run_table2",
    "run_table3",
    "summarize",
]
