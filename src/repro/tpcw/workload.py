"""The assembled TPC-W workload: Q1-Q11 + W1-W13 as one Workload."""

from __future__ import annotations

from repro.relational.workload import Workload
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.writes import WRITE_STATEMENTS


def tpcw_workload() -> Workload:
    w = Workload()
    for sid, sql in {**JOIN_QUERIES, **WRITE_STATEMENTS}.items():
        w.add(sql, statement_id=sid)
    return w
