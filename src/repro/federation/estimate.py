"""Estimate: the virtual-ms price of running one statement on one
backend, before the routing advisor's observed overrides."""

from __future__ import annotations

from typing import Any, Mapping

from repro.config import CostModel
from repro.errors import ReproError
from repro.phoenix.planner import CostBasedPlanner
from repro.sql.analyzer import AnalyzedSelect
from repro.sql.ast import Literal, Param, Select
from repro.systems.base import EvaluatedSystem
from repro.systems.hbase_backed import HBaseBackedSystem
from repro.voltdb.system import VoltDBSystem


def estimate_ms(backend: EvaluatedSystem, analyzed: AnalyzedSelect) -> float:
    """The HBase-backed systems are priced by the cost-based planner
    over their own catalog, VoltDB by an arithmetic model over its
    in-memory row counts, anything else by a per-binding nominal charge."""
    cost = backend.sim.cost
    if isinstance(backend, VoltDBSystem):
        return voltdb_estimate(cost, backend.tables, analyzed)
    if isinstance(backend, HBaseBackedSystem):
        ms = phoenix_estimate(backend, analyzed.select)
        if ms is not None:
            return ms
    return fallback_estimate(cost, analyzed)


def phoenix_estimate(backend: HBaseBackedSystem, select: Select) -> float | None:
    """The cost-based planner's root estimate over the backend's own
    catalog (so Synergy's view rewrites change its price); ``None``
    when it cannot plan ``select``."""
    try:
        planner = CostBasedPlanner(
            backend.catalog, cluster=backend.cluster, cost=backend.sim.cost
        )
        planned = planner.plan_select(select)
    except ReproError:
        return None
    est = planned.estimate
    return float(est[1]) if est else None


def voltdb_estimate(
    cost: CostModel, tables: Mapping[str, Any], analyzed: AnalyzedSelect
) -> float:
    """Procedure base cost plus per-row work: an indexed equality
    filter reads one row of its table, anything else scans it."""
    total = 1.0
    for b, rel in analyzed.bindings.items():
        if rel is None or rel not in tables:
            total += 100.0  # derived / unknown: nominal charge
            continue
        table = tables[rel]
        eq_attrs = {
            f.attr
            for f in analyzed.filters_on(b)
            if f.op == "=" and isinstance(f.value, (Literal, Param))
        }
        if any(table.has_index(a) for a in eq_attrs):
            total += 1.0
        else:
            total += float(len(table.rows))
    return cost.voltdb_proc_base_ms + cost.voltdb_row_ms * total


def fallback_estimate(cost: CostModel, analyzed: AnalyzedSelect) -> float:
    rows = float(len(analyzed.bindings)) * 100.0
    return cost.rpc_base_ms + cost.read_row_ms * rows
