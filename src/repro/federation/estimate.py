"""Estimate: the virtual-ms price of running one statement on one
backend, before the routing advisor's observed overrides."""

from __future__ import annotations

from typing import Any, Mapping

from repro.config import CostModel
from repro.errors import FederationError, ReproError
from repro.phoenix.planner import CostBasedPlanner
from repro.sql.analyzer import AnalyzedSelect
from repro.sql.ast import Literal, Param, Select
from repro.systems.base import EvaluatedSystem
from repro.systems.hbase_backed import HBaseBackedSystem
from repro.voltdb.system import VoltDBSystem


def estimate_ms(backend: EvaluatedSystem, analyzed: AnalyzedSelect) -> float:
    """The HBase-backed systems are priced by the cost-based planner
    over their own catalog, VoltDB by an arithmetic model over its
    in-memory row counts; any other backend has no price and raises
    :class:`FederationError`."""
    if isinstance(backend, VoltDBSystem):
        return voltdb_estimate(backend.sim.cost, backend.tables, analyzed)
    if isinstance(backend, HBaseBackedSystem):
        return phoenix_estimate(backend, analyzed.select)
    raise FederationError(
        f"no estimate prices a {type(backend).__name__} backend"
    )


def phoenix_estimate(backend: HBaseBackedSystem, select: Select) -> float:
    """The cost-based planner's root estimate over the backend's own
    catalog (so Synergy's view rewrites change its price); a statement
    it cannot plan raises :class:`FederationError`."""
    planner = CostBasedPlanner(
        backend.catalog, cluster=backend.cluster, cost=backend.sim.cost
    )
    try:
        planned = planner.plan_select(select)
    except ReproError as exc:
        raise FederationError(f"the cost-based planner cannot price it: {exc}") from exc
    return planner.estimate(planned.root)[1]


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
