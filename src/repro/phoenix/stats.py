"""Table statistics and the planner cost model.

The cost-based planner prices access paths and join orders from two
sources the repo already maintains:

* ``catalog.stats`` — per-entry row counts refreshed by
  ``PhoenixConnection.analyze()`` (unknown entries fall back to the
  catalog's pessimistic default);
* the cluster layer's region metadata — region count and
  ``approx_size_bytes`` per table — which yields average row width and
  the number of scanner-open round trips a full scan pays.

Access estimates are pure arithmetic over those numbers and the
:class:`repro.config.CostModel` latency constants, so they are
deterministic and unit-testable without a cluster
(``tests/test_planner_cost.py``). Operator work has one price list,
:func:`charge_operator_work`: the executor charges it on the backend's
clock, and the cost-based planner runs it on a jitter-free clock of its
own to estimate the same work over estimated rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import CostModel
from repro.phoenix.plans import BROADCAST, GROUP_BY, SHUFFLE, SORT

if TYPE_CHECKING:  # pragma: no cover
    from repro.hbase.cluster import HBaseCluster
    from repro.phoenix.catalog import Catalog, CatalogEntry
    from repro.sim.latency import LatencyCharger

DEFAULT_ROW_BYTES = 150
"""Width assumed when a table has no measured size, and of every row a
hash join ships."""

FILTER_SELECTIVITY = 0.25
"""Assumed fraction of rows surviving one residual predicate."""


@dataclass(frozen=True)
class TableStats:
    """Statistics snapshot for one catalog entry."""

    name: str
    rows: int
    size_bytes: int
    regions: int

    @property
    def avg_row_bytes(self) -> float:
        if self.rows > 0 and self.size_bytes > 0:
            return self.size_bytes / self.rows
        return float(DEFAULT_ROW_BYTES)


class StatisticsProvider:
    """Resolves :class:`TableStats` for catalog entries, preferring live
    region metadata and degrading gracefully to catalog row counts."""

    def __init__(self, catalog: "Catalog", cluster: "HBaseCluster | None" = None):
        self.catalog = catalog
        self.cluster = cluster

    def stats_for(self, entry: "CatalogEntry") -> TableStats:
        rows = self.catalog.estimated_rows(entry.name)
        size_bytes = 0
        regions = 1
        if self.cluster is not None and entry.name in self.cluster.tables:
            desc = self.cluster.descriptor(entry.name)
            regions = max(len(desc.regions), 1)
            size_bytes = self.cluster.table_size_bytes(entry.name)
        return TableStats(
            name=entry.name, rows=rows, size_bytes=size_bytes, regions=regions
        )

    @property
    def servers(self) -> int:
        if self.cluster is None:
            return 1
        return max(len(self.cluster.servers), 1)


def charge_operator_work(
    charge: "LatencyCharger", servers: int, kind: str, rows: float
) -> None:
    """Which price, in what quantity, each kind of operator work pays
    (see :class:`~repro.phoenix.plans.OperatorHost`), charged on
    ``charge``'s clock: a hash-join build side is shipped to each of
    ``servers`` region servers, a symmetric-join row pays one shuffle
    hop, sort and group-by pay client CPU per input row; emitting join
    rows is free. ``rows`` is a count when an operator reports its work
    and an estimate when the cost-based planner prices it."""
    sim = charge.sim
    if kind == BROADCAST:
        charge.transfer(rows * DEFAULT_ROW_BYTES * servers)
        sim.metrics.counter("phoenix.hashjoin_broadcast_rows").inc(rows)
    elif kind == SHUFFLE:
        charge.transfer(rows * DEFAULT_ROW_BYTES)
        sim.metrics.counter("phoenix.hashjoin_shuffle_rows").inc(rows)
    elif kind == SORT:
        sim.charge("phoenix.sort", "HASH_CPU_MS_PER_ROW", rows)
    elif kind == GROUP_BY:
        sim.charge("phoenix.groupby", "HASH_CPU_MS_PER_ROW", rows)


def matched_rows(rows: int, prefix_len: int, key_len: int) -> float:
    """Rows matching an equality prefix of ``prefix_len`` of a
    ``key_len``-attribute key: the uniform-key estimate
    ``rows ** (1 - prefix_len/key_len)`` — monotonically shrinking as
    the prefix grows, exactly 1 row for a full-key point access."""
    if rows <= 0:
        return 0.0
    if key_len <= 0 or prefix_len >= key_len:
        return 1.0
    if prefix_len <= 0:
        return float(rows)
    return float(rows) ** (1.0 - prefix_len / key_len)


def point_get_ms(cost: CostModel, stats: TableStats) -> float:
    return (
        cost.rpc_base_ms
        + cost.seek_ms
        + cost.read_row_ms
        + stats.avg_row_bytes / 1024.0 * cost.network_ms_per_kb
    )


def scan_ms(cost: CostModel, stats: TableStats, prefix_len: int, key_len: int) -> float:
    """A prefix scan opens one region window; a full scan opens one per
    region. Batched transfer RPCs amortize per ``scan_batch_rows``
    rows."""
    rows = matched_rows(stats.rows, prefix_len, key_len)
    regions = 1 if prefix_len > 0 else stats.regions
    open_cost = regions * (cost.rpc_base_ms + cost.seek_ms)
    batches = rows / max(cost.scan_batch_rows, 1)
    transfer = rows * stats.avg_row_bytes / 1024.0 * cost.network_ms_per_kb
    return open_cost + rows * cost.read_row_ms + batches * cost.rpc_base_ms + transfer


def access_ms(
    cost: CostModel,
    stats: TableStats,
    prefix_len: int,
    key_len: int,
    lookup_stats: TableStats | None = None,
) -> tuple[float, float]:
    """Returns ``(matched_rows, cost_ms)`` for one access: point get
    when the prefix covers the key, scan otherwise, plus one base-table
    point get per matched row for non-covered index paths."""
    rows = matched_rows(stats.rows, prefix_len, key_len)
    if key_len > 0 and prefix_len >= key_len:
        ms = point_get_ms(cost, stats)
    else:
        ms = scan_ms(cost, stats, prefix_len, key_len)
    if lookup_stats is not None:
        ms += rows * point_get_ms(cost, lookup_stats)
    return rows, ms


def equi_join_rows(left_rows: float, right_rows: float, n_keys: int) -> float:
    """Textbook equi-join estimate ``|L|*|R| / max(|L|,|R|)`` (the join
    key is a key of the larger side); cartesian when keyless."""
    if n_keys == 0:
        return left_rows * right_rows
    denom = max(left_rows, right_rows, 1.0)
    return left_rows * right_rows / denom
