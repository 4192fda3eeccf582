"""Declarative cluster plans and the plan -> steps diff.

A :class:`ClusterPlan` says what the cluster should look like — how
many (non-draining) servers, which tables keep how many replicas and
which split boundaries, whether the balancer keeps the layout even,
which members are being retired. ``diff(plan, cluster)`` compares that
against the live cluster and emits the ordered step list that closes
the gap:

1. ``AddServers`` — capacity first, so later placement has targets;
2. ``DrainServer`` — explicit retirements, then scale-in picks
   (latest-added members first);
3. ``SetReplicas`` — per-table replica targets (plans sorted by table
   name, deterministic);
4. ``SplitRegion`` — missing split boundaries;
5. ``Rebalance`` — even the layout out, when ``balance`` is set.

``MoveRegion`` never appears in a diff (a plan declares no per-region
placement); it exists for direct orchestration and as the recorded
inverse of drains and rebalances. The diff is pure inspection: no RNG
draws, no virtual-time charges, no mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import (
    ClusterConfigError,
    PlanValidationError,
    TableNotFoundError,
)
from repro.orchestration.steps import (
    AddServers,
    DrainServer,
    Rebalance,
    SetReplicas,
    SplitRegion,
    Step,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster


@dataclass(frozen=True)
class TablePlan:
    """Desired state of one table: total copies per region and the
    split boundaries its key space must have."""

    replicas: int = 1
    split_points: tuple[bytes, ...] = ()

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise PlanValidationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        points = tuple(self.split_points)
        object.__setattr__(self, "split_points", points)
        last: bytes | None = None
        for point in points:
            if not isinstance(point, bytes) or not point:
                raise PlanValidationError(
                    f"split points must be non-empty bytes, got {point!r}"
                )
            if last is not None and point <= last:
                raise PlanValidationError(
                    f"split points must be strictly increasing: "
                    f"{point!r} after {last!r}"
                )
            last = point
        if self.replicas > 1 and points:
            raise PlanValidationError(
                "a replicated table cannot also declare split points: "
                "replicated regions never split (pre-split at creation "
                "instead)"
            )


@dataclass(frozen=True)
class ClusterPlan:
    """Desired cluster state: topology, tables, balancing, drains."""

    servers: int
    tables: Mapping[str, TablePlan] = field(default_factory=dict)
    balance: bool = True
    drain: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise PlanValidationError(
                f"a cluster needs at least one server, got {self.servers}"
            )
        if not isinstance(self.balance, bool):
            raise PlanValidationError(
                f"balance must be True or False, got {self.balance!r}"
            )
        object.__setattr__(self, "tables", dict(self.tables))
        object.__setattr__(self, "drain", tuple(self.drain))
        if len(set(self.drain)) != len(self.drain):
            raise PlanValidationError(
                f"duplicate names in drain list: {self.drain}"
            )
        for name, table_plan in self.tables.items():
            if not isinstance(table_plan, TablePlan):
                raise PlanValidationError(
                    f"table {name!r}: expected a TablePlan, "
                    f"got {table_plan!r}"
                )
            if table_plan.replicas > self.servers:
                raise PlanValidationError(
                    f"table {name!r} wants {table_plan.replicas} copies "
                    f"but the plan keeps only {self.servers} servers "
                    "(anti-affinity needs one server per copy)"
                )


def diff(plan: ClusterPlan, cluster: "HBaseCluster") -> list[Step]:
    """Ordered steps that take ``cluster`` to ``plan``'s state.

    Raises :class:`~repro.errors.PlanValidationError` for plans that
    are impossible against this cluster: unknown tables or drain
    targets, or enabling replication on a non-empty table (the group
    ship log must be the complete history)."""
    steps: list[Step] = []
    for name in plan.drain:
        try:
            cluster.server_named(name)
        except ClusterConfigError as e:
            raise PlanValidationError(str(e)) from e

    already_draining = {s.name for s in cluster.servers if s.draining}
    drains = [n for n in plan.drain if n not in already_draining]
    remaining = [
        s
        for s in cluster.servers
        if not s.draining and s.name not in set(plan.drain)
    ]
    deficit = plan.servers - len(remaining)
    if deficit > 0:
        steps.append(AddServers(deficit))
    else:
        # scale in: retire the latest-added members first
        for server in reversed(remaining):
            if deficit == 0:
                break
            drains.append(server.name)
            deficit += 1
    steps.extend(DrainServer(name) for name in drains)

    manager = cluster.replication
    for name in sorted(plan.tables):
        table_plan = plan.tables[name]
        try:
            desc = cluster.descriptor(name)
        except TableNotFoundError as e:
            raise PlanValidationError(str(e)) from e
        groups = manager.groups_for(name) if manager is not None else []
        current = manager.target_for(name) if groups else 1
        if table_plan.replicas != current:
            if table_plan.replicas > 1 and not groups:
                dirty = any(
                    len(r.memstore) > 0 or r.hfiles for r in desc.regions
                )
                if dirty:
                    raise PlanValidationError(
                        f"cannot enable replication on non-empty table "
                        f"{name!r}: the ship log must be the complete "
                        "edit history (pre-replicate at creation, or "
                        "plan it while the table is empty)"
                    )
            steps.append(SetReplicas(name, table_plan.replicas))
        if table_plan.split_points and groups:
            raise PlanValidationError(
                f"table {name!r} is replicated; replicated regions "
                "cannot be split"
            )
        existing = {r.start_key for r in desc.regions}
        steps.extend(
            SplitRegion(name, point)
            for point in table_plan.split_points
            if point not in existing
        )

    if plan.balance:
        retiring = set(drains) | already_draining
        counts = [
            len(s.regions)
            for s in cluster.servers
            if s.alive and s.name not in retiring
        ]
        spread = (max(counts) - min(counts)) if counts else 0
        if steps or spread > 1:
            steps.append(Rebalance())
    return steps
