"""Declarative cluster plans, and the two diffs that drive a rollout.

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
placement); it exists for direct orchestration and for rollback.

A :class:`Layout` is the other kind of target: the layout a stage
started from, recorded by the orchestrator. ``restore(layout,
cluster)`` emits the steps that take the live cluster back to it —
that is the whole of a rollback. Both diffs are pure inspection: no
RNG draws, no virtual-time charges, no mutation.
"""

from __future__ import annotations

from bisect import bisect
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
    MergeRegions,
    MoveRegion,
    Rebalance,
    RemoveServers,
    SetFollowers,
    SetReplicas,
    SplitRegion,
    Step,
    UndrainServer,
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
        groups = manager.groups_for(name)
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


@dataclass(frozen=True)
class Layout:
    """What a rollback restores: the layout a stage started from.

    ``servers`` maps each member, in membership order, to its drain
    flag; ``regions`` maps each table to its regions' ``(start_key,
    host)`` pairs in key order; ``replicas`` maps each managed table
    (one with replication groups) to its replica target and follower
    placements, keyed by primary start key."""

    servers: Mapping[str, bool]
    regions: Mapping[str, tuple[tuple[bytes, str], ...]]
    replicas: Mapping[str, tuple[int, dict[bytes, list[str]]]]

    @classmethod
    def of(cls, cluster: "HBaseCluster") -> "Layout":
        """Record ``cluster``'s layout. Pure inspection: no charges, no
        RNG draws."""
        manager = cluster.replication
        return cls(
            servers={s.name: s.draining for s in cluster.servers},
            regions={
                name: tuple(
                    (r.start_key, cluster.server_for(r).name)
                    for r in desc.regions
                )
                for name, desc in cluster.tables.items()
            },
            replicas={
                name: (
                    manager.target_for(name),
                    manager.follower_placements(name),
                )
                for name in cluster.tables
                if manager.groups_for(name)
            },
        )


def restore(layout: Layout, cluster: "HBaseCluster") -> list[Step]:
    """Ordered steps that take ``cluster`` back to ``layout``:

    1. ``UndrainServer`` — members drained since;
    2. ``SetFollowers`` — drop the followers ``layout`` does not place,
       and the groups of a table that had none, so that no move back
       meets a follower on its target and no merge a replicated region;
    3. ``MergeRegions`` / ``SplitRegion`` — boundaries added / removed;
    4. ``MoveRegion`` — each region back to its recorded host, if that
       host is alive (a dead one is skipped: recovery re-homed it);
    5. ``SetFollowers`` — the recorded placements and replica target;
    6. ``RemoveServers`` — members added since.
    """
    members = {s.name: s for s in cluster.servers}
    manager = cluster.replication
    undrains = [
        UndrainServer(name)
        for name, draining in layout.servers.items()
        if name in members and members[name].draining and not draining
    ]
    drops: list[Step] = []
    followers: list[Step] = []
    for table in cluster.tables:
        if not manager.groups_for(table):
            continue
        if table not in layout.replicas:
            drops.append(SetFollowers(table, None))
            continue
        target, placements = layout.replicas[table]
        now = manager.follower_placements(table)
        kept = {
            key: [host for host in now.get(key, []) if host in hosts]
            for key, hosts in placements.items()
        }
        target_now = manager.target_for(table)
        if kept != now:
            drops.append(SetFollowers(table, kept, target))
            target_now = target
        if kept != placements or target_now != target:
            followers.append(SetFollowers(table, placements, target))
    boundaries: list[Step] = []
    moves: list[Step] = []
    for table, recorded in layout.regions.items():
        now_hosts = {
            r.start_key: cluster.server_for(r).name
            for r in cluster.tables[table].regions
        }
        starts = [start for start, _host in recorded]
        kept_starts = sorted(set(now_hosts) & set(starts))
        for key in sorted(set(now_hosts) - set(starts)):
            low = kept_starts[bisect(kept_starts, key) - 1]
            boundaries.append(MergeRegions(table, low, key))
        boundaries.extend(
            SplitRegion(table, key) for key in starts if key not in now_hosts
        )
        for start, host in recorded:
            # merges and splits leave a region where the kept region
            # it grows from (or out of) is hosted
            lands = now_hosts[kept_starts[bisect(kept_starts, start) - 1]]
            if lands != host and host in members and members[host].alive:
                moves.append(MoveRegion(table, start, host))
    added = [name for name in members if name not in layout.servers]
    removals: list[Step] = [RemoveServers(added)] if added else []
    return undrains + drops + boundaries + moves + followers + removals
