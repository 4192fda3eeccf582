"""Typed orchestration steps: fenced apply and verification.

Every step follows the same lifecycle the orchestrator drives:

1. ``fence(cluster)`` — re-resolve the step's targets against the
   *current* layout (steps address regions by ``(table, start_key)``,
   never by region object or name: a crash recovery swaps in a fresh
   incarnation under the same boundaries) and record the cluster's
   ``layout_epoch``.
2. ``apply(cluster)`` — refuse to run if the layout moved since the
   fence (:class:`~repro.errors.StaleStepError`), perform the mutation,
   and verify its local invariant (row counts conserved across
   move/split/merge/drain) *in the same scheduler segment*, so the
   check is atomic with respect to interleaved chaos and clients.

Fence and apply run back-to-back with no scheduler yield between them;
a retry re-runs both, which is what lets a step chase a region across
a crash/recovery cycle. Steps raising
:class:`~repro.errors.RegionUnavailableError` are retried with backoff
by the orchestrator; :class:`~repro.errors.StaleStepError` and
verification failures fail the stage and trigger rollback. A step
records nothing about what it did: a rollback is
:func:`~repro.orchestration.plan.restore`, which diffs the live cluster
back to the layout recorded at the stage's start and emits the same
steps plus three that only a restore needs (:class:`UndrainServer`,
:class:`SetFollowers`, :class:`RemoveServers`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import (
    ClusterConfigError,
    RegionUnavailableError,
    StaleStepError,
    StepVerificationError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster
    from repro.hbase.region import Region
    from repro.hbase.regionserver import RegionServer


def _resolve_region(
    cluster: "HBaseCluster", table: str, start_key: bytes
) -> "Region":
    """The region of ``table`` that currently starts exactly at
    ``start_key``. Recovery preserves boundaries while renaming the
    region, so this survives crash cycles; a split/merge that dissolved
    the boundary is structural — :class:`StaleStepError`."""
    from repro.errors import TableNotFoundError

    try:
        desc = cluster.descriptor(table)
        region = desc.region_for(start_key)
    except TableNotFoundError as e:
        raise StaleStepError(f"table {table!r}: {e}") from e
    if region.start_key != start_key:
        raise StaleStepError(
            f"no region of {table!r} starts at {start_key!r} any more "
            f"(found {region.name})"
        )
    return region


def _server_named(cluster: "HBaseCluster", name: str) -> "RegionServer":
    try:
        return cluster.server_named(name)
    except ClusterConfigError as e:
        raise StaleStepError(str(e)) from e


def _table_counts(cluster: "HBaseCluster") -> dict[str, int]:
    return {t: cluster.table_row_count(t) for t in sorted(cluster.tables)}


class Step:
    """Base class: epoch fencing + the fence/apply contract."""

    kind = "step"

    def __init__(self) -> None:
        self.fence_epoch: int | None = None

    # -- lifecycle -------------------------------------------------------------
    def fence(self, cluster: "HBaseCluster") -> None:
        self._resolve(cluster)
        self.fence_epoch = cluster.layout_epoch

    def apply(self, cluster: "HBaseCluster") -> None:
        if self.fence_epoch is None:
            raise StaleStepError(f"{self.describe()}: applied without a fence")
        if cluster.layout_epoch != self.fence_epoch:
            raise StaleStepError(
                f"{self.describe()}: fenced at layout epoch "
                f"{self.fence_epoch} but the cluster moved to "
                f"{cluster.layout_epoch}"
            )
        self._do(cluster)

    # -- subclass hooks --------------------------------------------------------
    def _resolve(self, cluster: "HBaseCluster") -> None:
        """Re-resolve live references; raise ``StaleStepError`` when the
        step's preconditions dissolved, ``RegionUnavailableError`` when
        they are merely waiting on a recovery/restart."""

    def _do(self, cluster: "HBaseCluster") -> None:
        raise NotImplementedError  # pragma: no cover - every subclass overrides

    def describe(self) -> str:
        return self.kind


class AddServers(Step):
    """Scale out by ``count`` fresh servers (or explicit ``names``)."""

    kind = "add-servers"

    def __init__(self, count: int = 1, names: list[str] | None = None) -> None:
        super().__init__()
        if names is not None:
            count = len(names)
        if count < 1:
            raise ClusterConfigError(
                f"AddServers needs a positive count, got {count}"
            )
        self.count = count
        self.names = list(names) if names is not None else None

    def _resolve(self, cluster: "HBaseCluster") -> None:
        if self.names:
            existing = {s.name for s in cluster.servers}
            clash = sorted(set(self.names) & existing)
            if clash:
                raise StaleStepError(
                    f"server name(s) already in the cluster: {clash}"
                )

    def _do(self, cluster: "HBaseCluster") -> None:
        fresh = cluster.add_servers(self.count, names=self.names)
        for server in fresh:
            if server.regions:  # pragma: no cover - fresh servers are empty
                raise StepVerificationError(
                    f"fresh server {server.name} is not empty"
                )

    def describe(self) -> str:
        who = ",".join(self.names) if self.names else f"+{self.count}"
        return f"add-servers({who})"


class RemoveServers(Step):
    """Restore-only: take members the stage added out again — recover
    one first if a chaos crash got there, drain what it still hosts,
    then remove it."""

    kind = "remove-servers"

    def __init__(self, names: list[str]) -> None:
        super().__init__()
        self.names = list(names)

    def _resolve(self, cluster: "HBaseCluster") -> None:
        for name in self.names:
            _server_named(cluster, name)

    def _do(self, cluster: "HBaseCluster") -> None:
        for name in self.names:
            server = cluster.server_named(name)
            if not server.alive and not server.recovered:
                cluster.recover_server(server)
            if server.alive and (server.regions or server.follower_regions):
                cluster.drain_server(server)
            cluster.remove_server(server)


class DrainServer(Step):
    """Decommission one server: recovery-then-drain if it is crashed,
    plain drain otherwise."""

    kind = "drain-server"

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def _resolve(self, cluster: "HBaseCluster") -> None:
        _server_named(cluster, self.name)

    def _do(self, cluster: "HBaseCluster") -> None:
        server = cluster.server_named(self.name)
        if not server.alive and not server.recovered:
            # the graceful degradation: finish the master's failover
            # first, then drain what (nothing) is left on the server
            cluster.recover_server(server)
        before = _table_counts(cluster)
        if server.alive:
            cluster.drain_server(server)
        else:
            # dead but already recovered: hosts nothing — just take it
            # out of placement rotation
            server.draining = True
            cluster._bump_layout()
        after = _table_counts(cluster)
        if before != after:
            raise StepVerificationError(
                f"drain of {self.name} did not conserve row counts: "
                f"{before} -> {after}"
            )

    def describe(self) -> str:
        return f"drain-server({self.name})"


class UndrainServer(Step):
    """Restore-only: put a drained server back in placement rotation
    (the restore's moves bring its regions home)."""

    kind = "undrain-server"

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def _resolve(self, cluster: "HBaseCluster") -> None:
        _server_named(cluster, self.name)

    def _do(self, cluster: "HBaseCluster") -> None:
        cluster.undrain_server(self.name)


class MoveRegion(Step):
    """Move the region of ``table`` starting at ``start_key`` onto the
    named server."""

    kind = "move-region"

    def __init__(self, table: str, start_key: bytes, target: str) -> None:
        super().__init__()
        self.table = table
        self.start_key = start_key
        self.target = target

    def _resolve(self, cluster: "HBaseCluster") -> None:
        region = _resolve_region(cluster, self.table, self.start_key)
        target = _server_named(cluster, self.target)
        if target.draining:
            raise StaleStepError(
                f"target server {self.target} is draining"
            )
        if not target.alive:
            raise RegionUnavailableError(
                f"target server {self.target} is down"
            )
        self._region = region
        self._target_server = target

    def _do(self, cluster: "HBaseCluster") -> None:
        region = self._region
        rows_before = region.row_count()
        moved = cluster.move_region(region, self._target_server)
        if moved and region.row_count() != rows_before:
            raise StepVerificationError(
                f"move of {region.name} did not conserve its "
                f"{rows_before} rows"
            )

    def describe(self) -> str:
        return (
            f"move-region({self.table},{self.start_key.hex() or '-'}"
            f"->{self.target})"
        )


class SetReplicas(Step):
    """Online replica-count change for one table."""

    kind = "set-replicas"

    def __init__(self, table: str, count: int) -> None:
        super().__init__()
        self.table = table
        self.count = count

    def _resolve(self, cluster: "HBaseCluster") -> None:
        from repro.errors import TableNotFoundError

        try:
            desc = cluster.descriptor(self.table)
        except TableNotFoundError as e:
            raise StaleStepError(str(e)) from e
        managed = cluster.replication.groups_for(self.table)
        if self.count > 1 and not managed:
            dirty = any(
                len(r.memstore) > 0 or r.hfiles for r in desc.regions
            )
            if dirty:
                raise StaleStepError(
                    f"cannot enable replication on non-empty table "
                    f"{self.table!r}: the ship log must be the complete "
                    "edit history"
                )

    def _do(self, cluster: "HBaseCluster") -> None:
        cluster.set_replica_count(self.table, self.count)
        for group in cluster.replication.groups_for(self.table):
            if len(group.followers) > max(self.count - 1, 0):
                raise StepVerificationError(
                    f"group {group.primary.name} over-replicated: "
                    f"{len(group.followers)} followers for target "
                    f"{self.count}"
                )
            for follower in group.followers:
                if follower.applied > len(group.log):
                    raise StepVerificationError(
                        f"follower watermark beyond the ship log on "
                        f"{group.primary.name}"
                    )

    def describe(self) -> str:
        return f"set-replicas({self.table},{self.count})"


class SetFollowers(Step):
    """Restore-only: force a table's follower hosting and replica
    target back to recorded values — the *same* placements, not
    laggiest-first / least-loaded re-derivations of them. With
    ``placements=None`` the table had no groups: drop its groups, taps
    and logs entirely."""

    kind = "set-followers"

    def __init__(
        self,
        table: str,
        placements: dict[bytes, list[str]] | None,
        target: int = 1,
    ) -> None:
        super().__init__()
        self.table = table
        self.placements = placements
        self.target = target

    def _do(self, cluster: "HBaseCluster") -> None:
        manager = cluster.replication
        if self.placements is None:
            manager.dereplicate_table(self.table)
        else:
            manager.reconcile_followers(
                self.table, self.placements, self.target
            )
        cluster._bump_layout()


class SplitRegion(Step):
    """Split the region of ``table`` covering ``split_key`` at that key."""

    kind = "split-region"

    def __init__(self, table: str, split_key: bytes) -> None:
        super().__init__()
        self.table = table
        self.split_key = split_key

    def _resolve(self, cluster: "HBaseCluster") -> None:
        from repro.errors import TableNotFoundError

        try:
            desc = cluster.descriptor(self.table)
            region = desc.region_for(self.split_key)
        except TableNotFoundError as e:
            raise StaleStepError(str(e)) from e
        if region.start_key == self.split_key:
            raise StaleStepError(
                f"{self.table!r} already has a boundary at "
                f"{self.split_key!r}"
            )
        if region.name in cluster.replication.groups:
            raise StaleStepError(
                f"region {region.name} is replicated and cannot be split"
            )
        host = cluster.server_for(region)
        if not host.alive:
            raise RegionUnavailableError(
                f"region {region.name} is hosted on dead server "
                f"{host.name}; waiting for recovery"
            )
        self._region = region

    def _do(self, cluster: "HBaseCluster") -> None:
        region = self._region
        rows_before = region.row_count()
        low, high = cluster.split_region(region, self.split_key)
        rows_after = low.row_count() + high.row_count()
        if rows_after != rows_before:
            raise StepVerificationError(
                f"split of {region.name} at {self.split_key!r} lost rows: "
                f"{rows_before} -> {rows_after}"
            )

    def describe(self) -> str:
        return f"split-region({self.table},{self.split_key!r})"


class MergeRegions(Step):
    """Merge the adjacent regions of ``table`` meeting at ``split_key``
    (the one starting at ``start_key`` with its right neighbour)."""

    kind = "merge-regions"

    def __init__(self, table: str, start_key: bytes, split_key: bytes) -> None:
        super().__init__()
        self.table = table
        self.start_key = start_key
        self.split_key = split_key

    def _resolve(self, cluster: "HBaseCluster") -> None:
        low = _resolve_region(cluster, self.table, self.start_key)
        high = _resolve_region(cluster, self.table, self.split_key)
        if low.end_key != high.start_key:
            raise StaleStepError(
                f"regions at {self.start_key!r} and {self.split_key!r} "
                f"of {self.table!r} are no longer adjacent"
            )
        for region in (low, high):
            host = cluster.server_for(region)
            if not host.alive:
                raise RegionUnavailableError(
                    f"region {region.name} is hosted on dead server "
                    f"{host.name}; waiting for recovery"
                )
        self._low, self._high = low, high

    def _do(self, cluster: "HBaseCluster") -> None:
        low, high = self._low, self._high
        rows_before = low.row_count() + high.row_count()
        merged = cluster.merge_regions(low, high)
        if merged.row_count() != rows_before:
            raise StepVerificationError(
                f"merge of {low.name}+{high.name} lost rows: "
                f"{rows_before} -> {merged.row_count()}"
            )

    def describe(self) -> str:
        return f"merge-regions({self.table},{self.split_key!r})"


class Rebalance(Step):
    """Run the :class:`~repro.hbase.cluster.RegionBalancer`."""

    kind = "rebalance"

    def _do(self, cluster: "HBaseCluster") -> None:
        from repro.hbase.cluster import RegionBalancer

        before = _table_counts(cluster)
        RegionBalancer(cluster).rebalance()
        after = _table_counts(cluster)
        if before != after:
            raise StepVerificationError(
                f"rebalance did not conserve row counts: {before} -> {after}"
            )

    def describe(self) -> str:
        return "rebalance"


class PoisonStep(Step):
    """Fault-drill hook: always fails verification at apply time, so
    harnesses (CI's induced-failure run, the rollback tests) can force
    a mid-stage failure after real steps already applied."""

    kind = "poison"

    def _do(self, cluster: "HBaseCluster") -> None:
        raise StepVerificationError("poisoned step (induced failure drill)")
