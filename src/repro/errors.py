"""Exception hierarchy for the repro package.

Every layer raises a subclass of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """Invalid relational schema (unknown relation, bad key, dangling FK...)."""


class SqlError(ReproError):
    """SQL lexing/parsing/analysis failure."""


class SqlSyntaxError(SqlError):
    """The statement text could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class PlanError(ReproError):
    """The planner could not produce an execution plan for a statement."""


class UnsupportedStatementError(PlanError):
    """A statement is outside the subset a given system supports.

    Raised e.g. by the VoltDB engine for joins that are not on the
    partitioning column, and by Synergy for multi-row write statements.
    """


class HBaseError(ReproError):
    """Errors from the simulated HBase layer."""


class TableNotFoundError(HBaseError):
    """Operation addressed a table that does not exist."""


class TableExistsError(HBaseError):
    """CREATE for a table that already exists."""


class RegionUnavailableError(HBaseError):
    """The region hosting a key is offline (simulated failure)."""


class RegionRetriesExhaustedError(RegionUnavailableError):
    """A client gave up relocating an operation: the addressed region
    stayed unhosted/offline through the bounded meta-retry budget. A
    subclass of :class:`RegionUnavailableError` so callers treating the
    region as down keep working, while chaos harnesses can tell a
    bounded give-up from a transient failure."""


class ServerOverloadedError(RegionUnavailableError):
    """Admission control shed this request: the target region server's
    virtual backlog exceeded its (possibly pressure-shrunk) queue bound.
    A subclass of :class:`RegionUnavailableError` so every existing
    failover/retry path — ``HTable`` relocation, the chaos harness's
    bounded backoff-and-retry — absorbs a shed exactly like a transient
    region outage, while serving-aware clients can read
    ``retry_after_ms`` and count sheds separately."""

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServerRecoveryError(HBaseError):
    """Master failover misuse: recovering a region server that is still
    alive, or one whose regions were already recovered. Both would
    silently re-move regions (double recovery replays a WAL that was
    already replayed elsewhere), so they are typed, hard failures."""


class RegionSplitError(HBaseError):
    """A region cannot be split (too few rows, or the requested split
    key is not strictly inside the region's key range)."""


class ReplicationError(HBaseError):
    """Region-replication misuse: replicating a non-empty region (the
    group log must be the region's complete edit history), re-replicating
    an already replicated table, or a replica count the cluster cannot
    place under anti-affinity."""


class ClusterConfigError(HBaseError):
    """Invalid cluster configuration: a ``ClusterConfig`` field that
    would only blow up deep inside first use (negative replica count,
    non-positive split threshold, zero retry budget), or a topology
    request that contradicts the current membership (adding a region
    server under a name that already exists)."""


class OrchestrationError(HBaseError):
    """Errors from the declarative orchestration layer (plan, diff,
    staged rollout)."""


class PlanValidationError(OrchestrationError):
    """A ``ClusterPlan`` is internally inconsistent (bad server count,
    unsorted split points, more replicas than servers) or impossible
    against the current cluster (unknown table, enabling replication on
    a non-empty unreplicated table)."""


class StaleStepError(OrchestrationError):
    """Layout-epoch fencing: a ``Step`` was fenced against one cluster
    layout but the layout moved (or the step's preconditions dissolved —
    a region boundary vanished, a target server left) before it could
    apply. Stale steps refuse to apply; the orchestrator re-fences and
    retries or rolls the stage back."""


class StepVerificationError(OrchestrationError):
    """A step's in-segment verification failed (e.g. row counts were not
    conserved across a move/split/merge) or a stage-level invariant
    check found a structural violation. Triggers stage rollback."""


class RollbackError(OrchestrationError):
    """A stage rollback could not restore the last committed state even
    after exhausting the retry budget. The cluster is left in a
    partially unwound state; this is a hard failure."""


class TransactionError(ReproError):
    """Errors from either transaction layer (MVCC or Synergy)."""


class TransactionConflictError(TransactionError):
    """MVCC write-write conflict detected at commit time."""


class TransactionAbortedError(TransactionError):
    """The transaction was rolled back and cannot be used further."""


class LockTimeoutError(TransactionError):
    """A hierarchical lock could not be acquired within the timeout."""


class LockWaitRequired(TransactionError):
    """Cooperative-scheduling signal: the requested hierarchical lock is
    held by another virtual client at the requesting client's current
    virtual time. The transaction runner charges the wait (up to
    ``wait_until_ms``), yields to the scheduler, and retries — the
    multi-client analogue of blocking on the lock. Never raised outside
    a scheduled run (``sim.concurrency is None``)."""

    def __init__(self, lock_key, wait_until_ms: float) -> None:
        self.lock_key = lock_key
        self.wait_until_ms = wait_until_ms
        super().__init__(
            f"lock {lock_key!r} is held until t={wait_until_ms:.3f}ms"
        )


class DirtyReadRestart(ReproError):
    """Internal signal: a scan observed a marked (in-flight) row.

    The Phoenix executor catches this and restarts the scan; it is surfaced
    only when the restart budget is exhausted.
    """


class ViewSelectionError(ReproError):
    """View generation/selection failed (e.g. cyclic schema graph)."""


class WorkloadError(ReproError):
    """A workload statement violates the documented restrictions."""


class FederationError(ReproError):
    """Mediator routing or merge failure."""


class FederationWriteHazardError(FederationError):
    """Refused to re-execute a write whose effects may already have
    applied on a backend that cannot roll back (auto-commit sessions
    report ``rolls_back_on_abort == False``) — retrying would
    double-apply."""
