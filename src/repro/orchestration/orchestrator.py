"""The staged rollout engine: apply -> verify -> commit-or-rollback.

The :class:`Orchestrator` takes a plan (or an explicit step/stage
list), groups consecutive same-kind steps into **stages**, and drives
each stage through:

1. **apply** — every step is fenced (re-resolved against the current
   layout + epoch-stamped) and applied back-to-back in one scheduler
   segment, so fence and apply are atomic with respect to interleaved
   chaos; ``RegionUnavailableError`` (dead server, region awaiting
   recovery) retries with linear backoff inside a bounded budget,
   re-fencing each attempt so a step can chase its region across a
   crash/recovery cycle;
2. **verify** — cluster-wide invariants (region tiling, hosting,
   replica watermarks/anti-affinity) are checked; *transient*
   violations (a region on a crashed-but-not-yet-recovered server, a
   group short of followers) wait-and-retry, *fatal* ones (layout
   holes, watermark past the log) fail the stage;
3. **commit or rollback** — a committed stage records the layout
   epoch and is never revisited; a failed stage applies
   :func:`~repro.orchestration.plan.restore` — the steps from the live
   cluster back to the :class:`~repro.orchestration.plan.Layout`
   recorded at the stage's start — with the same retry budget, so an
   interrupted rollout lands on the last committed stage.

Run it synchronously (:meth:`Orchestrator.run`) for tests, or install
it on a :class:`~repro.sim.scheduler.DeterministicScheduler` as a
non-daemon participant so rollouts interleave deterministically with
the chaos engine's ``FaultInjector`` and the client workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import (
    HBaseError,
    RegionUnavailableError,
    RollbackError,
    StepVerificationError,
)
from repro.orchestration.plan import ClusterPlan, Layout, diff, restore
from repro.orchestration.steps import Step

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster


MAX_ATTEMPTS_PER_STEP = 8
"""Fence+apply attempts per step (forward or restore) before the stage
fails on ``RegionUnavailableError``."""

VERIFY_ATTEMPTS = 8
"""Stage-verify rounds to wait out *transient* violations (regions
awaiting recovery, groups short of followers) before failing."""

RETRY_BACKOFF_MS = 12.0
"""Linear backoff on ``RegionUnavailableError``: attempt ``n`` of a step
(forward or restore) waits ``n * RETRY_BACKOFF_MS``."""

VERIFY_BACKOFF_MS = 12.0
"""Wait between verify rounds: round ``n`` waits ``n * VERIFY_BACKOFF_MS``."""

STEP_COST_MS = 2.0
"""Admin round trip the orchestrator waits out on its own timeline per
applied step — rollouts take virtual time, so they interleave with the
workload instead of landing atomically."""


class StageReport:
    """Outcome of one stage."""

    def __init__(self, index: int, name: str, steps: list[str]) -> None:
        self.index = index
        self.name = name
        self.steps = steps
        self.status = "pending"  # -> committed | rolled-back
        self.attempts = 0
        self.started_ms = 0.0
        self.finished_ms = 0.0
        self.epoch: int | None = None  # layout epoch at commit
        self.error: str | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "steps": self.steps,
            "status": self.status,
            "attempts": self.attempts,
            "started_ms": round(self.started_ms, 6),
            "finished_ms": round(self.finished_ms, 6),
            "epoch": self.epoch,
            "error": self.error,
        }


class RolloutReport:
    """Outcome of one whole rollout."""

    def __init__(self) -> None:
        self.stages: list[StageReport] = []
        self.status = "pending"  # -> committed | rolled-back
        self.committed_stages = 0
        self.started_ms = 0.0
        self.finished_ms = 0.0
        self.epoch_start = 0
        self.epoch_end = 0

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "committed_stages": self.committed_stages,
            "total_stages": len(self.stages),
            "started_ms": round(self.started_ms, 6),
            "finished_ms": round(self.finished_ms, 6),
            "duration_ms": round(self.duration_ms, 6),
            "epoch_start": self.epoch_start,
            "epoch_end": self.epoch_end,
            "stages": [s.as_dict() for s in self.stages],
        }


def verify_cluster(cluster: "HBaseCluster") -> tuple[list[str], list[str]]:
    """Cluster-wide invariants, split into ``(transient, fatal)``.

    Transient violations resolve on their own once recovery/repair
    runs (region hosted on a dead-but-unrecovered server, replication
    group short of followers); fatal ones are structural corruption
    (tiling holes, unhosted/offline regions on live servers, follower
    watermark past the ship log, anti-affinity breach). Pure
    inspection: no charges, no RNG draws — safe to call concurrently
    with a scheduled workload."""
    transient: list[str] = []
    fatal: list[str] = []
    for name in sorted(cluster.tables):
        desc = cluster.tables[name]
        if not desc.regions:
            fatal.append(f"table {name!r} has no regions")
            continue
        prev_end: bytes | None = b""
        for region in desc.regions:
            if region.start_key != prev_end:
                fatal.append(
                    f"layout hole/overlap in {name!r} at "
                    f"{region.start_key!r} (expected {prev_end!r})"
                )
            prev_end = region.end_key
            host = cluster._region_host.get(region.name)
            if host is None:
                fatal.append(f"region {region.name} is unhosted")
            elif not host.alive:
                if host.recovered:
                    fatal.append(
                        f"region {region.name} still mapped to recovered "
                        f"dead server {host.name}"
                    )
                else:
                    transient.append(
                        f"region {region.name} on dead server {host.name} "
                        "(awaiting recovery)"
                    )
            elif not region.online:
                fatal.append(
                    f"region {region.name} offline on live server "
                    f"{host.name}"
                )
        if prev_end is not None:
            fatal.append(f"table {name!r} does not cover the key space end")
    manager = cluster.replication
    for group in manager.groups.values():
        want = manager.target_for(group.primary.table_name) - 1
        log_len = len(group.log)
        if len(group.followers) > max(want, 0):
            fatal.append(
                f"group {group.primary.name} over-replicated: "
                f"{len(group.followers)} followers for target "
                f"{want + 1}"
            )
        primary_host = cluster._region_host.get(group.primary.name)
        for follower in group.followers:
            if follower.applied > log_len:
                fatal.append(
                    f"follower watermark past the ship log on "
                    f"{group.primary.name} "
                    f"({follower.applied} > {log_len})"
                )
            if follower.is_live() and follower.server is primary_host:
                fatal.append(
                    f"anti-affinity breach: {group.primary.name} "
                    f"co-hosted with its follower on "
                    f"{follower.server.name}"
                )
        if len(group.live_followers()) < want:
            transient.append(
                f"group {group.primary.name} short: "
                f"{len(group.live_followers())}/{want} live followers"
            )
    return transient, fatal


def cluster_snapshot(cluster: "HBaseCluster") -> dict:
    """Row-for-row content snapshot: table -> row -> sorted cell list
    ``(family, qualifier, timestamp, value)``. Pure inspection (reads
    region stores directly — no client charges, no virtual time), so a
    rollback test can compare before/after byte-for-byte. Regions must
    be online (don't snapshot mid-outage)."""
    out: dict[str, dict[bytes, tuple]] = {}
    for name in sorted(cluster.tables):
        rows: dict[bytes, tuple] = {}
        for region in cluster.tables[name].regions:
            for row, result in region.scan(max_versions=2**31 - 1):
                if result is None or result.is_empty:
                    continue
                cells = []
                for (family, qualifier), versions in sorted(
                    result.cells.items()
                ):
                    for ts, value in versions:
                        cells.append((family, qualifier, ts, value))
                rows[row] = tuple(cells)
        out[name] = rows
    return out


def _group_stages(steps: list[Step]) -> list[tuple[str, list[Step]]]:
    """Consecutive same-kind steps form one stage."""
    grouped: list[tuple[str, list[Step]]] = []
    for step in steps:
        if grouped and grouped[-1][0] == step.kind:
            grouped[-1][1].append(step)
        else:
            grouped.append((step.kind, [step]))
    return [
        (f"{i + 1}:{kind}", group) for i, (kind, group) in enumerate(grouped)
    ]


class Orchestrator:
    """Executes a plan (or explicit stages) against one cluster.

    Exactly one of ``plan`` or ``stages`` must be given.
    ``stages`` takes pre-grouped ``(name, [steps])`` pairs — the hook
    tests and the CI fault drill use to compose a stage that mixes
    real steps with a :class:`~repro.orchestration.steps.PoisonStep`.
    ``start_delay_ms`` is a virtual delay before the first stage (lets
    a scheduled workload warm up before the rollout starts).
    """

    def __init__(
        self,
        cluster: "HBaseCluster",
        plan: ClusterPlan | None = None,
        stages: list[tuple[str, list[Step]]] | None = None,
        start_delay_ms: float = 0.0,
    ) -> None:
        if (plan is None) == (stages is None):
            raise ValueError("exactly one of plan= or stages= is required")
        self.cluster = cluster
        self.start_delay_ms = start_delay_ms
        if plan is not None:
            stages = _group_stages(diff(plan, cluster))
        self._stages = stages
        self.report = RolloutReport()

    # -- drivers ---------------------------------------------------------------
    def run(self) -> RolloutReport:
        """Synchronous rollout on the simulation clock (no scheduler):
        the generator's yield points become plain no-ops."""
        for _ in self._run():
            pass
        return self.report

    def install(self, scheduler):
        """Join a scheduled run as a *non-daemon* participant: the run
        does not end until the rollout concluded (committed or rolled
        back), and every yield is an interleaving point where chaos
        events and client ops may land."""
        return scheduler.add_client("orchestrator", self.program)

    def program(self, vc):
        yield from self._run()

    # -- engine ----------------------------------------------------------------
    def _run(self):
        """Time is read and waited on ``cluster.sim`` in both modes:
        under a scheduler its clock *is* the running client's."""
        cluster = self.cluster
        sim = cluster.sim
        report = self.report
        if self.start_delay_ms > 0:
            sim.wait(self.start_delay_ms, "orchestrator.start_delay")
            yield "orchestrator:start"
        report.started_ms = sim.clock.now_ms
        report.epoch_start = cluster.layout_epoch
        rolled_back = False
        for index, (name, steps) in enumerate(self._stages):
            stage = StageReport(index, name, [s.describe() for s in steps])
            report.stages.append(stage)
            stage.started_ms = sim.clock.now_ms
            layout = Layout.of(cluster)
            failure: Exception | None = None
            for step in steps:
                failure = yield from self._apply(step, stage)
                if failure is not None:
                    break
            if failure is None:
                rounds = 0
                while True:
                    rounds += 1
                    transient, fatal = verify_cluster(cluster)
                    if fatal:
                        failure = StepVerificationError("; ".join(fatal))
                        break
                    if not transient:
                        break
                    if rounds >= VERIFY_ATTEMPTS:
                        failure = StepVerificationError(
                            "transient violations never cleared: "
                            + "; ".join(transient)
                        )
                        break
                    sim.wait(
                        VERIFY_BACKOFF_MS * rounds, "orchestrator.verify_wait"
                    )
                    yield "orchestrator:verify-wait"
            if failure is None:
                stage.status = "committed"
                stage.epoch = cluster.layout_epoch
                stage.finished_ms = sim.clock.now_ms
                report.committed_stages += 1
            else:
                stage.error = f"{type(failure).__name__}: {failure}"
                for step in restore(layout, cluster):
                    error = yield from self._apply(step)
                    if error is not None:
                        raise RollbackError(
                            f"could not unwind {step.describe()}: {error}"
                        ) from error
                stage.status = "rolled-back"
                stage.finished_ms = sim.clock.now_ms
                rolled_back = True
                break
        report.status = "rolled-back" if rolled_back else "committed"
        report.finished_ms = sim.clock.now_ms
        report.epoch_end = cluster.layout_epoch

    def _apply(self, step: Step, stage: StageReport | None = None):
        """Fence and apply ``step``, retrying ``RegionUnavailableError``
        with linear backoff; returns the error that stopped it, or
        None. ``stage`` is the report a forward step counts its
        attempts on; a restore step (``stage=None``) waits under the
        ``rollback_`` labels."""
        cluster = self.cluster
        sim = cluster.sim
        attempts = 0
        while True:
            attempts += 1
            if stage is not None:
                stage.attempts += 1
            try:
                # fence + apply + local verify: one segment, atomic wrt
                # interleaved chaos/clients
                step.fence(cluster)
                step.apply(cluster)
            except RegionUnavailableError as e:
                if attempts >= MAX_ATTEMPTS_PER_STEP:
                    return e
                if stage is None:
                    sim.wait(
                        RETRY_BACKOFF_MS * attempts,
                        "orchestrator.rollback_retry_backoff",
                    )
                else:
                    sim.wait(
                        RETRY_BACKOFF_MS * attempts,
                        "orchestrator.retry_backoff",
                    )
                yield f"orchestrator:retry:{step.kind}"
                continue
            except HBaseError as e:
                # StaleStepError, verification failures,
                # replication/config misuse: not retryable
                return e
            if stage is None:
                sim.wait(STEP_COST_MS, "orchestrator.rollback_step")
            else:
                sim.wait(STEP_COST_MS, "orchestrator.step")
            yield f"orchestrator:applied:{step.kind}"
            return None
