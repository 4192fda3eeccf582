"""The cluster cell: every closed-loop cluster experiment, built,
driven and checked by :func:`run_cell`.

A cell takes five things — a :class:`Layout` (cluster config, table,
pre-split keys or auto-split + balance), a preload, one op stream per
client, a client protocol and a participant list — and returns a
:class:`ChaosRun`. Each client drives its ``("put", row, value)`` /
``("get", row)`` / ``("scan", start, stop)`` ops through
:func:`_with_failover`, the one retry loop: a refused op (a region
offline, a shed request) backs off ``retry_after_ms`` (or
``RETRY_BACKOFF_MS``) x attempt and retries, up to its protocol's
``RETRIES``. Scans are pulled in chunks with a resume cursor, so an
open scan survives a mid-scan crash. Participants — the
:class:`FaultInjector`, a replication shipper, a rollout — join the
scheduler after the clients, in list order.

Everything observable is recorded in a :class:`ChaosHistory`, and
:func:`check_invariants` replays it against the final cluster state:
**durability** (serial replay of the acked writes reproduces the final
scan, no phantoms), **scan consistency** (sorted, no duplicates, no
unwritten values, no loss of rows acked before the scan) and **read
integrity** (a primary get sees the newest acked write), plus the
staleness axis for follower reads. All randomness flows through seeded
streams and all timing is virtual, so a cell's rerun is byte-identical.
The contract is in docs/FAULTS.md.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Sequence

from repro.config import ClusterConfig
from repro.errors import (
    RegionRetriesExhaustedError,
    RegionUnavailableError,
    ServerRecoveryError,
)
from repro.hbase.client import HBaseClient, HTable
from repro.hbase.cluster import HBaseCluster, RegionBalancer
from repro.hbase.ops import Get, Put, Scan
from repro.sim.clock import Simulation
from repro.sim.rng import derive_rng
from repro.sim.scheduler import (
    DeterministicScheduler,
    SchedulerReport,
    VirtualClient,
)

FAMILY = b"cf"
QUALIFIER = b"v"

FAILOVER_DELAY_MS = 20.0
"""Crash -> master recovery (the unavailability window clients ride out
with bounded backoff-and-retry)."""

RESTART_DELAY_MS = 15.0
"""Recovery -> the crashed process rejoins the cluster empty."""

INTERVAL_JITTER = 0.5
"""Uniform +-fraction applied to each crash gap (seeded draws)."""

RETRIES = {"failover": 12, "serving": 3}
"""Back-offs each client protocol allows one op. When they run out, a
``failover`` client raises
:class:`~repro.errors.RegionRetriesExhaustedError`; a ``serving``
client drops the op and counts it failed."""

RETRY_BACKOFF_MS = 8.0
"""Back-off base for a refusal that names no ``retry_after_ms`` (a
region offline); attempt ``k`` waits ``k`` times the base."""

SCAN_CHUNK_ROWS = 32
"""Rows a scan pulls per scheduler segment, so fault events can
interleave with (and interrupt) a long-running scan."""


# ------------------------------------------------------------------ fault plan
@dataclass(frozen=True)
class FaultConfig:
    """Shape of one chaos schedule (all times are virtual ms)."""

    cycles: int = 2
    """Crash/recover/restart cycles to inject."""

    first_crash_ms: float = 30.0
    """Virtual time of the first crash."""

    crash_interval_ms: float = 60.0
    """Mean gap between consecutive crash events."""

    recovery_replay_ms_per_entry: float = 0.0
    """Virtual cost per WAL/ship-log entry master failover must replay,
    charged on the injector's clock *before* the recover event fires —
    stretching the unavailability window by the amount of state to
    replay. This is the knob that makes replication measurable: a
    promoted follower replays only its un-shipped log suffix, an
    unreplicated region the crashed server's whole pending WAL. 0.0
    (the default) keeps recovery instantaneous and every pre-existing
    chaos run byte-identical."""

    label: str = "faults"
    """SimRNG stream label; also namespaces the per-client op streams."""


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault action against one named server."""

    at_ms: float
    kind: str  # "crash" | "recover" | "restart"
    server: str


def build_fault_plan(
    server_names: list[str],
    config: FaultConfig,
    rng,
) -> list[FaultEvent]:
    """Precompute the event list for one chaos run.

    Victims are drawn from the servers that are up at each crash
    instant, and a crash is only scheduled while at least two servers
    are up — master recovery always has a live host to reopen regions
    on. The plan is a pure function of ``(server_names, config, rng)``,
    so a given seed always injects the same faults at the same virtual
    timestamps.
    """
    if config.cycles < 0:
        raise ValueError(f"negative cycle count: {config.cycles}")
    events: list[tuple[float, int, str, str]] = []
    down_until: dict[str, float] = {}
    crash_counts: dict[str, int] = {}
    order = 0
    t = config.first_crash_ms
    for _ in range(config.cycles):
        candidates = [n for n in server_names if down_until.get(n, 0.0) <= t]
        if len(candidates) < 2:
            # wait for a restart: never take down the last live server
            pending = [u for u in down_until.values() if u > t]
            if not pending:
                # a cluster that can never spare a server (e.g. a single
                # region server) simply gets no faults injected
                break
            t = min(pending)
            candidates = [
                n for n in server_names if down_until.get(n, 0.0) <= t
            ]
        # spread victims: draw among the least-crashed candidates, so
        # repeated cycles hit servers that have had time to re-accrue
        # regions instead of re-killing the just-restarted empty one
        fewest = min(crash_counts.get(n, 0) for n in candidates)
        candidates = [
            n for n in candidates if crash_counts.get(n, 0) == fewest
        ]
        victim = candidates[int(rng.integers(len(candidates)))]
        crash_counts[victim] = crash_counts.get(victim, 0) + 1
        recover_at = t + FAILOVER_DELAY_MS
        restart_at = recover_at + RESTART_DELAY_MS
        events.append((t, order, "crash", victim))
        events.append((recover_at, order + 1, "recover", victim))
        events.append((restart_at, order + 2, "restart", victim))
        order += 3
        down_until[victim] = restart_at
        spread = INTERVAL_JITTER * (2.0 * float(rng.random()) - 1.0)
        t += config.crash_interval_ms * (1.0 + spread)
    events.sort(key=lambda e: (e[0], e[1]))
    return [FaultEvent(at, kind, server) for at, _, kind, server in events]


# ------------------------------------------------------------------ history
@dataclass
class ScanObservation:
    """What one logical chaos scan delivered, bracketed by history seqs."""

    start_seq: int
    end_seq: int
    start_row: bytes
    stop_row: bytes | None
    rows: list[tuple[bytes, bytes]]

    max_entry_lag: int = 0
    """Largest applied-watermark lag of any follower that served one of
    this scan's region windows (0 when every window hit a primary)."""

    missing_rows: dict = field(default_factory=dict)
    """row -> acked-but-unapplied edit count on the serving follower at
    the moment its window opened. The staleness oracle permits a row to
    be absent from the scan only when *every* pre-scan edit to it was
    still unapplied — i.e. this count covers them all."""


class ChaosHistory:
    """Execution-order record of everything a cell observed.

    The sequence counter orders acked writes, gets and scan windows on
    one global timeline. The whole simulation is single-threaded, so
    ack order *is* execution order *is* HBase-timestamp order — which
    makes "replay the acked writes serially in ack order" a sound
    oracle for the final state.
    """

    def __init__(self) -> None:
        self._seq = 0
        self.acked: list[tuple[int, bytes, bytes]] = []
        self.gets: list[tuple[int, bytes, bytes | None]] = []
        self.follower_gets: list[tuple[int, bytes, bytes | None, int, int]] = []
        """Gets served by a region replica, with the staleness pinning:
        ``(seq, row, value, row_lag, entry_lag)`` — at read time the
        follower had not applied the last ``row_lag`` edits to ``row``
        (and lagged the ship log by ``entry_lag`` entries overall), so
        the oracle knows *exactly* which acked value the read must have
        returned, not merely that it was some past value."""
        self.scans: list[ScanObservation] = []
        self.events: list[dict[str, Any]] = []
        self.crash_count = 0
        self.recover_count = 0
        self.restart_count = 0
        self.regions_recovered = 0
        self.follower_scan_windows = 0
        """Scan region-windows served by a follower replica."""
        self.failover_retries = 0
        """Back-offs every client took, for offline regions and sheds
        alike."""
        self.stalls_ms: list[float] = []
        """Client-observed failover stalls: first failed attempt of an
        op until the attempt that finally succeeded."""

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def record_ack(self, row: bytes, value: bytes) -> None:
        self.acked.append((self.next_seq(), row, value))

    def record_get(self, row: bytes, value: bytes | None) -> None:
        self.gets.append((self.next_seq(), row, value))

    def record_follower_get(
        self, row: bytes, value: bytes | None, row_lag: int, entry_lag: int
    ) -> None:
        self.follower_gets.append(
            (self.next_seq(), row, value, row_lag, entry_lag)
        )

    def record_event(
        self, at_ms: float, kind: str, server: str, regions: int
    ) -> None:
        self.events.append(
            {"at_ms": at_ms, "kind": kind, "server": server, "regions": regions}
        )


# ------------------------------------------------------------------ injector
class FaultInjector:
    """Daemon scheduler participant that applies a fault plan.

    Register with :meth:`install`; the injector advances its own virtual
    clock to each event's timestamp and yields, so the min-timestamp
    rule weaves crashes and recoveries between client segments exactly
    where their virtual times fall. Being a daemon, it neither keeps the
    run alive after the workload finishes nor stretches the makespan.
    """

    def __init__(
        self,
        cluster: HBaseCluster,
        config: FaultConfig,
        history: ChaosHistory,
        rng=None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.history = history
        if rng is None:
            rng = derive_rng(cluster.config.seed, config.label)
        self.plan = build_fault_plan(
            [s.name for s in cluster.servers], config, rng
        )

    def install(self, scheduler: DeterministicScheduler) -> VirtualClient:
        return scheduler.add_client("fault-injector", self.program, daemon=True)

    def program(self, vc: VirtualClient):
        servers = {s.name: s for s in self.cluster.servers}
        replay_cost = self.config.recovery_replay_ms_per_entry
        for event in self.plan:
            gap = event.at_ms - vc.clock.now_ms
            if gap > 0:
                vc.wait(gap, "fault.next_event")
            yield f"fault:{event.kind}"
            if replay_cost > 0.0 and event.kind == "recover":
                # replay takes time proportional to the state recovery
                # must re-apply — a promoted follower's log suffix, or
                # the whole pending WAL without replication — and the
                # region stays unavailable while it runs. Gated on the
                # cost being nonzero so default chaos runs keep their
                # exact pre-existing event interleaving.
                entries = self.cluster.recovery_replay_estimate(
                    servers[event.server]
                )
                if entries > 0:
                    vc.wait(entries * replay_cost, "fault.recovery_replay")
                    yield "fault:recovery-replay"
            self._apply(event, servers[event.server], vc)

    def _apply(self, event: FaultEvent, server, vc: VirtualClient) -> None:
        history = self.history
        if event.kind == "crash":
            hosted = len(server.regions)
            server.crash()
            history.crash_count += 1
            history.record_event(vc.clock.now_ms, "crash", server.name, hosted)
        elif event.kind == "recover":
            try:
                moved = self.cluster.recover_server(server)
            except ServerRecoveryError:
                # an orchestrated drain beat the injector to it
                # (recovery-then-drain): the regions are already hosted
                # elsewhere, so the master's work here is done. Nothing
                # but orchestration recovers mid-run, so pre-existing
                # chaos trajectories never take this branch.
                moved = 0
            history.recover_count += 1
            history.regions_recovered += moved
            history.record_event(vc.clock.now_ms, "recover", server.name, moved)
        elif event.kind == "restart":
            server.restart()
            history.restart_count += 1
            history.record_event(vc.clock.now_ms, "restart", server.name, 0)
        else:  # pragma: no cover - plans only emit the three kinds
            raise ValueError(f"unknown fault event kind: {event.kind}")


# ------------------------------------------------------------------ client ops
def _with_failover(
    vc: VirtualClient,
    history: ChaosHistory,
    attempt: Callable[[], Any],
    label: str,
    protocol: str,
):
    """Generator: ``attempt()`` until the cluster accepts it; returns
    its result.

    A refusal (:class:`RegionUnavailableError`, sheds included) backs
    off the error's ``retry_after_ms`` — ``RETRY_BACKOFF_MS`` when it
    names none — times the attempt number, yields (so recovery can
    run) and retries. The refusal after ``RETRIES[protocol]`` back-offs
    raises the typed exhaustion error instead.
    """
    first_failure_at: float | None = None
    for attempt_no in count(1):
        try:
            result = attempt()
        except RegionUnavailableError as refused:
            if attempt_no > RETRIES[protocol]:
                raise RegionRetriesExhaustedError(
                    f"{label} gave up after {attempt_no - 1} retries"
                ) from None
            if first_failure_at is None:
                first_failure_at = vc.clock.now_ms
            history.failover_retries += 1
            backoff = getattr(refused, "retry_after_ms", RETRY_BACKOFF_MS)
            vc.wait(backoff * attempt_no, "hbase.retry_backoff")
            yield "retry-backoff"
            continue
        if first_failure_at is not None:
            history.stalls_ms.append(vc.clock.now_ms - first_failure_at)
        return result


def chaos_put(
    vc: VirtualClient,
    handle: HTable,
    row: bytes,
    value: bytes,
    history: ChaosHistory,
    protocol: str = "failover",
):
    """Put with retry; the write is acked (recorded) only when the
    cluster accepted it."""

    def attempt() -> None:
        p = Put(row)
        p.add(FAMILY, QUALIFIER, value)
        handle.put(p)
        history.record_ack(row, value)

    yield from _with_failover(vc, history, attempt, f"put {row!r}", protocol)


def chaos_get(
    vc: VirtualClient,
    handle: HTable,
    row: bytes,
    history: ChaosHistory,
    protocol: str = "failover",
):
    """Get with retry; records the observed value."""

    def attempt() -> None:
        result = handle.get(Get(row))
        value = None if result is None else result.value(FAMILY, QUALIFIER)
        lag = handle.last_follower_lag if handle.follower_reads else None
        if lag is not None:
            history.record_follower_get(row, value, lag[0], lag[1])
        else:
            history.record_get(row, value)

    yield from _with_failover(vc, history, attempt, f"get {row!r}", protocol)


def chaos_scan(
    vc: VirtualClient,
    handle: HTable,
    start_row: bytes,
    stop_row: bytes | None,
    history: ChaosHistory,
    protocol: str = "failover",
):
    """Range scan with mid-scan failover resume.

    Each chunk of ``SCAN_CHUNK_ROWS`` rows is one retried attempt, with
    a scheduler yield between chunks, so crashes and recoveries
    interleave with the open scan and every outage gets a fresh retry
    budget. A crash mid-chunk kills the stream; the retry reopens it at
    the next undelivered row (``last delivered + b"\\x00"``) — no
    duplication, no loss. A recovery that completes *between* chunks is
    absorbed inside :meth:`HTable.scan` itself (one meta round trip,
    cursor reopened on the recovered region) and is invisible here.
    """
    start_seq = history.next_seq()
    rows: list[tuple[bytes, bytes]] = []
    if handle.follower_reads:
        handle.follower_scan_lag = []  # this logical scan's windows only
    cursor = start_row
    stream = None

    def chunk() -> bool:
        """Pull up to a chunk of rows; True once the scan is exhausted."""
        nonlocal cursor, stream
        if stream is None:
            stream = handle.scan(Scan(start_row=cursor, stop_row=stop_row))
        try:
            for _ in range(SCAN_CHUNK_ROWS):
                result = next(stream, None)
                if result is None:
                    return True
                rows.append((result.row, result.value(FAMILY, QUALIFIER)))
                cursor = result.row + b"\x00"
        except RegionUnavailableError:
            stream = None  # the retry reopens at the cursor
            raise
        return False

    while not (
        yield from _with_failover(
            vc, history, chunk, f"scan at {cursor!r}", protocol
        )
    ):
        yield "scan-chunk"
    max_entry_lag = 0
    missing: dict[bytes, int] = {}
    if handle.follower_reads and handle.follower_scan_lag:
        history.follower_scan_windows += len(handle.follower_scan_lag)
        # merge the per-window staleness pinnings; a row served by two
        # windows (failover resume) keeps its largest unapplied count
        for entry_lag, window_missing in handle.follower_scan_lag:
            max_entry_lag = max(max_entry_lag, entry_lag)
            for missing_row, count in window_missing.items():
                if count > missing.get(missing_row, 0):
                    missing[missing_row] = count
        handle.follower_scan_lag = []
    history.scans.append(
        ScanObservation(
            start_seq,
            history.next_seq(),
            start_row,
            stop_row,
            rows,
            max_entry_lag,
            missing,
        )
    )


_OPS = {"put": chaos_put, "get": chaos_get, "scan": chaos_scan}


# ------------------------------------------------------------------ invariants
def check_invariants(
    history: ChaosHistory,
    table: HTable,
    staleness_bound: int | None = None,
) -> list[str]:
    """Replay the recorded history against the post-chaos state and
    return every violated invariant (empty list = clean run).

    With replication active, ``staleness_bound`` adds the staleness
    axis: every follower-served observation must stay within the
    configured entry-lag bound, every follower get must have returned
    *exactly* the acked value its recorded row-lag pins it to (sound
    because the single-threaded simulator acks a write in the segment
    that applied it, so ship-log order per row equals ack order — a
    follower's view of a row is precisely its k-th-latest acked value),
    and a scan may miss a row only when its serving follower's recorded
    pinning shows every pre-scan edit to that row was still unapplied.
    """
    violations: list[str] = []

    # durability / serial-replay equivalence: applying the acked writes
    # in ack order to a dict model must reproduce the scanned state
    expected: dict[bytes, bytes] = {}
    for _seq, row, value in history.acked:
        expected[row] = value
    actual: dict[bytes, bytes] = {}
    for result in table.scan(Scan()):
        actual[result.row] = result.value(FAMILY, QUALIFIER)
    for row in sorted(set(expected) - set(actual)):
        violations.append(f"durability: acked row {row!r} lost")
    for row in sorted(set(actual) - set(expected)):
        violations.append(f"durability: phantom row {row!r} surfaced")
    for row in sorted(set(expected) & set(actual)):
        if expected[row] != actual[row]:
            violations.append(
                f"durability: row {row!r} holds {actual[row]!r}, serial "
                f"replay of acked writes expects {expected[row]!r}"
            )

    # the single-threaded simulator acks a write in the same segment
    # that applied it, so any value an observation saw must have been
    # acked strictly before the observation's own sequence number
    acked_by_row: dict[bytes, list[tuple[int, bytes]]] = {}
    for seq, row, value in history.acked:
        acked_by_row.setdefault(row, []).append((seq, value))

    def acked_before(row: bytes, bound: int, value: bytes) -> bool:
        return any(
            s < bound and v == value for s, v in acked_by_row.get(row, ())
        )

    # a primary get sees the newest write acked before it: a read that
    # merely returns *some* earlier value would pass a stale row cache
    for seq, row, value in history.gets:
        acks = acked_by_row.get(row, [])
        before = bisect_left(acks, (seq,))  # acks are in seq order
        newest = acks[before - 1][1] if before else None
        if value != newest:
            violations.append(
                f"read: get({row!r}) at seq {seq} observed {value!r}, the "
                f"newest write acked before it is {newest!r}"
            )

    # follower gets: pinned-prefix exactness. The recorded row_lag says
    # the serving follower had applied all but the last row_lag edits to
    # the row, so the read must have returned exactly the
    # (row_lag+1)-th-latest acked value — or nothing, when every edit
    # was still unapplied. Anything else is a staleness violation: a
    # never-acked value, a value newer than the watermark allows, or
    # one older than the pinning guarantees.
    for seq, row, value, row_lag, entry_lag in history.follower_gets:
        acks = [v for s, v in acked_by_row.get(row, ()) if s < seq]
        if len(acks) > row_lag:
            pinned = acks[-(row_lag + 1)]
            if value != pinned:
                violations.append(
                    f"staleness: follower get({row!r}) at seq {seq} "
                    f"observed {value!r}, watermark (row_lag={row_lag}) "
                    f"pins it to {pinned!r}"
                )
        elif value is not None:
            violations.append(
                f"staleness: follower get({row!r}) at seq {seq} observed "
                f"{value!r} though its watermark predates every acked "
                "write to the row"
            )
        if staleness_bound is not None and entry_lag > staleness_bound:
            violations.append(
                f"staleness: follower get({row!r}) at seq {seq} served "
                f"at entry lag {entry_lag} > bound {staleness_bound}"
            )

    # scans: sorted, no duplication, no phantom values, no loss of rows
    # acked before the scan started
    for i, scan in enumerate(history.scans):
        prev: bytes | None = None
        for row, value in scan.rows:
            if prev is not None and row <= prev:
                violations.append(
                    f"scan[{i}]: rows out of order / duplicated at {row!r}"
                )
            prev = row
            if not acked_before(row, scan.end_seq, value):
                violations.append(
                    f"scan[{i}]: row {row!r} delivered {value!r}, never "
                    "acked before the scan ended"
                )
        if staleness_bound is not None and scan.max_entry_lag > staleness_bound:
            violations.append(
                f"scan[{i}]: follower window served at entry lag "
                f"{scan.max_entry_lag} > bound {staleness_bound}"
            )
        seen = {row for row, _value in scan.rows}
        pre_start_acks: dict[bytes, int] = {}
        for seq, row, _value in history.acked:
            if seq >= scan.start_seq:
                break  # acked is in seq order
            pre_start_acks[row] = pre_start_acks.get(row, 0) + 1
        for row, count in pre_start_acks.items():
            in_window = scan.start_row <= row and (
                scan.stop_row in (None, b"") or row < scan.stop_row
            )
            if not in_window or row in seen:
                continue
            if scan.missing_rows.get(row, 0) >= count:
                # a follower window's recorded pinning shows every
                # pre-scan edit to this row was still unapplied: the
                # bounded-staleness contract allows the omission
                continue
            violations.append(
                f"scan[{i}]: row {row!r} (acked before the scan "
                "started) was not delivered"
            )
    return violations


# ------------------------------------------------------------------ the cell
@dataclass(frozen=True)
class Layout:
    """Where a cell's table lives. ``config`` builds the cluster. The
    table is pre-split at ``split_keys``; with ``None`` it grows through
    the size-triggered splits of the preload and is then balanced."""

    config: ClusterConfig
    table: str
    split_keys: list[bytes] | None = None


Participant = Callable[[HBaseCluster, ChaosHistory], Any]
"""Builds a scheduler participant (anything with ``install(scheduler)``)
for the cell's cluster and history."""


@dataclass
class ChaosRun:
    """Outcome of one cell (everything is deterministic)."""

    report: SchedulerReport
    history: ChaosHistory
    violations: list[str]
    cluster: HBaseCluster
    participants: list[Any]
    """What each :data:`Participant` built, in list order."""

    quiesce_recoveries: int = 0
    """Crashed-but-unrecovered servers the cell failed over after the
    workload finished (the injector daemon was wound down before its
    recover event fired)."""

    @property
    def replication(self) -> dict[str, Any] | None:
        """Replication counters when the cluster replicates; None — and
        absent from :meth:`as_dict` — otherwise."""
        manager = self.cluster.replication
        if manager is None:
            return None
        return {
            "replica_count": manager.config.replica_count,
            "ack_mode": manager.config.ack_mode,
            "promotions": manager.promotions,
            "followers_rebuilt": manager.followers_rebuilt,
            "entries_shipped": manager.entries_shipped,
            "follower_gets": len(self.history.follower_gets),
            "follower_scan_windows": self.history.follower_scan_windows,
        }

    def as_dict(self) -> dict[str, Any]:
        h = self.history
        out = {
            "makespan_ms": self.report.makespan_ms,
            "committed": self.report.committed,
            "crashes": h.crash_count,
            "recoveries": h.recover_count,
            "restarts": h.restart_count,
            "regions_recovered": h.regions_recovered,
            "failover_retries": h.failover_retries,
            "stalls": len(h.stalls_ms),
            "quiesce_recoveries": self.quiesce_recoveries,
            "violations": list(self.violations),
        }
        if self.replication is not None:
            out["replication"] = self.replication
        return out


def _client(
    vc: VirtualClient,
    handle: HTable,
    ops: list[tuple],
    history: ChaosHistory,
    protocol: str,
):
    """One closed-loop client: its ops in order, each through the retry
    protocol, with per-op response times recorded."""
    for op in ops:
        yield "op"
        started = vc.clock.now_ms
        try:
            yield from _OPS[op[0]](vc, handle, *op[1:], history, protocol)
        except RegionRetriesExhaustedError:
            if protocol != "serving":
                raise
            vc.stats.failed += 1  # dropped: never acked, never observed
            continue
        vc.stats.committed += 1
        vc.stats.response_times.append(vc.clock.now_ms - started)


def run_cell(
    layout: Layout,
    preload: Sequence[tuple[bytes, bytes]],
    ops: Sequence[list[tuple]],
    protocol: str = "failover",
    participants: Sequence[Participant] = (),
) -> ChaosRun:
    """Build the layout's cluster and table, preload it, drive one
    client per op stream under ``protocol`` beside ``participants``,
    then fail over any server left crashed and check every invariant.

    With replication on, the table gets followers before the preload
    (the ship log is the region's complete history), clients read from
    followers within the staleness bound, and the check enforces it.
    """
    config = layout.config
    sim = Simulation(seed=config.seed)
    cluster = HBaseCluster(sim, config)
    table = HBaseClient(cluster).create_table(
        layout.table, split_keys=layout.split_keys
    )
    replicated = cluster.replication is not None
    if replicated:
        cluster.replication.replicate_table(layout.table)
    history = ChaosHistory()
    puts = []
    for row, value in preload:
        history.record_ack(row, value)
        puts.append(Put(row).add(FAMILY, QUALIFIER, value))
    table.put_batch(puts)
    if layout.split_keys is None:
        RegionBalancer(cluster).rebalance()
    sim.reset_clock()

    scheduler = DeterministicScheduler(sim)
    for i, stream in enumerate(ops):
        handle = HTable(cluster, layout.table, follower_reads=replicated)

        def program(vc, handle=handle, stream=stream):
            yield from _client(vc, handle, stream, history, protocol)

        scheduler.add_client(f"client-{i}", program)
    built = []
    for make in participants:
        built.append(make(cluster, history))
        built[-1].install(scheduler)
    report = scheduler.run()

    # quiesce: if the workload finished inside a failover window the
    # daemon was wound down before recovering the victim — finish the
    # master's job so the invariant scan sees the whole key space
    quiesce = 0
    for server in cluster.servers:
        if not server.alive and not server.recovered:
            history.regions_recovered += cluster.recover_server(server)
            quiesce += 1
    violations = check_invariants(
        history,
        HTable(cluster, layout.table),
        staleness_bound=(
            cluster.replication.config.staleness_bound_entries
            if replicated else None
        ),
    )
    return ChaosRun(report, history, violations, cluster, built, quiesce)
