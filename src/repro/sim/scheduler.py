"""Deterministic cooperative multi-client scheduler.

N virtual clients run transactions as generator-based coroutines, with
no threads. Each client owns its own :class:`SimClock`; while a client
coroutine executes one segment (the code between two ``yield``
statements), the shared :class:`Simulation`'s clock is *swapped* to the
client's clock, so every cost charged anywhere in the engine lands on
the running client's timeline. The scheduler always resumes the
runnable client with the smallest virtual timestamp (ties broken by
client id), which makes every run fully reproducible from a seed and
gives conservative discrete-event semantics: when a client executes a
segment starting at virtual time t, every other client's clock is
already >= t, so no later-scheduled action can causally precede it.

Yield-point contract
--------------------
A client program is a generator. It must ``yield`` whenever virtual
time may pass — before each statement, and after each wait it charges —
so that the scheduler can re-evaluate which client is earliest. All
engine work between two yields forms one *cost-charge segment* billed
to the yielding client. Engine calls must complete within a segment
(they never suspend mid-call); contention between segments that overlap
in virtual time is mediated through the :class:`ConcurrencyContext`:

* hierarchical locks (``synergy.locks``) record their holds; an
  acquire of a lock another client's recorded hold has not yet
  released raises :class:`~repro.errors.LockWaitRequired` *before any
  lock-table state changes*, and :func:`run_transaction` charges the
  wait, yields, and retries the statement (blocking-and-retry). The
  blocking is conservative first-come-first-served in *execution*
  order: once a hold is recorded, later requests wait for its release
  even if their virtual clock is behind the acquisition time, because
  the owner's store mutations have already happened.
* serial resources (VoltDB's single-threaded partition executor) delay
  an operation that starts while the resource is busy until the
  resource frees up in virtual time.
* MVCC transactions genuinely overlap — begins and commits from
  different clients interleave — so Tephra's optimistic check detects
  real write-write conflicts; :func:`run_transaction` aborts, backs
  off, and retries the whole transaction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.errors import LockWaitRequired, TransactionConflictError
from repro.sim.clock import SimClock, Simulation
from repro.sim.metrics import percentile  # noqa: F401 - perfbench imports it from here

MAX_STEPS = 10_000_000
"""The runaway guard: a run that resumes clients more often than this
is a livelocked program."""
ABORT_BACKOFF_MS = 2.0
"""A conflict-aborted transaction waits this many ms times its attempt
number before it retries."""


@dataclass
class LockHold:
    """One recorded hold of a hierarchical lock (open-ended until the
    owner releases it)."""

    owner: int
    released_at: float | None = None


@dataclass
class ClientStats:
    """Per-client outcome counters and response times."""

    committed: int = 0
    aborted: int = 0
    failed: int = 0
    lock_waits: int = 0
    serial_waits: int = 0
    response_times: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "failed": self.failed,
            "lock_waits": self.lock_waits,
            "serial_waits": self.serial_waits,
            "response_times": list(self.response_times),
        }


class VirtualClient:
    """One simulated client: its own clock, coroutine and stats.

    A *daemon* client (``daemon=True``) is a background scheduler
    participant — e.g. a fault injector — that interleaves with the
    workload by the same min-virtual-timestamp rule but never keeps the
    run alive: the scheduler stops when every non-daemon client is done
    and closes any daemon generators still pending. Daemons are excluded
    from the makespan, so an injector whose next planned event lies past
    the end of the workload does not stretch the measured run."""

    def __init__(
        self,
        client_id: int,
        name: str,
        program,
        sim: Simulation,
        daemon: bool = False,
    ) -> None:
        self.client_id = client_id
        self.name = name
        self.program = program
        self.sim = sim
        self.daemon = daemon
        self.clock = SimClock()
        self.stats = ClientStats()
        self.gen: Generator | None = None
        self.done = False

    def wait(self, delta_ms: float, what: str) -> None:
        """:meth:`Simulation.wait` from inside this client's program.
        Only the running client may wait: between its own yields the
        scheduler has swapped the simulation's clock to this client's."""
        if self.sim.clock is not self.clock:
            raise RuntimeError(f"{self.name} waited while not running")
        self.sim.wait(delta_ms, what)


class ConcurrencyContext:
    """Shared contention state installed on a Simulation while a
    scheduler drives clients. Engine layers consult
    ``sim.concurrency`` and fall back to single-client behavior when it
    is None — which keeps every existing single-client code path (and
    its simulated latency) bit-identical."""

    def __init__(self) -> None:
        self.active: VirtualClient | None = None
        self._clients_by_id: dict[int, VirtualClient] = {}
        self._lock_holds: dict[Any, LockHold] = {}
        self._serial_busy_until: dict[Any, float] = {}
        self.lock_wait_count = 0
        self.serial_wait_count = 0
        self.conflict_abort_count = 0

    # -- hierarchical locks ---------------------------------------------------------
    def lock_check(self, key: Any, now_ms: float) -> None:
        """Raise :class:`LockWaitRequired` when another client's
        recorded hold of ``key`` is not yet released at ``now_ms``.
        Conservative FCFS in execution order: the owner's store
        mutations have already happened, so a later request must wait
        for the release even if its clock is behind the acquisition."""
        hold = self._lock_holds.get(key)
        if hold is None or self.active is None:
            return
        if hold.owner == self.active.client_id:
            return
        released = hold.released_at
        if released is None:
            # the owner still holds the lock across a yield: the earliest
            # it can possibly release is its current clock position
            released = max(now_ms, self._owner_clock(hold.owner)) + 1e-6
        if now_ms < released:
            self.lock_wait_count += 1
            self.active.stats.lock_waits += 1
            raise LockWaitRequired(key, wait_until_ms=released)

    def lock_record(self, key: Any) -> None:
        """Record a successful acquisition (hold is open-ended until
        :meth:`lock_release`)."""
        if self.active is None:
            return
        self._lock_holds[key] = LockHold(self.active.client_id)

    def lock_release(self, key: Any, now_ms: float) -> None:
        hold = self._lock_holds.get(key)
        if (
            hold is not None
            and self.active is not None
            and hold.owner == self.active.client_id
        ):
            hold.released_at = now_ms

    def _owner_clock(self, owner_id: int) -> float:
        client = self._clients_by_id.get(owner_id)
        return client.clock.now_ms if client is not None else 0.0

    # -- serial resources (single-threaded executors) -------------------------------
    def serial_enter(self, resources: Iterable[Any], sim, what: str) -> None:
        """Queue the running client until ALL of the serially executed
        ``resources`` are free (wait out the longest busy window, a
        ``sim.wait`` labelled ``what``; at most one wait event per
        delayed operation) before it starts an operation on them. Pair
        with :meth:`serial_exit` when the operation's charges are done.
        This is how per-partition work routes to the owning region
        server or VoltDB partition site: operations on different
        resources overlap in virtual time, operations on the same one
        serialize — so adding servers genuinely parallelizes."""
        now_ms = sim.clock.now_ms
        delay = 0.0
        for resource in resources:
            busy_until = self._serial_busy_until.get(resource, 0.0)
            if busy_until > now_ms:
                delay = max(delay, busy_until - now_ms)
        if delay > 0:
            self.serial_wait_count += 1
            if self.active is not None:
                self.active.stats.serial_waits += 1
            sim.wait(delay, what)

    def serial_exit(self, resources: Iterable[Any], sim) -> None:
        """Mark ``resources`` busy until the running client's current
        virtual time (the end of the charges made since
        :meth:`serial_enter`)."""
        until_ms = sim.clock.now_ms
        for resource in resources:
            if until_ms > self._serial_busy_until.get(resource, 0.0):
                self._serial_busy_until[resource] = until_ms

    def backlog_ms(self, resource: Any, now_ms: float) -> float:
        """Virtual backlog of one serial resource: how far its busy
        window extends past ``now_ms`` (0 when idle). This is the queue
        depth — in milliseconds of queued work — that admission control
        bounds."""
        busy_until = self._serial_busy_until.get(resource, 0.0)
        return busy_until - now_ms if busy_until > now_ms else 0.0


@dataclass
class SchedulerReport:
    """Outcome of one scheduled run (all values are deterministic)."""

    makespan_ms: float
    steps: int
    clients: dict[str, dict[str, Any]]
    lock_wait_count: int
    serial_wait_count: int
    conflict_abort_count: int

    @property
    def committed(self) -> int:
        return sum(c["committed"] for c in self.clients.values())

    @property
    def aborted(self) -> int:
        return sum(c["aborted"] for c in self.clients.values())

    @property
    def response_times(self) -> list[float]:
        out: list[float] = []
        for c in self.clients.values():
            out.extend(c["response_times"])
        return out


class DeterministicScheduler:
    """Min-virtual-timestamp cooperative scheduler over one Simulation.

    The ready queue is a binary heap keyed ``(clock.now_ms, client_id)``
    — exactly the resume key the original linear scan minimized — so a
    10k-client serving run resumes the next client in O(log n) instead
    of O(n). A suspended client's clock only moves while it is the
    running client, so each client has exactly one live heap entry and
    heap order equals scan order, ties included; a lazy-refresh guard
    re-pushes any entry whose clock moved anyway, keeping the heap
    correct even for exotic programs that advance peer clocks. The
    original O(n) scan lives on in ``tests/test_scheduler_heap.py`` as
    the reference model the equivalence property tests compare against.
    """

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.clients: list[VirtualClient] = []
        self.trace: list[tuple[int, float]] = []
        """(client_id, clock at resume) per step — a deterministic
        fingerprint of the interleaving, used by reproducibility tests."""

    def add_client(
        self,
        name: str,
        program: Callable[[VirtualClient], Generator],
        daemon: bool = False,
    ) -> VirtualClient:
        """Register a client. ``program(client)`` must return a
        generator that yields at every cost-charge segment boundary.
        ``daemon=True`` registers a background participant (fault
        injector) that never keeps the run alive on its own."""
        client = VirtualClient(
            len(self.clients), name, program, self.sim, daemon=daemon
        )
        self.clients.append(client)
        return client

    def run(self) -> SchedulerReport:
        if self.sim.concurrency is not None:
            raise RuntimeError("a scheduler is already driving this simulation")
        ctx = ConcurrencyContext()
        ctx._clients_by_id = {c.client_id: c for c in self.clients}
        self.sim.concurrency = ctx
        master_clock = self.sim.clock
        for client in self.clients:
            client.gen = client.program(client)
        try:
            steps = self._drive(ctx)
        finally:
            self.sim.clock = master_clock
            self.sim.concurrency = None
        makespan = max(
            (c.clock.now_ms for c in self.clients if not c.daemon), default=0.0
        )
        if makespan > master_clock.now_ms:
            self.sim.wait(makespan - master_clock.now_ms, "scheduler.makespan")
        return SchedulerReport(
            makespan_ms=makespan,
            steps=steps,
            clients={c.name: c.stats.as_dict() for c in self.clients},
            lock_wait_count=ctx.lock_wait_count,
            serial_wait_count=ctx.serial_wait_count,
            conflict_abort_count=ctx.conflict_abort_count,
        )

    def _step(self, ctx: ConcurrencyContext, client: VirtualClient) -> None:
        """Resume ``client`` for one cost-charge segment."""
        self.trace.append((client.client_id, client.clock.now_ms))
        ctx.active = client
        self.sim.clock = client.clock
        try:
            next(client.gen)
        except StopIteration:
            client.done = True
        finally:
            ctx.active = None

    def _drive(self, ctx: ConcurrencyContext) -> int:
        heap = [(c.clock.now_ms, c.client_id) for c in self.clients]
        heapq.heapify(heap)
        by_id = ctx._clients_by_id
        workers_left = sum(1 for c in self.clients if not c.daemon)
        steps = 0
        while workers_left > 0:
            entry_ms, client_id = heapq.heappop(heap)
            client = by_id[client_id]
            if client.clock.now_ms > entry_ms:
                # lazy refresh: the clock moved while suspended (no
                # engine path does this today, but stay correct if one
                # ever does) — re-queue at the real position
                heapq.heappush(heap, (client.clock.now_ms, client_id))
                continue
            self._step(ctx, client)
            if client.done:
                if not client.daemon:
                    workers_left -= 1
            else:
                heapq.heappush(heap, (client.clock.now_ms, client_id))
            steps += 1
            if steps > MAX_STEPS:
                raise RuntimeError(
                    f"scheduler exceeded {MAX_STEPS} steps "
                    "(livelocked client program?)"
                )
        # the workload is finished — wind down pending background
        # programs in registration order
        for c in self.clients:
            if not c.done:
                if c.gen is not None:
                    c.gen.close()
                c.done = True
        return steps


def run_transaction(
    client: VirtualClient,
    session,
    statements: Sequence[tuple[str, tuple]],
    max_attempts: int = 16,
    on_commit: Callable[[], None] | None = None,
) -> Generator[str, None, bool]:
    """Drive one transaction through a system session, cooperatively.

    ``yield from`` this inside a client program. It executes the
    statements in order, yielding before each one and at every wait
    point; blocks-and-retries the current statement on
    :class:`LockWaitRequired`, and aborts/backs-off/retries the whole
    transaction on :class:`TransactionConflictError`. Returns True when
    the transaction committed; after ``max_attempts`` aborts it gives up
    and counts the transaction as failed.
    """
    started_at = client.clock.now_ms
    for attempt in range(1, max_attempts + 1):
        session.begin()
        try:
            for sql, params in statements:
                while True:
                    yield "op"
                    try:
                        session.execute(sql, params)
                        break
                    except LockWaitRequired as wait:
                        wait_ms = wait.wait_until_ms - client.clock.now_ms
                        if wait_ms > 0:
                            client.wait(wait_ms, "txn.lock_wait")
                        yield "lock-wait"
            yield "commit"
            session.commit()
        except TransactionConflictError:
            client.stats.aborted += 1
            session.abort()
            client.wait(ABORT_BACKOFF_MS * attempt, "txn.abort_backoff")
            yield "abort"
            continue
        except BaseException:
            session.abort()
            raise
        client.stats.committed += 1
        client.stats.response_times.append(client.clock.now_ms - started_at)
        if on_commit is not None:
            on_commit()
        return True
    client.stats.failed += 1
    return False
