"""Virtual clock and simulation context.

The simulator is single-threaded: a single :class:`SimClock` advances as
engines charge costs. Two verbs move it, and nothing else under
``src/repro`` may (``tests/test_sim.py`` greps): *work* is
:meth:`Simulation.charge` (a named price × an integer quantity from
:func:`~repro.config.price_list`, jittered, one RNG draw), everything
else — queueing, backoff, sleeping, adopting a backend's elapsed time —
is :meth:`Simulation.wait` (exact, never draws). Response times are
measured with :class:`Stopwatch`, which records the clock delta around
an operation — the virtual analogue of the paper's client-side ``tau``.
Both name what they move it for: an attached :attr:`Simulation.trace`
reads where a statement's virtual ms went, one
``(what, price, quantity, ms)`` leaf per move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CostModel, DEFAULT_COST_MODEL, price_list
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import derive_rng


class SimClock:
    """A monotonically advancing virtual clock, in milliseconds."""

    __slots__ = ("_now_ms",)

    def __init__(self) -> None:
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Move the clock forward by ``delta_ms`` (must be >= 0)."""
        if delta_ms < 0:
            raise ValueError(f"cannot move time backwards: {delta_ms}")
        self._now_ms += delta_ms
        return self._now_ms


@dataclass
class Stopwatch:
    """Measures elapsed virtual time between :meth:`start` and :meth:`stop`."""

    clock: SimClock
    started_at: float = field(default=0.0)
    elapsed_ms: float = field(default=0.0)

    def start(self) -> "Stopwatch":
        self.started_at = self.clock.now_ms
        return self

    def stop(self) -> float:
        self.elapsed_ms = self.clock.now_ms - self.started_at
        return self.elapsed_ms


class Simulation:
    """Shared context for one simulated cluster.

    Holds the clock, the cost model and its price list, a metrics
    registry and a deterministic RNG stream. All engine components
    receive the same ``Simulation`` so their charges accumulate on one
    timeline.

    ``jitter_fraction`` > 0 makes every charge multiplicatively noisy
    (seeded, reproducible), which is how repeated experiment runs get a
    realistic non-zero standard error.

    ``trace`` is None until a caller attaches a list; from then on every
    ``charge`` and ``wait`` that moves the clock appends
    ``(what, price, quantity, ms)`` with the ms it added, in clock order
    (under a scheduler, every client's leaves interleaved). A wait has
    no price: its leaf is ``(what, None, None, ms)``.

    ``concurrency`` is None in ordinary single-client operation. While a
    :class:`~repro.sim.scheduler.DeterministicScheduler` drives virtual
    clients it installs a ``ConcurrencyContext`` here and swaps ``clock``
    to the running client's clock per segment; engine layers consult
    ``concurrency`` for contention (lock hold intervals, serial
    resources) and behave exactly as before when it is None.
    """

    def __init__(
        self,
        cost: CostModel = DEFAULT_COST_MODEL,
        seed: int = 0,
        jitter_fraction: float = 0.0,
    ) -> None:
        self.cost = cost
        self.prices = price_list(cost)
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.seed = seed
        self.jitter_fraction = float(jitter_fraction)
        self.concurrency = None  # ConcurrencyContext during scheduled runs
        self.trace: list[tuple] | None = None
        self._rng = derive_rng(seed, "simulation-jitter")

    # -- charging ---------------------------------------------------------------
    def charge(self, what: str, price: str | tuple, quantity: int | tuple) -> None:
        """Advance virtual time by ``quantity`` units of the price named
        ``price`` (plus optional jitter) of work named ``what``. A
        compound charge names a tuple of prices and one of quantities,
        summed in order under one draw. A charge that adds 0 ms moves
        nothing: no draw, no leaf."""
        prices = self.prices
        if price.__class__ is str:
            delta_ms = prices[price] * quantity
        else:
            delta_ms = 0.0
            for name, n in zip(price, quantity):
                delta_ms += prices[name] * n
        if delta_ms <= 0.0:
            if delta_ms < 0.0:
                raise ValueError(f"negative charge: {what} {price} x {quantity}")
            return
        if self.jitter_fraction > 0.0:
            factor = 1.0 + self.jitter_fraction * float(self._rng.standard_normal())
            delta_ms *= max(factor, 0.1)
        # inlined clock.advance: charge() runs once per row on hot paths
        self.clock._now_ms += delta_ms
        if self.trace is not None:
            self.trace.append((what, price, quantity, delta_ms))

    def wait(self, delta_ms: float, what: str) -> None:
        """Advance virtual time by exactly ``delta_ms`` of *not working*:
        queueing, backoff, sleeping until a planned instant, adopting a
        backend's elapsed time. Never draws jitter, so a wait cannot
        re-deal the charges around it. ``wait(0)`` is a no-op, a negative
        wait raises."""
        if delta_ms == 0:
            return
        self.clock.advance(delta_ms)
        if self.trace is not None:
            self.trace.append((what, None, None, delta_ms))

    def stopwatch(self) -> Stopwatch:
        return Stopwatch(self.clock).start()

    def reset_clock(self) -> None:
        """Zero the clock (data, metrics and trace are preserved)."""
        self.clock = SimClock()
