"""Per-server admission control with p99-targeted adaptive shedding.

Under the deterministic scheduler, every operation queues on its region
server through ``ConcurrencyContext.serial_enter``, so a server's
*virtual backlog* — how far its busy window extends past the arriving
client's clock — is an exact measure of queue depth in milliseconds of
work. The admission controller bounds that backlog:

* **Bounded request queue.** A request arriving when the backlog
  exceeds its bound is shed immediately with a typed, retryable
  :class:`~repro.errors.ServerOverloadedError` — *before* the server's
  busy window is touched, so a shed request consumes no server
  capacity (the client burned only its own RPC).
* **p99-targeted adaptation.** The controller keeps a sliding window
  of completed-request latencies (queue wait + service, measured in
  virtual time between admit and completion). Every
  ``P99_REFRESH_EVERY`` completions it re-estimates the window's p99;
  when that exceeds ``p99_budget_ms`` the effective queue bound shrinks
  by the overshoot ratio (``pressure``), shedding harder until the tail
  returns to budget. All inputs are virtual-time quantities, so shed
  decisions are bit-identical across reruns at the same seed.

Every table on a server is admitted against the same bound; sheds are
still counted per table (``shed_by_table``) for ``serving_stats()``.
"""

from __future__ import annotations

from collections import deque

from repro.config import ServingConfig
from repro.errors import ServerOverloadedError
from repro.sim.metrics import percentile

P99_WINDOW = 128
"""Completed-request latencies kept per server for the p99 estimate."""

P99_REFRESH_EVERY = 16
"""Completions between pressure re-estimates (keeps the estimator off
the per-request path; the cadence is deterministic)."""

SHED_RETRY_AFTER_MS = 2.0
"""Retry-after hint carried by ``ServerOverloadedError``; clients back
off at least this long before re-offering a shed request."""


class AdmissionController:
    """Deterministic bounded-queue admission with adaptive shedding:
    one queue bound, shrunk by ``pressure``, for every table."""

    __slots__ = (
        "server_name",
        "queue_bound_ms",
        "p99_budget_ms",
        "pressure",
        "admitted",
        "shed",
        "shed_by_table",
        "shed_log",
        "_window",
        "_since_refresh",
    )

    def __init__(self, server_name: str, config: ServingConfig) -> None:
        if config.admission_queue_ms is None:
            raise ValueError("admission control is disabled in this config")
        self.server_name = server_name
        self.queue_bound_ms = config.admission_queue_ms
        self.p99_budget_ms = config.p99_budget_ms
        self.pressure = 1.0
        self.admitted = 0
        self.shed = 0
        self.shed_by_table: dict[str, int] = {}
        self.shed_log: list[tuple[str, float, float, float]] | None = None
        self._window: deque[float] = deque(maxlen=P99_WINDOW)
        self._since_refresh = 0

    def bound_ms(self) -> float:
        """Effective queue bound at current pressure."""
        return self.queue_bound_ms / self.pressure

    def admit(self, table: str, now_ms: float, backlog_ms: float) -> float:
        """Admit (returning the arrival timestamp as the completion
        token) or shed with :class:`ServerOverloadedError`."""
        bound = self.bound_ms()
        if backlog_ms > bound:
            self.shed += 1
            self.shed_by_table[table] = self.shed_by_table.get(table, 0) + 1
            if self.shed_log is not None:
                self.shed_log.append((table, now_ms, backlog_ms, bound))
            raise ServerOverloadedError(
                f"server {self.server_name} shed {table!r} request: "
                f"backlog {backlog_ms:.3f} ms > bound {bound:.3f} ms "
                f"(pressure {self.pressure:.3f})",
                retry_after_ms=SHED_RETRY_AFTER_MS,
            )
        self.admitted += 1
        return now_ms

    def complete(self, token_ms: float, now_ms: float) -> None:
        """Record one admitted request's virtual latency; periodically
        re-estimate tail pressure when a p99 budget is configured."""
        self._window.append(now_ms - token_ms)
        if self.p99_budget_ms is None:
            return
        self._since_refresh += 1
        if self._since_refresh >= P99_REFRESH_EVERY:
            self._since_refresh = 0
            p99 = percentile(self._window, 0.99)
            self.pressure = max(1.0, p99 / self.p99_budget_ms)

    def stats(self) -> dict[str, int | float]:
        offered = self.admitted + self.shed
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_rate": (self.shed / offered) if offered else 0.0,
            "pressure": self.pressure,
            "shed_by_table": dict(sorted(self.shed_by_table.items())),
        }
