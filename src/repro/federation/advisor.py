"""Online routing advisor for the federation mediator.

Keeps a per-(statement, backend) EWMA of *observed* virtual execution
latency and re-routes when the observation diverges from the model
estimate — the online half of an Agrawal-style advisor: the static cost
model proposes, the running mix disposes.

Everything here is deterministic: observations arrive in virtual time
from seeded simulations, the EWMA is plain arithmetic, ties break on
registration order and nothing draws — two runs with the same seed
produce byte-identical decision logs
(``tests/test_systems_equivalence.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALPHA = 0.3
"""Weight of the newest observation in the EWMA."""

DIVERGENCE = 2.0
"""How far (as a ratio, either way) the EWMA must stray from the
estimate before it overrides it."""

MIN_OBSERVATIONS = 3
"""Observations before the EWMA is trusted at all."""


@dataclass
class _Ewma:
    value: float = 0.0
    observations: int = 0

    def observe(self, ms: float) -> None:
        if self.observations == 0:
            self.value = ms
        else:
            self.value = ALPHA * ms + (1.0 - ALPHA) * self.value
        self.observations += 1


@dataclass
class RouteDecision:
    """One routing choice, in decision-log (and JSON) friendly form."""

    seq: int
    now_ms: float
    statement_id: str
    chosen: str
    costs: dict[str, float] = field(default_factory=dict)
    rerouted: tuple[str, ...] = ()
    """Backends whose estimate was overridden by the observed EWMA."""

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "now_ms": round(self.now_ms, 6),
            "statement_id": self.statement_id,
            "chosen": self.chosen,
            "costs": {k: round(v, 6) for k, v in sorted(self.costs.items())},
            "rerouted": list(self.rerouted),
        }


class RoutingAdvisor:
    """Latency-aware route selection over model estimates.

    ``choose`` picks the cheapest backend by *advised* cost: the model
    estimate until :data:`MIN_OBSERVATIONS` samples have arrived, then
    the observed EWMA whenever it diverges from the estimate by more
    than :data:`DIVERGENCE`x in either direction (a backend that turns
    out slower than modeled loses the route; one that turns out faster
    steals it).
    """

    def __init__(self) -> None:
        self._ewma: dict[tuple[str, str], _Ewma] = {}
        self.decision_log: list[RouteDecision] = []

    # -- observations ------------------------------------------------------------
    def observe(self, statement_id: str, backend: str, ms: float) -> None:
        self._ewma.setdefault((statement_id, backend), _Ewma()).observe(ms)

    # -- advised costs -----------------------------------------------------------
    def advised_cost(
        self, statement_id: str, backend: str, estimate_ms: float
    ) -> tuple[float, bool]:
        """(cost to rank by, whether the estimate was overridden)."""
        e = self._ewma.get((statement_id, backend))
        if e is None or e.observations < MIN_OBSERVATIONS:
            return estimate_ms, False
        floor = max(estimate_ms, 1e-9)
        ratio = e.value / floor
        if ratio > DIVERGENCE or ratio < 1.0 / DIVERGENCE:
            return e.value, True
        return estimate_ms, False

    def choose(
        self,
        statement_id: str,
        candidates: list[tuple[str, float]],
        now_ms: float,
    ) -> str:
        """Pick a backend from ``(name, estimate_ms)`` candidates and
        append the decision to the log. Candidate order is the
        registration order, which is also the tie-break."""
        if not candidates:
            raise ValueError(f"no backend supports {statement_id!r}")
        costs: dict[str, float] = {}
        rerouted: list[str] = []
        best_name, best_cost = None, float("inf")
        for name, estimate in candidates:
            cost, overridden = self.advised_cost(statement_id, name, estimate)
            costs[name] = cost
            if overridden:
                rerouted.append(name)
            if cost < best_cost:
                best_name, best_cost = name, cost
        assert best_name is not None
        self.decision_log.append(
            RouteDecision(
                seq=len(self.decision_log),
                now_ms=now_ms,
                statement_id=statement_id,
                chosen=best_name,
                costs=costs,
                rerouted=tuple(rerouted),
            )
        )
        return best_name

    def log_dicts(self) -> list[dict]:
        return [d.to_dict() for d in self.decision_log]
