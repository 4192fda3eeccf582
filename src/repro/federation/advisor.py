"""Online routing advisor for the federation mediator.

Keeps a per-(statement, backend) EWMA of *observed* virtual execution
latency and re-routes when the observation diverges from the model
estimate — the online half of an Agrawal-style advisor: the static cost
model proposes, the running mix disposes.

Everything here is deterministic: observations arrive in virtual time
from seeded simulations, the EWMA is plain arithmetic, ties break on
registration order, and the optional exploration draw comes from a
``derive_rng`` stream keyed by the mediator seed — two runs with the
same seed produce byte-identical decision logs
(``tests/test_systems_equivalence.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.rng import derive_rng


@dataclass
class _Ewma:
    value: float = 0.0
    observations: int = 0

    def observe(self, ms: float, alpha: float) -> None:
        if self.observations == 0:
            self.value = ms
        else:
            self.value = alpha * ms + (1.0 - alpha) * self.value
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
    explored: bool = False

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "now_ms": round(self.now_ms, 6),
            "statement_id": self.statement_id,
            "chosen": self.chosen,
            "costs": {k: round(v, 6) for k, v in sorted(self.costs.items())},
            "rerouted": list(self.rerouted),
            "explored": self.explored,
        }


class RoutingAdvisor:
    """Latency-aware route selection over model estimates.

    ``choose`` picks the cheapest backend by *advised* cost: the model
    estimate until ``min_observations`` samples have arrived, then the
    observed EWMA whenever it diverges from the estimate by more than
    ``divergence``x in either direction (a backend that turns out
    slower than modeled loses the route; one that turns out faster
    steals it). ``epsilon`` > 0 adds seeded exploration so a demoted
    backend still gets occasional samples.
    """

    def __init__(
        self,
        seed: int = 0,
        alpha: float = 0.3,
        divergence: float = 2.0,
        min_observations: int = 3,
        epsilon: float = 0.0,
    ) -> None:
        self.alpha = alpha
        self.divergence = divergence
        self.min_observations = min_observations
        self.epsilon = epsilon
        self._rng = derive_rng(seed, "federation/advisor")
        self._ewma: dict[tuple[str, str], _Ewma] = {}
        self.decision_log: list[RouteDecision] = []

    # -- observations ------------------------------------------------------------
    def observe(self, statement_id: str, backend: str, ms: float) -> None:
        self._ewma.setdefault((statement_id, backend), _Ewma()).observe(
            ms, self.alpha
        )

    # -- advised costs -----------------------------------------------------------
    def advised_cost(
        self, statement_id: str, backend: str, estimate_ms: float
    ) -> tuple[float, bool]:
        """(cost to rank by, whether the estimate was overridden)."""
        e = self._ewma.get((statement_id, backend))
        if e is None or e.observations < self.min_observations:
            return estimate_ms, False
        floor = max(estimate_ms, 1e-9)
        ratio = e.value / floor
        if ratio > self.divergence or ratio < 1.0 / self.divergence:
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
        explored = False
        if self.epsilon > 0 and len(candidates) > 1:
            if self._rng.random() < self.epsilon:
                others = [n for n, _ in candidates if n != best_name]
                best_name = others[int(self._rng.integers(len(others)))]
                explored = True
        assert best_name is not None
        self.decision_log.append(
            RouteDecision(
                seq=len(self.decision_log),
                now_ms=now_ms,
                statement_id=statement_id,
                chosen=best_name,
                costs=costs,
                rerouted=tuple(rerouted),
                explored=explored,
            )
        )
        return best_name

    def log_dicts(self) -> list[dict]:
        return [d.to_dict() for d in self.decision_log]
