"""Lightweight counters for instrumenting the simulated cluster.

Used by tests to assert *mechanism* (e.g. "the nested-loop join issued
one Get RPC per outer row") rather than only end-to-end latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a sample set."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class Counter:
    name: str
    value: int = 0

    def inc(self, by: int = 1) -> None:
        self.value += by


class MetricsRegistry:
    """Name-addressable store of counters."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def counters(self) -> dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}
