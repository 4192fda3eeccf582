"""Lightweight counters and timers for instrumenting the simulated cluster.

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

    def reset(self) -> None:
        self.value = 0


@dataclass
class Timer:
    """Accumulates durations as running sums (a labelled charge records
    one per call for the life of a simulation, so no sample is kept);
    exposes count/total/mean/stderr."""

    name: str
    count: int = 0
    total_ms: float = 0.0
    _sum_sq: float = 0.0

    def record(self, duration_ms: float) -> None:
        self.count += 1
        self.total_ms += duration_ms
        self._sum_sq += duration_ms * duration_ms

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    @property
    def stderr_ms(self) -> float:
        n = self.count
        if n < 2:
            return 0.0
        var = max(self._sum_sq - self.total_ms * self.total_ms / n, 0.0) / (n - 1)
        return math.sqrt(var / n)

    def reset(self) -> None:
        self.count = 0
        self.total_ms = 0.0
        self._sum_sq = 0.0


class MetricsRegistry:
    """Name-addressable store of counters and timers."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def timer(self, name: str) -> Timer:
        if name not in self._timers:
            self._timers[name] = Timer(name)
        return self._timers[name]

    def counters(self) -> dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def timers(self) -> dict[str, Timer]:
        return dict(self._timers)

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()
        for t in self._timers.values():
            t.reset()
