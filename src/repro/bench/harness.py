"""Result containers, statistics and text rendering for the experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.sim.metrics import percentile

SEED = 20170904
"""The seed of the paper's micro-benchmarks and of every cluster suite."""


@dataclass(frozen=True)
class Stat:
    """Mean and standard error of repeated measurements."""

    mean: float
    stderr: float
    n: int


def summarize(samples: Sequence[float]) -> Stat:
    n = len(samples)
    if n == 0:
        return Stat(float("nan"), float("nan"), 0)
    mean = sum(samples) / n
    if n < 2:
        return Stat(mean, 0.0, n)
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    return Stat(mean, math.sqrt(var / n), n)


@dataclass
class Series:
    """One labelled series of (x -> Stat) points, e.g. one system."""

    label: str
    points: dict[Any, Stat | None] = field(default_factory=dict)

    def set(self, x: Any, stat: Stat | None) -> None:
        self.points[x] = stat


@dataclass
class ExperimentResult:
    """A rendered experiment: series over shared x-values plus notes."""

    experiment_id: str
    title: str
    x_label: str
    x_values: list[Any] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    unit: str = "ms"

    def add_series(self, label: str) -> Series:
        s = Series(label)
        self.series.append(s)
        return s

    def get(self, label: str, x: Any) -> Stat | None:
        for s in self.series:
            if s.label == label:
                return s.points.get(x)
        return None

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (for ``--emit-json`` trajectory files)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "unit": self.unit,
            "x_values": [str(x) for x in self.x_values],
            "series": {
                s.label: {
                    str(x): (
                        None
                        if stat is None
                        else {"mean": stat.mean, "stderr": stat.stderr, "n": stat.n}
                    )
                    for x, stat in s.points.items()
                }
                for s in self.series
            },
            "notes": list(self.notes),
        }

    # -- rendering --------------------------------------------------------------------
    def to_text(self) -> str:
        headers = [self.x_label] + [s.label for s in self.series]
        rows: list[list[str]] = []
        for x in self.x_values:
            row = [str(x)]
            for s in self.series:
                stat = s.points.get(x)
                if stat is None:
                    row.append("X")
                else:
                    row.append(f"{stat.mean:,.1f} ± {stat.stderr:,.1f}")
            rows.append(row)
        table = render_table(headers, rows)
        lines = [f"== {self.experiment_id}: {self.title} (unit: {self.unit}) ==", table]
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def per_second(count: int, makespan_ms: float) -> float:
    """``count`` events per virtual second. A degenerate cell (nothing
    ran, zero makespan) reports 0.0, not NaN: bare NaN tokens would
    make the emitted JSON unparseable."""
    return count / (makespan_ms / 1000.0) if makespan_ms > 0 else 0.0


def percentile_or_zero(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample (see
    :func:`per_second`)."""
    return percentile(samples, q) if samples else 0.0


class Grid:
    """The scaffolding every sweep suite shares: one
    :class:`ExperimentResult` per metric over a common x-axis, one
    series per swept label (created on first use, so report column
    order is the order cells are filled in), single-shot ``Stat``
    points, and the same notes attached to every metric."""

    def __init__(
        self,
        x_label: str,
        x_values: Iterable[Any],
        **metrics: tuple[str, str, str],
    ) -> None:
        """``metrics`` maps a metric key to ``(experiment_id, title,
        unit)``."""
        xs = list(x_values)
        self.results = {
            key: ExperimentResult(
                experiment_id, title, x_label, x_values=list(xs), unit=unit
            )
            for key, (experiment_id, title, unit) in metrics.items()
        }

    def set(self, metric: str, label: str, x: Any, value: float, n: int = 1) -> None:
        result = self.results[metric]
        series = next((s for s in result.series if s.label == label), None)
        if series is None:
            series = result.add_series(label)
        series.set(x, Stat(value, 0.0, n))

    def finish(self, *notes: str) -> dict[str, ExperimentResult]:
        for result in self.results.values():
            result.notes.extend(notes)
        return self.results


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Iterable[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    out = [fmt(headers), sep]
    out.extend(fmt(r) for r in rows)
    return "\n".join(out)


def ratio_of_means(
    result: ExperimentResult, numerator: str, denominator: str
) -> float:
    """Mean over shared x-values of (numerator mean / denominator mean)."""
    ratios = []
    for x in result.x_values:
        a = result.get(numerator, x)
        b = result.get(denominator, x)
        if a is None or b is None or b.mean == 0:
            continue
        ratios.append(a.mean / b.mean)
    return sum(ratios) / len(ratios) if ratios else float("nan")
