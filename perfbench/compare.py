"""``python -m perfbench compare A.json B.json``: is B no worse than A?

One row per workload x end-to-end metric with both medians, the bound
from ``BENCHMARK.json`` and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``worse`` — it is, and the runs resolve the difference;
* ``unresolved`` — the runs' own spread exceeds the bound, and not
  every run of B reads better than every run of A;
* ``differs`` — a virtual-clock or size metric changed although both
  files ran the same seeds: those repeat to the last digit, so any
  change is a change of the model, not noise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from perfbench.manifest import manifest


def is_exact(metric: str) -> bool:
    """Metrics on the virtual clock (and the store's size) are a pure
    function of seed and code."""
    return metric.startswith(("virtual_", "db_"))


def spread(values: list[float]) -> float:
    """Interquartile range over the median (range over median below
    four runs, where quartiles mean little)."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def values_of(record: dict[str, Any], workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in record["workloads"][workload]["runs"]
    ]


def seeds_of(record: dict[str, Any], workload: str) -> list[int]:
    return [run["seed"] for run in record["workloads"][workload]["runs"]]


def verdict(
    a: list[float], b: list[float], better: str, bound: float, exact: bool,
    same_seeds: bool,
) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    if exact and same_seeds:
        return "ok" if sorted(a) == sorted(b) else "differs"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if worse_by <= bound:
        return "ok"
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if all_better else "unresolved"
    return "worse"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    declared = manifest()["end_to_end"]
    print(
        f"{'workload':14s} {'metric':26s} {'A median':>14s} {'B median':>14s} "
        f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    bad = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        same_seeds = seeds_of(a, workload) == seeds_of(b, workload)
        for metric in declared:
            name = metric["name"]
            va, vb = values_of(a, workload, name), values_of(b, workload, name)
            med_a, med_b = statistics.median(va), statistics.median(vb)
            result = verdict(
                va, vb, metric["better"], metric["bound"], is_exact(name),
                same_seeds,
            )
            bad += result in ("worse", "differs")
            print(
                f"{workload:14s} {name:26s} {med_a:14.4f} {med_b:14.4f} "
                f"{(med_b - med_a) / abs(med_a):+8.2%} {metric['bound']:6.2f} "
                f"{max(spread(va), spread(vb)):7.2%}  {result}"
            )
    return 1 if bad else 0
