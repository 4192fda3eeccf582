"""Print one ``BENCH_TRAJECTORY.jsonl`` row for a perfbench record.

Usage::

    python tools/bench_trajectory.py RECORD.json COMMIT >> BENCH_TRAJECTORY.jsonl

``RECORD.json`` is what ``python -m perfbench run --out`` writes (and
what ``perfbench compare`` reads): ``{"workloads": {name: {"runs":
[...]}}}``. The row keeps, per workload and end-to-end metric, the
median of the runs and their interquartile range (the range below four
runs), so the history of every metric can be read from one small file
without the full records.
"""

import json
import statistics
import sys


def summary(values: list[float]) -> list[float]:
    """``[median, iqr]`` of one metric over the runs."""
    if len(values) < 4:
        iqr = max(values) - min(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return [round(statistics.median(values), 4), round(iqr, 4)]


def row(record: dict, commit: str) -> dict:
    workloads = {}
    seeds = set()
    for name, entry in record["workloads"].items():
        runs = entry["runs"]
        seeds.update(run["seed"] for run in runs)
        workloads[name] = {
            metric: summary([run["metrics"][metric]["value"] for run in runs])
            for metric in runs[0]["metrics"]
        }
    return {
        "commit": commit,
        "seeds": sorted(seeds),
        "runs": max(len(e["runs"]) for e in record["workloads"].values()),
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        record = json.load(f)
    print(json.dumps(row(record, argv[1]), separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
