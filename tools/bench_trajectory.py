"""Print one ``BENCH_TRAJECTORY.jsonl`` row for a perfbench record.

Usage::

    python tools/bench_trajectory.py RECORD.json COMMIT [TRACED.json ...] \\
        >> BENCH_TRAJECTORY.jsonl

``RECORD.json`` is what ``python -m perfbench run --out`` writes (and
what ``perfbench compare`` reads): ``{"workloads": {name: {"runs":
[...]}}}``. The row keeps, per workload and end-to-end metric, the
median of the runs and their interquartile range (the range below four
runs), so the history of every metric can be read from one small file
without the full records.

A traced run adds the layer split. Each ``TRACED.json`` is either a
record of ``python -m perfbench run --trace`` (workload entries with a
``traced`` run) or one ``perfbench/run.py --trace 1 --out`` result; a
``traced`` run inside ``RECORD.json`` counts too. The row then carries
``layers``: per traced workload, each package's self share of the
profiled time, rounded, and ``other`` (they sum to 1).
"""

import json
import statistics
import sys

SELF_SHARE = ".self_share"


def summary(values: list[float]) -> list[float]:
    """``[median, iqr]`` of one metric over the runs."""
    if len(values) < 4:
        iqr = max(values) - min(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return [round(statistics.median(values), 4), round(iqr, 4)]


def traced_runs(record: dict) -> dict[str, dict]:
    """The traced run of each workload ``record`` holds, by name."""
    if record.get("trace"):
        return {record["workload"]: record}
    return {
        name: entry["traced"]
        for name, entry in record.get("workloads", {}).items()
        if "traced" in entry
    }


def layers(traced: dict) -> dict[str, float]:
    """Package -> rounded self share (with ``other``) of one traced run;
    ``<package>.<file>`` sub-totals are left out, so the shares sum to 1."""
    out = {}
    for metric, entry in traced["metrics"].items():
        name = metric.removesuffix(SELF_SHARE)
        if metric.endswith(SELF_SHARE) and "." not in name:
            out[name] = round(entry["value"], 4)
    return out


def row(record: dict, commit: str, traced: tuple[dict, ...] = ()) -> dict:
    workloads = {}
    seeds = set()
    for name, entry in record["workloads"].items():
        runs = entry["runs"]
        seeds.update(run["seed"] for run in runs)
        workloads[name] = {
            metric: summary([run["metrics"][metric]["value"] for run in runs])
            for metric in runs[0]["metrics"]
        }
    out = {
        "commit": commit,
        "seeds": sorted(seeds),
        "runs": max(len(e["runs"]) for e in record["workloads"].values()),
        "workloads": workloads,
    }
    split = {}
    for source in (record, *traced):
        for name, run in traced_runs(source).items():
            split[name] = layers(run)
    if split:
        out["layers"] = split
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in (argv[0], *argv[2:]):
        with open(path) as f:
            records.append(json.load(f))
    trajectory_row = row(records[0], argv[1], tuple(records[1:]))
    print(json.dumps(trajectory_row, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
