"""Fail when simulated-latency anchors drift from a committed baseline.

Usage::

    python tools/check_anchors.py CURRENT.json BASELINE.json [--json PATH]

Compares the Fig. 10-14 and Table II simulated-latency statistics of a
freshly emitted ``repro.bench`` trajectory against the committed
baseline (``BENCH_PR1.json``). Every (experiment, series, x) point
present in *both* files must match bit-for-bit: these numbers are pure
virtual time derived from seeded draws, so any difference means an
engine change altered the simulated cost model, not noise. Points only
one side measured (e.g. a reduced ``--micro-scales`` sweep) are skipped
but counted, so the job log shows the coverage; a whole *series* the
baseline has and a compared experiment lacks (a renamed or dropped
system) is a failure, not a skip.

Every drifted anchor is reported (one ``DRIFT:`` line each, with the
exact fields that moved) before the nonzero exit, so a single CI run
shows the full blast radius of a cost-model change instead of only its
first casualty.

``--json PATH`` additionally writes a machine-readable drift report —
``{"checked", "skipped", "drifted", "failures": [{"experiment",
"series", "x", "detail"}, ...], "ok"}`` — which CI uploads as an
artifact so downstream tooling can consume the verdict without
scraping the log.
"""

import json
import sys

ANCHOR_EXPERIMENTS = ("Fig10a", "Fig10b", "Fig11", "Fig12", "Fig14", "TableII")


def _describe_drift(stat, base_stat) -> str:
    """Name exactly which statistic fields moved, field by field; falls
    back to the raw repr for non-dict (malformed) entries."""
    if not isinstance(stat, dict) or not isinstance(base_stat, dict):
        return f"{stat!r} != {base_stat!r}"
    parts = []
    for key in sorted(set(stat) | set(base_stat)):
        ours, theirs = stat.get(key), base_stat.get(key)
        if ours != theirs:
            parts.append(f"{key}: {ours!r} != baseline {theirs!r}")
    return "; ".join(parts) if parts else f"{stat!r} != {base_stat!r}"


def compare(current: dict, baseline: dict) -> tuple[int, dict]:
    """Returns ``(exit_code, report)`` where ``report`` is the
    machine-readable drift summary ``--json`` emits."""
    checked = skipped = 0
    failures = []
    for experiment in ANCHOR_EXPERIMENTS:
        cur = current.get("experiments", {}).get(experiment)
        base = baseline.get("experiments", {}).get(experiment)
        if cur is None or base is None:
            skipped += 1
            continue
        for label, base_points in base["series"].items():
            points = cur["series"].get(label)
            if points is None:
                # a renamed or dropped system must not shrink the total
                failures.append(
                    {
                        "experiment": experiment,
                        "series": label,
                        "x": "*",
                        "detail": "series is in the baseline but not in this run",
                    }
                )
                continue
            for x in sorted(set(points) | set(base_points)):
                stat, base_stat = points.get(x), base_points.get(x)
                if stat is None or base_stat is None:
                    skipped += 1
                    continue
                checked += 1
                if stat != base_stat:
                    failures.append(
                        {
                            "experiment": experiment,
                            "series": label,
                            "x": x,
                            "detail": _describe_drift(stat, base_stat),
                        }
                    )
        for label in cur["series"].keys() - base["series"].keys():
            skipped += len(cur["series"][label])
    print(f"anchors checked: {checked}, skipped (not in both runs): {skipped}")
    report = {
        "checked": checked,
        "skipped": skipped,
        "drifted": len(failures),
        "failures": failures,
        "ok": bool(checked) and not failures,
    }
    if not checked and not failures:
        print("error: no overlapping anchor points found", file=sys.stderr)
        return 2, report
    for failure in failures:
        print(
            f"DRIFT: {failure['experiment']}/{failure['series']}/"
            f"{failure['x']}: {failure['detail']}",
            file=sys.stderr,
        )
    if failures:
        print(f"error: {len(failures)} anchor value(s) drifted", file=sys.stderr)
        return 1, report
    print("all overlapping anchor values are bit-identical")
    return 0, report


def main(argv: list[str]) -> int:
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        if i + 1 >= len(argv):
            print(__doc__, file=sys.stderr)
            return 2
        json_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        current = json.load(f)
    with open(argv[1]) as f:
        baseline = json.load(f)
    code, report = compare(current, baseline)
    if json_out is not None:
        with open(json_out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
