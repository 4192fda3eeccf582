"""``python -m perfbench run|compare`` — the battery and the A/B tool.

``run`` starts every workload in a fresh interpreter (so ``peak_rss_mb``
is per workload) through ``perfbench/run.py``, the command that
``BENCHMARK.json`` names, and prints the median of the runs per metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from perfbench.compare import compare, spread
from perfbench.manifest import DEFAULT_SEED, ROOT, manifest

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    out = HERE / "out" / f"result-{workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(out),
        ],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900,
    )
    if not out.exists():
        raise SystemExit(f"{workload}: run.py exited {done.returncode} with no result")
    return json.loads(out.read_text())


def run_battery(args: argparse.Namespace) -> int:
    declared = manifest()
    names = [w["name"] for w in declared["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    record: dict[str, Any] = {"seconds": args.seconds, "workloads": {}}
    incorrect = 0
    for name in names:
        runs = [
            run_once(
                name, args.seed + (i if args.vary_seed else 0), args.seconds, False
            )
            for i in range(args.runs)
        ]
        entry: dict[str, Any] = {"runs": runs}
        if args.trace:
            entry["traced"] = run_once(name, args.seed, args.seconds, True)
        record["workloads"][name] = entry
        incorrect += sum(not r["correct"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(
            f"== {name}: {len(runs)} run(s), {attempted} ops attempted, "
            f"{failed} failed, calib_spin_ms "
            f"{statistics.median(r['env']['calib_spin_ms'] for r in runs):.1f}"
        )
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            print(
                f"{metric['name']:28s} {statistics.median(values):16.4f} "
                f"{metric['unit']:7s} spread {spread(values):6.2%}"
            )
        if args.trace:
            for metric_name, metric in entry["traced"]["metrics"].items():
                print(f"{metric_name:42s} {metric['value']:16.4f} {metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if incorrect else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the battery, print every metric")
    run.add_argument("--workload", default="all")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=10.0)
    run.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    run.add_argument(
        "--vary-seed", action="store_true", help="run i uses seed + i"
    )
    run.add_argument("--trace", action="store_true", help="add one traced run")
    run.add_argument("--out", help="write every run's record to this JSON file")
    cmp_ = commands.add_parser("compare", help="is B no worse than A?")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    return run_battery(args)


if __name__ == "__main__":
    sys.exit(main())
