"""Run one workload once: the command ``BENCHMARK.json`` names.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
prints every metric by name with its unit and, as the last line of
standard output, the one-line JSON result. Exit code 1 when an oracle
rejected a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str] | None = None) -> int:
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record here")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="store this run's per-round digests under perfbench/expected/",
    )
    args = parser.parse_args(argv)
    env = harness.environment()
    print(
        f"# python {env['python']} nproc={env['nproc']} "
        f"loadavg_1m={env['loadavg_1m']:.2f} calib_spin_ms={env['calib_spin_ms']:.1f}"
    )
    result = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        write_expected=args.write_expected,
    )
    result["env"] = env
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    harness.print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
