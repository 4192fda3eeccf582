"""TPC-W five-system shoot-out — a small-scale rerun of the paper's
evaluation (Figs. 12/14, Tables II/III).

    python examples/tpcw_evaluation.py [--scale 100] [--reps 3]

For the full experiment suite (every table and figure) use
``python -m repro.bench``.
"""

import argparse
import sys

from repro.bench.suites.paper import run_fig12, run_fig14, run_table2, run_table3
from repro.bench.tpcw_lab import TpcwLab


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=int, default=100,
                        help="number of TPC-W customers (paper: 1,000,000)")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()

    lab = TpcwLab(num_customers=args.scale, repetitions=args.reps)
    progress = lambda m: print(f"  .. {m}", file=sys.stderr)

    for runner in (run_fig12, run_fig14, run_table2, run_table3):
        print(runner(lab, progress=progress).to_text())
        print()


if __name__ == "__main__":
    main()
