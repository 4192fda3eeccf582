"""Fig. 10 micro-benchmark at your own scale: view scan vs join.

    python examples/microbenchmark.py [--scales 50,500,5000] [--reps 5]

The paper runs 500/5,000/50,000 customers and reports the view scan 6x
(Q1) and 11.7x (Q2) faster than the join algorithm at the top scale.
"""

import argparse

from repro.bench.suites.paper import run_fig10


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scales", type=str, default="20,100,500")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    scales = tuple(int(s) for s in args.scales.split(","))
    for result in run_fig10(scales=scales, repetitions=args.reps).values():
        print(result.to_text())
        print()


if __name__ == "__main__":
    main()
