"""perfbench: the repo's two-clock benchmark.

Five closed-loop workloads measured from outside ``src/`` on both
clocks — *virtual ms* (the model's answer) and *host wall-clock* (how
fast python produces it) — with end-to-end metrics from an untraced run
and per-layer metrics from a traced one. ``BENCHMARK.json`` at the repo
root declares every metric; ``perfbench/README.md`` explains them.
"""
