"""Serving sweep: Zipfian offered load x serving mode (cache, admission)."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    SEED,
    ExperimentResult,
    Grid,
    per_second,
    percentile_or_zero,
)
from repro.bench.suite import Flag, IntList, Smoke, Suite, mean
from repro.config import ClusterConfig, ServingConfig
from repro.hbase.chaos import Layout, run_cell
from repro.tpcw import ServingWorkload, ZipfianPopulation

SERVING_MODES = ("baseline", "cache", "cache+shed")

NUM_SERVERS = 4
KEY_SPACE = 2048
"""Profile rows the Zipfian population folds onto."""
READ_FRACTION = 0.9
VALUE_BYTES = 96
CACHE_BYTES = 64 * 1024
"""Per-server row cache budget in the ``cache`` modes."""
QUEUE_MS = 8.0
"""Admission queue bound in ``cache+shed``."""
P99_BUDGET_MS = 6.0
"""Adaptive-shedding p99 budget in ``cache+shed``."""


def _serving_config(mode: str) -> ServingConfig:
    """Map a bench mode name onto a :class:`ServingConfig`."""
    if mode == "baseline":
        return ServingConfig()
    if mode == "cache":
        return ServingConfig(row_cache_bytes=CACHE_BYTES)
    if mode == "cache+shed":
        return ServingConfig(
            row_cache_bytes=CACHE_BYTES,
            admission_queue_ms=QUEUE_MS,
            p99_budget_ms=P99_BUDGET_MS,
        )
    raise ValueError(f"unknown serving mode {mode!r}")


def _serving_cell(
    clients: int,
    ops_per_client: int,
    mode: str,
    *,
    population: int = 1_000_000,
    zipf_s: float = 1.1,
    zipf: ZipfianPopulation | None = None,
) -> dict[str, float | int]:
    """One serving-grid cell: ``clients`` closed-loop virtual clients
    replaying their personal Zipfian streams against a table pre-split
    two regions per server, under one serving ``mode`` and the
    ``serving`` client protocol (a shed op backs off ``retry_after_ms
    * attempt`` and is dropped after its last retry), on the one
    :func:`~repro.hbase.chaos.run_cell` — so the cache and admission
    layers are correctness-gated, not just timed. Reruns are
    byte-identical.
    """
    regions = NUM_SERVERS * 2
    layout = Layout(
        ClusterConfig(
            num_region_servers=NUM_SERVERS,
            seed=SEED,
            serving=_serving_config(mode),
        ),
        "serve",
        [b"%08d" % (i * KEY_SPACE // regions) for i in range(1, regions)],
    )
    preload = [
        (b"%08d" % i, (b"seed-%08d" % i).ljust(VALUE_BYTES, b"."))
        for i in range(KEY_SPACE)
    ]
    if zipf is None:
        zipf = ZipfianPopulation(population, zipf_s)
    workload = ServingWorkload(zipf, KEY_SPACE, SEED, READ_FRACTION)
    # stream label excludes clients/mode: client i replays the same mix
    # in every cell, so modes differ only in serving machinery
    ops = [
        [
            ("get", row) if kind == "get" else (
                "put", row,
                (b"c%06d-%04d" % (i, n)).ljust(VALUE_BYTES, b"."),
            )
            for n, (kind, row) in enumerate(
                workload.ops_for_client(i, ops_per_client)
            )
        ]
        for i in range(clients)
    ]
    run = run_cell(layout, preload, ops, "serving")
    totals = run.cluster.serving_stats()["totals"]
    report = run.report
    rts = report.response_times
    return {
        "mode": mode,
        "clients": clients,
        "committed": report.committed,
        "goodput": per_second(report.committed, report.makespan_ms),
        "p50": percentile_or_zero(rts, 0.50),
        "p99": percentile_or_zero(rts, 0.99),
        "hit_ratio": totals["cache_hit_ratio"],
        "cache_hits": totals["cache_hits"],
        "cache_evictions": totals["cache_evictions"],
        "shed": totals["shed"],
        "shed_rate": totals["shed_rate"],
        "dropped": sum(c["failed"] for c in report.clients.values()),
        "queue_waits": report.serial_wait_count,
        "violations": len(run.violations),
        "violation_detail": list(run.violations),
    }


def run_serving(
    client_counts: tuple[int, ...] = (64, 256, 1024),
    ops_per_client: int = 6,
    population: int = 1_000_000,
    zipf_s: float = 1.1,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Serving sweep: offered load (virtual clients) x serving mode.

    The workload is the million-user Zipfian population folded onto the
    profile key space — the hot head lands on a handful of rows, so one
    region server saturates long before the cluster does. The sweep
    reports, per mode: goodput (committed ops/s, drops excluded), p50
    and p99 response time (shed-retry backoff included), cache hit
    ratio and shed rate. A cell with any durability or read-oracle
    violation aborts the experiment. Reruns are byte-identical.
    """
    say = progress or (lambda _m: None)
    grid = Grid(
        "virtual clients", client_counts,
        goodput=(
            "ServingGoodput",
            "Committed ops per second vs offered load (Zipfian users)",
            "ops/s (virtual)",
        ),
        p50=(
            "ServingP50",
            "Median op response time vs offered load (Zipfian users)",
            "ms",
        ),
        p99=(
            "ServingP99",
            "99th percentile op response time vs offered load",
            "ms",
        ),
        hit_ratio=(
            "ServingHitRatio",
            "Row-cache hit ratio vs offered load",
            "fraction",
        ),
        shed_rate=(
            "ServingShedRate",
            "Admission-control shed rate vs offered load",
            "fraction",
        ),
    )
    zipf = ZipfianPopulation(population, zipf_s)
    mode_notes: list[str] = []
    for mode in SERVING_MODES:
        for clients in client_counts:
            say(f"[serving] {clients} clients, mode={mode}")
            cell = _serving_cell(
                clients, ops_per_client, mode,
                population=population, zipf_s=zipf_s, zipf=zipf,
            )
            if cell["violations"]:
                raise RuntimeError(
                    f"serving cell ({clients} clients, {mode}) violated "
                    f"invariants: {cell['violation_detail']}"
                )
            grid.set("goodput", mode, clients, cell["goodput"])
            grid.set("p50", mode, clients, cell["p50"], cell["committed"])
            grid.set("p99", mode, clients, cell["p99"], cell["committed"])
            grid.set("hit_ratio", mode, clients, cell["hit_ratio"])
            grid.set("shed_rate", mode, clients, cell["shed_rate"])
            if clients == client_counts[-1]:
                mode_notes.append(
                    f"{mode} @ {clients} clients: {cell['shed']} ops shed, "
                    f"{cell['dropped']} dropped"
                )
    return grid.finish(
        f"Zipf(s={zipf_s}) over {population} users folded onto "
        f"{KEY_SPACE} profile rows, {NUM_SERVERS} servers, "
        f"{ops_per_client} ops/client (90/10 get/put), cache "
        f"{CACHE_BYTES}B, queue bound {QUEUE_MS} ms, p99 budget "
        f"{P99_BUDGET_MS} ms, seed {SEED}; closed loop, bounded "
        "shed-retry backoff",
        *mode_notes,
    )


def _top(e, metric: str, mode: str) -> float:
    """``mode``'s ``Serving<metric>`` at the sweep's highest load."""
    return mean(e, f"Serving{metric}", mode)


SERVING = Suite(
    "serving",
    lambda opts, say: list(run_serving(
        opts.serving_clients,
        ops_per_client=opts.serving_ops,
        population=opts.serving_population,
        zipf_s=opts.serving_zipf_s,
        progress=say,
    ).values()),
    flags=(
        Flag("serving_clients", IntList(1), (64, 256, 1024),
             "comma-separated virtual-client counts (offered load)"),
        Flag("serving_ops", int, 6, "operations per virtual client"),
        Flag("serving_population", int, 1_000_000,
             "Zipfian user population (paper: millions of users)"),
        Flag("serving_zipf_s", float, 1.1, "Zipf skew parameter s"),
    ),
    smoke=Smoke(
        # at overload (the sweep's highest load) the admission controller
        # must shed, the row cache must hit, shedding must hold the p99
        # at or below both no-shedding modes while keeping goodput within
        # 10% of cache-only; an oracle violation aborts the sweep itself
        flags="--serving-clients 64,256,1024 --serving-ops 4",
        checks=(
            ("admission control never shed at overload",
             lambda e: _top(e, "ShedRate", "cache+shed") > 0),
            ("row cache never hit",
             lambda e: _top(e, "HitRatio", "cache+shed") > 0.0),
            ("the row cache worsened the p99 vs the baseline",
             lambda e: _top(e, "P99", "cache") <= _top(e, "P99", "baseline")),
            ("shedding worsened the p99 vs cache-only",
             lambda e: _top(e, "P99", "cache+shed") <= _top(e, "P99", "cache")),
            ("shedding worsened the p99 vs the baseline",
             lambda e: _top(e, "P99", "cache+shed")
             <= _top(e, "P99", "baseline")),
            ("shedding cost more than 10% goodput",
             lambda e: _top(e, "Goodput", "cache+shed")
             >= 0.9 * _top(e, "Goodput", "cache")),
        ),
    ),
)
