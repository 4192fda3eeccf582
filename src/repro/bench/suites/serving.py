"""Serving sweep: Zipfian offered load x serving mode (cache, admission)."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    ExperimentResult,
    Grid,
    per_second,
    percentile_or_zero,
)
from repro.bench.suite import Flag, IntList, Smoke, Suite
from repro.config import ClusterConfig, ServingConfig
from repro.hbase.chaos import Layout, run_cell
from repro.tpcw import ServingWorkload, ZipfianPopulation

SERVING_MODES = ("baseline", "cache", "cache+shed")


def _serving_config(
    mode: str,
    cache_bytes: int,
    queue_ms: float,
    p99_budget_ms: float,
    qos_weights: tuple[tuple[str, float], ...] = (),
) -> ServingConfig:
    """Map a bench mode name onto a :class:`ServingConfig`."""
    if mode == "baseline":
        return ServingConfig()
    if mode == "cache":
        return ServingConfig(row_cache_bytes=cache_bytes)
    if mode == "cache+shed":
        return ServingConfig(
            row_cache_bytes=cache_bytes,
            admission_queue_ms=queue_ms,
            p99_budget_ms=p99_budget_ms,
            qos_weights=qos_weights,
        )
    raise ValueError(f"unknown serving mode {mode!r}")


def _serving_cell(
    clients: int,
    ops_per_client: int,
    mode: str,
    *,
    num_servers: int = 4,
    key_space: int = 2048,
    population: int = 1_000_000,
    zipf_s: float = 1.1,
    read_fraction: float = 0.9,
    value_bytes: int = 96,
    cache_bytes: int = 64 * 1024,
    queue_ms: float = 8.0,
    p99_budget_ms: float = 6.0,
    seed: int = 20170904,
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
    regions = num_servers * 2
    layout = Layout(
        ClusterConfig(
            num_region_servers=num_servers,
            seed=seed,
            serving=_serving_config(mode, cache_bytes, queue_ms, p99_budget_ms),
        ),
        "serve",
        [b"%08d" % (i * key_space // regions) for i in range(1, regions)],
    )
    preload = [
        (b"%08d" % i, (b"seed-%08d" % i).ljust(value_bytes, b"."))
        for i in range(key_space)
    ]
    if zipf is None:
        zipf = ZipfianPopulation(population, zipf_s)
    workload = ServingWorkload(zipf, key_space, seed, read_fraction)
    # stream label excludes clients/mode: client i replays the same mix
    # in every cell, so modes differ only in serving machinery
    ops = [
        [
            ("get", row) if kind == "get" else (
                "put", row,
                (b"c%06d-%04d" % (i, n)).ljust(value_bytes, b"."),
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
    modes: tuple[str, ...] = SERVING_MODES,
    num_servers: int = 4,
    key_space: int = 2048,
    population: int = 1_000_000,
    zipf_s: float = 1.1,
    cache_bytes: int = 64 * 1024,
    queue_ms: float = 8.0,
    p99_budget_ms: float = 6.0,
    seed: int = 20170904,
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
    for mode in modes:
        for clients in client_counts:
            say(f"[serving] {clients} clients, mode={mode}")
            cell = _serving_cell(
                clients, ops_per_client, mode,
                num_servers=num_servers, key_space=key_space,
                population=population, zipf_s=zipf_s,
                cache_bytes=cache_bytes, queue_ms=queue_ms,
                p99_budget_ms=p99_budget_ms, seed=seed, zipf=zipf,
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
                    f"{mode} @ {clients} clients: p99 {cell['p99']:.2f} ms, "
                    f"goodput {cell['goodput']:.0f} ops/s, hit ratio "
                    f"{cell['hit_ratio']:.3f}, shed {cell['shed']} "
                    f"({cell['shed_rate']:.3f}), dropped {cell['dropped']}, "
                    "0 invariant violations"
                )
    return grid.finish(
        f"Zipf(s={zipf_s}) over {population} users folded onto "
        f"{key_space} profile rows, {num_servers} servers, "
        f"{ops_per_client} ops/client (90/10 get/put), cache "
        f"{cache_bytes}B, queue bound {queue_ms} ms, p99 budget "
        f"{p99_budget_ms} ms, seed {seed}; closed loop, bounded "
        "shed-retry backoff",
        *mode_notes,
    )


def serving_smoke(
    clients: int = 1024,
    ops_per_client: int = 4,
    seed: int = 20170904,
) -> dict[str, float | int]:
    """CI smoke: one overloaded serving cell per mode; returns the
    counters the gate asserts on (shedding engaged, cache hit ratio
    positive, shed p99 no worse than unshed p99, goodput within 10%,
    zero invariant violations)."""
    zipf = ZipfianPopulation()
    cells = {
        mode: _serving_cell(
            clients, ops_per_client, mode, seed=seed, zipf=zipf
        )
        for mode in SERVING_MODES
    }
    return {
        "clients": clients,
        "committed_baseline": cells["baseline"]["committed"],
        "committed_shed": cells["cache+shed"]["committed"],
        "goodput_baseline": cells["baseline"]["goodput"],
        "goodput_cache": cells["cache"]["goodput"],
        "goodput_shed": cells["cache+shed"]["goodput"],
        "p99_baseline": cells["baseline"]["p99"],
        "p99_cache": cells["cache"]["p99"],
        "p99_shed": cells["cache+shed"]["p99"],
        "hit_ratio": cells["cache+shed"]["hit_ratio"],
        "shed": cells["cache+shed"]["shed"],
        "shed_rate": cells["cache+shed"]["shed_rate"],
        "dropped": cells["cache+shed"]["dropped"],
        "violations": sum(c["violations"] for c in cells.values()),
    }


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
        # the serving gate: at overload the admission controller must
        # actually shed, the row cache must actually hit, shedding must
        # hold the p99 at or below both no-shedding modes while keeping
        # goodput within 10% of cache-only, and every committed op must
        # still satisfy the durability/read oracles
        fn=serving_smoke,
        checks=(
            ("admission control never shed at overload",
             lambda o: o["shed"] > 0),
            ("row cache never hit", lambda o: o["hit_ratio"] > 0.0),
            ("the row cache worsened the p99 vs the baseline",
             lambda o: o["p99_cache"] <= o["p99_baseline"]),
            ("shedding worsened the p99 vs cache-only",
             lambda o: o["p99_shed"] <= o["p99_cache"]),
            ("shedding worsened the p99 vs the baseline",
             lambda o: o["p99_shed"] <= o["p99_baseline"]),
            ("shedding cost more than 10% goodput",
             lambda o: o["goodput_shed"] >= 0.9 * o["goodput_cache"]),
            ("serving invariants violated", lambda o: o["violations"] == 0),
        ),
        flags="--serving-clients 64,256,1024 --serving-ops 6",
    ),
)
