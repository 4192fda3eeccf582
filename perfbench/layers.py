"""Per-layer numbers of a traced run: cProfile self-time rolled up by
package, and isolated drives of each layer's public functions.

Layers are the packages under ``src/repro/``. Everything here is taken
from outside the program: nothing in ``src/`` knows it is measured.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import statistics
import time
from collections import defaultdict
from typing import Any

from repro.errors import ReproError
from repro.hbase import Get, HBaseClient, HBaseCluster, Put, Scan
from repro.sim import DeterministicScheduler, Simulation, derive_rng
from repro.sql import analyze_select, parse_statement
from repro.sql.ast import Select
from repro.tpcw import TpcwDataGenerator, ZipfianPopulation, tpcw_schema

from perfbench.harness import Recorder, Workload
from perfbench.tpcw_common import conn_of

PACKAGES = (
    "sql", "phoenix", "hbase", "relational", "synergy", "mvcc", "voltdb",
    "sim", "tpcw", "systems", "federation",
)
#: ``<package>.<file>`` sub-totals worth their own metric.
FILES = (
    "phoenix.planner", "phoenix.plans", "phoenix.operators", "phoenix.catalog",
    "hbase.store", "hbase.cell", "hbase.client", "hbase.regionserver",
    "sim.scheduler",
)
MAX_CALLER_HOPS = 8


def _owner(func: tuple[str, int, str]) -> tuple[str, str] | None:
    """(package, file) of a profiled function under ``repro/``; None
    for builtins, the standard library and the benchmark itself."""
    parts = func[0].replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    tail = parts[len(parts) - parts[::-1].index("repro"):]
    if len(tail) < 2 or tail[0] not in PACKAGES:
        return None
    return tail[0], tail[-1].removesuffix(".py")


def self_shares(profile: cProfile.Profile) -> dict[str, float]:
    """cProfile ``tottime`` rolled up by package. The time of a builtin
    or library function (``list.sort``, ``heapq``, ``bisect`` ...) is
    handed to its callers in proportion to the time it spent under
    each, hop by hop, until it lands in a ``repro`` file; what never
    does — the benchmark's own loops, the interpreter — is ``other``.
    The package shares plus ``other`` sum to 1."""
    stats = pstats.Stats(profile).stats  # {func: (cc, nc, tt, ct, callers)}
    own: dict[str, float] = defaultdict(float)
    pending: dict[tuple, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        owner = _owner(func)
        if owner is None:
            pending[func] = tottime
        else:
            own[owner[0]] += tottime
            own[f"{owner[0]}.{owner[1]}"] += tottime
    for _hop in range(MAX_CALLER_HOPS):
        moved: dict[tuple, float] = defaultdict(float)
        for func, amount in pending.items():
            callers = stats[func][4] if func in stats else {}
            under = sum(c[2] for c in callers.values())
            if under <= 0 or "perfbench" in func[0]:
                own["other"] += amount
                continue
            for caller, c in callers.items():
                share = amount * c[2] / under
                owner = _owner(caller)
                if owner is None:
                    moved[caller] += share
                else:
                    own[owner[0]] += share
                    own[f"{owner[0]}.{owner[1]}"] += share
        pending = moved
    own["other"] += sum(pending.values())
    total = sum(own[p] for p in PACKAGES) + own["other"]
    names = (*PACKAGES, *FILES, "other")
    return {f"{name}.self_share": own[name] / total for name in names}


# ------------------------------------------------------------------ drives
def _per_call_us(calls: int, seconds: float) -> float:
    return seconds / calls * 1e6 if calls else 0.0


def sql_drives(rec: Recorder, workload: Workload) -> dict[str, float]:
    """Parse, analyze and cold-plan every distinct statement text the
    workload issued (view-rewritten ones included)."""
    texts = sorted(rec.statements)
    schema = tpcw_schema()
    started = time.perf_counter()
    parsed = [parse_statement(text) for text in texts]
    parse_s = time.perf_counter() - started
    selects = [stmt for stmt in parsed if isinstance(stmt, Select)]
    started = time.perf_counter()
    for stmt in selects:
        analyze_select(stmt, schema)
    analyze_s = time.perf_counter() - started

    # cold plans: an AST argument bypasses the connection's plan cache
    plans = 0
    plan_s = 0.0
    for system in getattr(workload, "systems", {}).values():
        conn = conn_of(system)
        if conn is None:
            continue
        for stmt in selects:
            started = time.perf_counter()
            try:
                conn.plan(stmt)
            except ReproError:
                continue  # another system's rewrite: tables this catalog lacks
            plan_s += time.perf_counter() - started
            plans += 1
    return {
        "sql.parse_us_per_stmt": _per_call_us(len(texts), parse_s),
        "sql.analyze_us_per_stmt": _per_call_us(len(selects), analyze_s),
        "phoenix.plan_us_per_stmt": _per_call_us(plans, plan_s),
        "phoenix.cold_exec_us_per_stmt": (
            sum(rec.cold_us) / len(rec.cold_us) if rec.cold_us else 0.0
        ),
    }


def hbase_drives(rows: int) -> dict[str, float]:
    """PR 1's storage battery: shuffled keys into one region, crossing
    one memstore flush so reads merge a flushed file with a live
    memstore; then point gets and one full scan."""
    sim = Simulation()
    table = HBaseClient(HBaseCluster(sim)).create_table("perf")
    keys = [b"%010d" % i for i in range(rows)]
    random.Random(20170904).shuffle(keys)
    puts = []
    for key in keys:
        put = Put(key)
        put.add(b"cf", b"v", b"x" * 16)
        puts.append(put)
    started = time.perf_counter()
    table.put_batch(puts)
    put_s = time.perf_counter() - started
    probes = keys[: rows // 5]
    started = time.perf_counter()
    for key in probes:
        table.get(Get(key))
    get_s = time.perf_counter() - started
    started = time.perf_counter()
    scanned = sum(1 for _ in table.scan(Scan()))
    scan_s = time.perf_counter() - started
    if scanned != rows:
        raise AssertionError(f"storage battery scanned {scanned} of {rows} rows")
    return {
        "hbase.put_us_per_row": _per_call_us(rows, put_s),
        "hbase.get_us_per_op": _per_call_us(len(probes), get_s),
        "hbase.scan_us_per_row": _per_call_us(rows, scan_s),
    }


def scheduler_ops_per_s(clients: int, steps_per_client: int) -> float:
    """The scheduler alone: clients that only advance their clocks."""
    scheduler = DeterministicScheduler(Simulation())

    def program(vc: Any) -> Any:
        for _ in range(steps_per_client):
            yield "op"
            vc.clock.advance(1.0)

    for i in range(clients):
        scheduler.add_client(f"c{i}", program)
    started = time.perf_counter()
    scheduler.run()
    return clients * steps_per_client / (time.perf_counter() - started)


def median_scheduler_rate(clients: int, steps_per_client: int) -> float:
    # three short runs: one collection of 10k fresh generators skews a single one
    return statistics.median(
        scheduler_ops_per_s(clients, steps_per_client) for _ in range(3)
    )


def generator_drives(customers: int, draws: int) -> dict[str, float]:
    started = time.perf_counter()
    rows = sum(1 for _ in TpcwDataGenerator(customers, seed=1).all_rows())
    gen_s = time.perf_counter() - started
    population = ZipfianPopulation(1_000_000, 1.1)
    rng = derive_rng(1, "perfbench/zipf")
    started = time.perf_counter()
    population.sample(rng, draws)
    zipf_s = time.perf_counter() - started
    return {
        "tpcw.gen_rows_per_s": rows / gen_s,
        "tpcw.zipf_draws_per_s": draws / zipf_s,
    }


#: Sizes of the workload-independent drives.
DRIVE_SIZES = {
    "full": {"hbase_rows": 55_000, "sched_steps": 50_000, "customers": 60, "draws": 200_000},
    "toy": {"hbase_rows": 2_000, "sched_steps": 10_000, "customers": 10, "draws": 2_000},
}


def independent_drives(size: str) -> dict[str, float]:
    z = DRIVE_SIZES[size]
    return {
        **hbase_drives(z["hbase_rows"]),
        "sim.sched_ops_per_s_1k": median_scheduler_rate(1_000, z["sched_steps"] // 1_000),
        "sim.sched_ops_per_s_10k": median_scheduler_rate(10_000, z["sched_steps"] // 10_000),
        **generator_drives(z["customers"], z["draws"]),
    }
