"""Wall-clock cost of the simulated HBase layer itself (PR 1's battery)."""

from __future__ import annotations

import random
import time

from repro.bench.harness import ExperimentResult, Stat, summarize
from repro.bench.suite import Flag, Smoke, Suite
from repro.hbase import HBaseClient, HBaseCluster, Put, Scan
from repro.sim import Simulation


def run_storage_perf(
    num_rows: int = 50_000,
    repetitions: int = 5,
    value_bytes: int = 16,
    seed: int = 20170904,
) -> ExperimentResult:
    """Wall-clock cost of the simulated HBase layer itself.

    Loads ``num_rows`` shuffled-key rows into a single region with
    ``put_batch`` (crossing one memstore flush at the default threshold)
    and then streams a full-table scan. Both phases report *wall-clock*
    seconds — the simulator's own execution cost, which is what the
    LSM-engine work optimizes — alongside the simulated latency, which
    must stay constant across engine rewrites.
    """
    result = ExperimentResult(
        "StoragePerf",
        f"HBase layer wall-clock: load + full scan of {num_rows} rows",
        "phase",
        unit="s (wall)",
    )
    result.x_values = ["load", "scan"]
    wall = result.add_series("Wall-clock (s)")
    best = result.add_series("Best wall-clock (s)")
    virt = result.add_series("Simulated (ms)")
    load_wall, scan_wall = [], []
    load_virt, scan_virt = [], []
    for rep in range(repetitions):
        sim = Simulation(seed=seed + rep)
        client = HBaseClient(HBaseCluster(sim))
        table = client.create_table("perf")  # one region, default flush
        keys = [b"%010d" % i for i in range(num_rows)]
        random.Random(seed + rep).shuffle(keys)
        payload = b"x" * value_bytes
        puts = []
        for key in keys:
            p = Put(key)
            p.add(b"cf", b"v", payload)
            puts.append(p)

        sw = sim.stopwatch()
        t0 = time.perf_counter()
        table.put_batch(puts)
        load_wall.append(time.perf_counter() - t0)
        load_virt.append(sw.stop())

        sw = sim.stopwatch()
        t0 = time.perf_counter()
        scanned = sum(1 for _ in table.scan(Scan()))
        scan_wall.append(time.perf_counter() - t0)
        scan_virt.append(sw.stop())
        if scanned != num_rows:  # pragma: no cover - correctness guard
            raise AssertionError(f"scan returned {scanned} of {num_rows} rows")
    wall.set("load", summarize(load_wall))
    wall.set("scan", summarize(scan_wall))
    # min across reps is the noise-robust wall-clock estimate (what a
    # quiet machine would measure); speedup comparisons should use it
    best.set("load", Stat(min(load_wall), 0.0, len(load_wall)))
    best.set("scan", Stat(min(scan_wall), 0.0, len(scan_wall)))
    virt.set("load", summarize(load_virt))
    virt.set("scan", summarize(scan_virt))
    result.note(
        f"{num_rows} rows, {value_bytes}-byte values, shuffled keys, "
        f"single region, {repetitions} repetitions"
    )
    return result


def phase_speedups(baseline: dict, current: dict) -> dict[str, float]:
    """``storage_<phase>``: baseline / current wall-clock per phase,
    between two emitted ``experiments`` blocks that both ran this suite.
    Uses the noise-robust best-of-reps series when both sides recorded
    it."""
    base = baseline.get("StoragePerf", {}).get("series", {})
    cur = current.get("StoragePerf", {}).get("series", {})
    for label in ("Best wall-clock (s)", "Wall-clock (s)"):
        if base.get(label) and cur.get(label):
            out = {}
            for phase, stat in base[label].items():
                now = cur[label].get(phase)
                if stat and now and now.get("mean"):
                    out[f"storage_{phase}"] = round(stat["mean"] / now["mean"], 2)
            return out
    return {}


def _run(opts, say):
    say(f"[storage] load + scan {opts.storage_rows} rows")
    return [run_storage_perf(
        num_rows=opts.storage_rows, repetitions=min(opts.reps, 5)
    )]


STORAGE = Suite(
    "storage",
    _run,
    flags=(
        Flag("storage_rows", int, 50_000, "rows to load and scan"),
    ),
    timed=True,
    # wall-clock series: the gate is "the harness runs and emits", the
    # numbers themselves belong to perfbench
    smoke=Smoke(flags="--storage-rows 5000 --reps 2"),
)
