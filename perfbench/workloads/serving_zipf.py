"""serving-zipf: a raw HBase cluster under Zipfian point traffic.

Why it exists: no SQL at all — the scheduler, the hbase client, the
region servers, the row cache and admission control do the work at
tens of host µs per op. The table (16 384 rows x 96 B, about 1.5 MB)
is six times the 256 KB row cache while the hot head of Zipf(1.1) over
a million users fits, so it is the only workload where scheduler cost,
hit ratio and shedding move anything. A shed request is re-offered
after the server's retry-after hint until it is admitted, as a
closed-loop client would: sheds show in ``hbase.shed_rate`` and in the
virtual tail, never as failed operations.
"""

from __future__ import annotations

import time
from typing import Any

from repro.config import ClusterConfig, ServingConfig
from repro.errors import ServerOverloadedError
from repro.hbase import Get, HBaseClient, HBaseCluster, HTable, Put
from repro.sim import DeterministicScheduler, Simulation, percentile
from repro.sim.faults import FAMILY, QUALIFIER, ChaosHistory, check_invariants
from repro.tpcw import ServingWorkload, ZipfianPopulation

from perfbench.harness import Recorder, Workload
from perfbench.tpcw_common import digest

TABLE = "serve"


class ServingZipf(Workload):
    name = "serving-zipf"
    round_seconds = 1.25
    SIZES = {
        "full": {
            "servers": 4, "regions": 8, "rows": 16_384, "value_bytes": 96,
            "cache_bytes": 256 * 1024, "queue_ms": 8.0, "p99_budget_ms": 6.0,
            "clients": 256, "ops_per_client_round": 100,
            "read_fraction": 0.9, "population": 1_000_000, "zipf_s": 1.1,
            "max_shed_retries": 64, "setups": 3,
        },
        "toy": {
            "servers": 2, "regions": 4, "rows": 512, "value_bytes": 96,
            "cache_bytes": 8 * 1024, "queue_ms": 8.0, "p99_budget_ms": 6.0,
            "clients": 16, "ops_per_client_round": 20,
            "read_fraction": 0.9, "population": 10_000, "zipf_s": 1.1,
            "max_shed_retries": 64, "setups": 1,
        },
    }

    def __init__(self, seed: int, size: str, rec: Recorder) -> None:
        super().__init__(seed, size, rec)
        self.reports: list[Any] = []
        self.dropped = 0
        self.user_row_bytes = 0

    def set_up(self) -> None:
        z = self.sizes
        rec = self.rec
        with rec.span("build"):
            self.sim = Simulation()
            self.cluster = HBaseCluster(self.sim, ClusterConfig(
                num_region_servers=z["servers"],
                serving=ServingConfig(
                    row_cache_bytes=z["cache_bytes"],
                    admission_queue_ms=z["queue_ms"],
                    p99_budget_ms=z["p99_budget_ms"],
                ),
            ))
            split_keys = [
                b"%08d" % (i * z["rows"] // z["regions"])
                for i in range(1, z["regions"])
            ]
            table = HBaseClient(self.cluster).create_table(
                TABLE, split_keys=split_keys
            )
        self.history = ChaosHistory()
        with rec.span("load"):
            puts = []
            self.user_row_bytes = 0
            for i in range(z["rows"]):
                row = b"%08d" % i
                value = (b"seed-%08d" % i).ljust(z["value_bytes"], b".")
                put = Put(row)
                put.add(FAMILY, QUALIFIER, value)
                puts.append(put)
                self.history.record_ack(row, value)
                self.user_row_bytes += len(row) + len(value)
            table.put_batch(puts)
        with rec.span("finish_load"):
            self.sim.reset_clock()
            self.workload = ServingWorkload(
                ZipfianPopulation(z["population"], z["zipf_s"]),
                z["rows"], self.seed, z["read_fraction"], label="perfbench",
            )

    # -- one round = every client replays its next slice of ops ---------------------
    def prepare_round(self, index: int) -> None:
        z = self.sizes
        self.round_reads: list[float] = []
        self.round_writes: list[float] = []
        self.scheduler = DeterministicScheduler(self.sim)
        for i in range(z["clients"]):
            # a fresh personal stream per (round, client)
            ops = self.workload.ops_for_client(
                index * z["clients"] + i, z["ops_per_client_round"]
            )
            self.scheduler.add_client(
                f"serve-{i}", self._program(HTable(self.cluster, TABLE), ops, i, index)
            )

    def _program(self, handle: HTable, ops: list, client_id: int, round_index: int) -> Any:
        rec = self.rec
        host_us = rec.host_us
        spans = rec.spans
        history = self.history
        reads, writes = self.round_reads, self.round_writes
        value_bytes = self.sizes["value_bytes"]
        max_retries = self.sizes["max_shed_retries"]
        perf_counter = time.perf_counter

        def program(vc: Any) -> Any:
            for op_index, (kind, row) in enumerate(ops):
                yield "op"
                started = vc.clock.now_ms
                attempts = 0
                if kind == "put":
                    value = (
                        b"r%03d-c%05d-%04d" % (round_index, client_id, op_index)
                    ).ljust(value_bytes, b".")
                    put = Put(row)
                    put.add(FAMILY, QUALIFIER, value)
                while True:
                    t0 = perf_counter()
                    try:
                        if kind == "get":
                            result = handle.get(Get(row))
                        else:
                            handle.put(put)
                        shed = None
                    except ServerOverloadedError as exc:
                        shed = exc
                    t1 = perf_counter()
                    host_us.append((t1 - t0) * 1e6)
                    if spans is not None:
                        spans.append(("op", t0, t1, rec.parent, {
                            "stmt": kind, "kind": "read" if kind == "get" else "write",
                            "shed": shed is not None,
                        }))
                    rec.tick(t1)
                    if shed is None:
                        break
                    attempts += 1
                    if attempts > max_retries:
                        self.dropped += 1
                        vc.stats.failed += 1
                        break
                    vc.clock.advance(shed.retry_after_ms * attempts)
                    yield "shed-backoff"
                if shed is not None:
                    continue
                if kind == "get":
                    history.record_get(
                        row,
                        result.value(FAMILY, QUALIFIER) if result is not None else None,
                    )
                    reads.append(vc.clock.now_ms - started)
                else:
                    history.record_ack(row, value)
                    writes.append(vc.clock.now_ms - started)
                vc.stats.committed += 1

        return program

    def run_round(self, index: int) -> None:
        with self.rec.span("schedule"):
            self.reports.append(self.scheduler.run())

    def finish_round(self, index: int) -> None:
        rec = self.rec
        z = self.sizes
        report = self.reports[-1]
        ops = z["clients"] * z["ops_per_client_round"]
        failed = sum(c["failed"] for c in report.clients.values())
        rec.attempted += ops
        if failed:
            rec.fail(f"round {index}: {failed} ops dropped after retries", ops=failed)
        rec.read_vms.extend(self.round_reads)
        rec.write_vms.extend(self.round_writes)
        rec.makespan_ms += report.makespan_ms
        observed = self.history.gets[-len(self.round_reads):] if self.round_reads else []
        self.digests.append({
            "ops": ops,
            "rows": len(observed),
            "virtual_ms": round(sum(self.round_reads) + sum(self.round_writes), 6),
            "digest": digest([report.committed, report.steps, digest(observed)]),
        })
        self.scheduler = None

    def check(self) -> None:
        # durability + read oracle over everything the run acked and read
        for violation in check_invariants(self.history, HTable(self.cluster, TABLE)):
            self.rec.fail(violation)

    def db_bytes(self) -> int:
        return self.cluster.total_size_bytes()

    def user_bytes(self) -> int:
        return self.user_row_bytes

    def layer_metrics(self) -> dict[str, float]:
        totals = self.cluster.serving_stats()["totals"]
        ops = sum(r.committed for r in self.reports)
        return {
            "hbase.cache_hit_ratio": totals["cache_hit_ratio"],
            "hbase.cache_evictions": totals["cache_evictions"],
            "hbase.shed_rate": totals["shed_rate"],
            "hbase.dropped_ops": self.dropped,
            "hbase.virtual_p99_ms": percentile(
                self.rec.read_vms + self.rec.write_vms, 0.99
            ),
            "sim.steps_per_op": sum(r.steps for r in self.reports) / max(ops, 1),
            "sim.serial_waits": sum(r.serial_wait_count for r in self.reports),
        }
