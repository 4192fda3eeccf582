"""Helpers shared by the four workloads that run on TPC-W systems."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable

from repro.bench.tpcw_lab import TpcwLab
from repro.systems import EvaluatedSystem
from repro.tpcw import TpcwDataGenerator

from perfbench.harness import Recorder, Workload

#: Identifying columns per join query, shared by every system's result
#: shape. Q10 and Q11 end in ``ORDER BY SUM(..) DESC LIMIT k``: engines
#: legitimately pick different members of a tie at the cut-off and name
#: the aggregate after their own rewrite, so those two compare the
#: sorted aggregate scores — the multiset that is invariant.
QUERY_KEYS: dict[str, tuple[str, ...] | None] = {
    "Q1": ("ol_o_id", "ol_id", "i_id"),
    "Q2": ("o_id", "c_id"),
    "Q3": ("c_id", "addr_id", "co_id"),
    "Q4": ("i_id", "a_id"),
    "Q5": ("i_id", "a_id"),
    "Q6": ("i_id", "a_id"),
    "Q7": ("o_id", "c_id"),
    "Q8": ("scl_sc_id", "scl_i_id", "i_id"),
    "Q9": ("i_id",),
    "Q10": None,
    "Q11": None,
}


def canonical(keys: tuple[str, ...] | None, rows: Any) -> Any:
    """Order-independent form of one statement's result: the key
    columns of every row, or the sorted aggregate scores when ``keys``
    is None; write results (counts / None) pass through."""
    if not isinstance(rows, list):
        return rows
    if keys is None:
        return sorted(
            round(float(v), 6)
            for row in rows
            for k, v in row.items()
            if k.startswith("SUM(")
        )
    return sorted(tuple(row.get(k) for k in keys) for row in rows)


def digest(items: Iterable[Any]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


LOAD_CHUNK_ROWS = 100


def make_lab(num_customers: int, seed: int) -> TpcwLab:
    # jitter off: virtual numbers are pure model and repeat exactly
    return TpcwLab(num_customers=num_customers, seed=seed, jitter_fraction=0.0)


def build_systems(
    lab: TpcwLab, names: Iterable[str], rec: Recorder
) -> dict[str, EvaluatedSystem]:
    """Build and bulk-load the named systems from the same generated
    rows, one span per phase, set-up seconds kept per system."""
    systems: dict[str, EvaluatedSystem] = {}
    for name in names:
        mark = len(rec.segments)
        with rec.span("build", system=name):
            system = lab.build_system(name)
        rec.cut()
        rec.setup_by_part[f"{name}/build"] = rec.since(mark)[1]
        with rec.span("load", system=name):
            rows = TpcwDataGenerator(lab.num_customers, seed=lab.seed).all_rows()
            # in chunks, so the calibration can cut in between
            while chunk := list(islice(rows, LOAD_CHUNK_ROWS)):
                system.load(chunk)
                rec.tick(time.perf_counter())
        with rec.span("finish_load", system=name):
            system.finish_load()
        rec.cut()
        rec.setup_by_part[name] = rec.since(mark)[1]
        systems[name] = system
    return systems


def generated_user_bytes(num_customers: int, seed: int) -> int:
    """Bytes of the generated user rows: text at its UTF-8 length,
    numbers at 8 bytes — the denominator of ``db_bytes_per_user_byte``."""
    total = 0
    for _relation, row in TpcwDataGenerator(num_customers, seed=seed).all_rows():
        for value in row.values():
            total += len(value.encode()) if isinstance(value, str) else 8
    return total


def cluster_of(system: EvaluatedSystem) -> Any:
    """The HBase cluster under a system (None for VoltDB)."""
    inner = getattr(system, "system", system)
    return getattr(inner, "cluster", None)


def conn_of(system: EvaluatedSystem) -> Any:
    """The Phoenix connection of a system (None for VoltDB)."""
    inner = getattr(system, "system", system)
    return getattr(inner, "conn", None)


class CounterWindow:
    """Deltas of the public ``sim.metrics.counters()`` of several
    systems across a phase, summed by counter suffix (``rs.rs3.seek``
    and ``rs.rs1.seek`` both count as ``rs.seek``)."""

    def __init__(self, systems: Iterable[EvaluatedSystem]) -> None:
        self.systems = list(systems)
        self.before = [s.sim.metrics.counters() for s in self.systems]

    def deltas(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for system, before in zip(self.systems, self.before):
            for name, value in system.sim.metrics.counters().items():
                parts = name.split(".")
                key = f"rs.{parts[-1]}" if parts[0] == "rs" else name
                out[key] = out.get(key, 0) + value - before.get(name, 0)
        return out


def store_files_per_region(systems: Iterable[EvaluatedSystem]) -> float:
    files = regions = 0
    for system in systems:
        cluster = cluster_of(system)
        if cluster is None:
            continue
        for table in cluster.tables:
            for region in cluster.descriptor(table).regions:
                regions += 1
                files += len(region.hfiles)
    return files / regions if regions else 0.0


def storage_layer_metrics(
    window: CounterWindow,
    reads: int,
    writes: int,
    rows_returned: int,
) -> dict[str, float]:
    """The phoenix/hbase counter ratios every SQL workload reports."""
    d = window.deltas()
    statements = max(reads + writes, 1)
    return {
        "phoenix.rows_examined_per_row_returned": (
            d.get("rs.rows_read", 0) / max(rows_returned, 1)
        ),
        "phoenix.rpc_per_stmt": d.get("client.rpc", 0) / statements,
        "phoenix.broadcast_rows_per_stmt": (
            d.get("phoenix.hashjoin_broadcast_rows", 0) / statements
        ),
        "phoenix.bytes_per_stmt": (
            (d.get("client.bytes", 0) + d.get("phoenix.bytes", 0)) / statements
        ),
        "hbase.wal_appends_per_user_write": (
            d.get("rs.wal_append", 0) / max(writes, 1)
        ),
        "hbase.rows_written_per_user_write": (
            d.get("rs.rows_written", 0) / max(writes, 1)
        ),
        "hbase.seeks_per_read_op": d.get("rs.seek", 0) / max(reads, 1),
        "hbase.store_files_per_region": store_files_per_region(window.systems),
    }


@dataclass(slots=True)
class Op:
    """One planned statement: who runs it, with what, and how its
    result is judged."""

    system: str
    call: Any  # bound timed_id / timed of the target
    arg: str  # statement id or SQL text
    params: tuple
    stmt: str  # label in spans, digests and failure messages
    is_read: bool
    keys: tuple[str, ...] | None = None
    group: Any = None  # ops sharing a group must agree row for row


class SerialSqlWorkload(Workload):
    """One client issuing statements one after another. Subclasses build
    the systems and say which ops a repetition holds; rep 0 is the
    warm-up, timed reps start at 1."""

    def ops_for_rep(self, rep: int) -> list[Op]:
        raise NotImplementedError

    def __init__(self, seed: int, size: str, rec: Recorder) -> None:
        super().__init__(seed, size, rec)
        self.plan: list[Op] = []
        self.results: list[tuple[Any, float]] = []
        self.reads = self.writes = self.rows_returned = 0
        self.by_system: dict[str, dict[str, float]] = {}
        self.systems: dict[str, EvaluatedSystem] = {}
        self.first_forms: dict[Any, tuple[str, Any]] = {}
        """Per parity group of the last round: (who answered first,
        canonical result)."""

    def _execute(self, plan: list[Op], host_us: list[float]) -> list[tuple[Any, float]]:
        """Run the ops in order, one host sample per op."""
        rec = self.rec
        spans = rec.spans
        parent = rec.parent
        results: list[tuple[Any, float]] = []
        for op in plan:
            t0 = time.perf_counter()
            try:
                result = op.call(op.arg, op.params)
            except Exception as exc:  # a raised op is a failed op, not a crash
                result = (exc, 0.0)
            t1 = time.perf_counter()
            host_us.append((t1 - t0) * 1e6)
            results.append(result)
            if spans is not None:
                spans.append(("op", t0, t1, parent, {
                    "system": op.system, "stmt": op.stmt,
                    "kind": "read" if op.is_read else "write",
                }))
            rec.tick(t1)
        return results

    def warm_up(self) -> None:
        self._execute(self.ops_for_rep(0), self.rec.cold_us)
        self.window = CounterWindow(self.systems.values())

    def storage_metrics(self) -> dict[str, float]:
        return storage_layer_metrics(
            self.window, self.reads, self.writes, self.rows_returned
        )

    def prepare_round(self, index: int) -> None:
        reps = self.sizes["reps_per_round"]
        self.plan = [
            op
            for rep in range(1 + index * reps, 1 + (index + 1) * reps)
            for op in self.ops_for_rep(rep)
        ]

    def run_round(self, index: int) -> None:
        self.results = self._execute(self.plan, self.rec.host_us)

    def finish_round(self, index: int) -> None:
        rec = self.rec
        first = self.first_forms = {}
        judged = []
        rows_in_round = 0
        vms_in_round = 0.0
        host = rec.host_us[-len(self.plan):]
        for op, (rows, vms), us in zip(self.plan, self.results, host):
            rec.attempted += 1
            if isinstance(rows, Exception):
                rec.fail(f"{op.system} {op.stmt}: raised {rows!r}")
                continue
            (rec.read_vms if op.is_read else rec.write_vms).append(vms)
            rec.makespan_ms += vms
            vms_in_round += vms
            per = self.by_system.setdefault(op.system, {
                "host_s": 0.0, "ops": 0, "read_vms": 0.0, "reads": 0,
                "write_vms": 0.0, "writes": 0,
            })
            per["host_s"] += us / 1e6
            per["ops"] += 1
            if op.is_read:
                self.reads += 1
                per["read_vms"] += vms
                per["reads"] += 1
                rows_in_round += len(rows)
            else:
                self.writes += 1
                per["write_vms"] += vms
                per["writes"] += 1
            form = canonical(op.keys, rows)
            judged.append((op.system, op.stmt, form))
            if op.group is not None:
                seen = first.setdefault(op.group, (op.system, form))
                if seen[1] != form:
                    rec.fail(
                        f"{op.stmt} {op.group}: {op.system} returned "
                        f"{str(form)[:80]}, {seen[0]} returned {str(seen[1])[:80]}"
                    )
        self.rows_returned += rows_in_round
        self.digests.append({
            "ops": len(self.plan), "rows": rows_in_round,
            "virtual_ms": round(vms_in_round, 6), "digest": digest(judged),
        })
        self.plan = []
        self.results = []


#: BENCHMARK.json metric infix per system.
SLUGS = {
    "VoltDB": "voltdb", "Synergy": "synergy", "MVCC-A": "mvcc-a",
    "MVCC-UA": "mvcc-ua", "Baseline": "baseline",
}


def per_system_metrics(workload: Workload) -> dict[str, float]:
    """The per-system split, so a regression in one system cannot hide
    in a multi-system sum."""
    out: dict[str, float] = {}
    for name, system in workload.systems.items():
        slug = SLUGS[name]
        per = workload.by_system[name]
        out[f"systems.{slug}.setup_s"] = workload.rec.setup_by_part[name]
        out[f"systems.{slug}.host_ops_per_s"] = per["ops"] / per["host_s"]
        out[f"systems.{slug}.virtual_read_ms_per_op"] = (
            per["read_vms"] / max(per["reads"], 1)
        )
        out[f"systems.{slug}.virtual_write_ms_per_op"] = (
            per["write_vms"] / max(per["writes"], 1)
        )
        out[f"systems.{slug}.db_bytes"] = system.db_size_bytes()
    return out
