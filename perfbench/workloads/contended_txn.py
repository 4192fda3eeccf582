"""contended-txn: 64 virtual clients fighting over 8-key hot sets.

Why it exists: the paper's other axis — lock waits (Synergy) vs MVCC
aborts (MVCC-A) vs partition queues (VoltDB) — and the write-heavy use
of the same hbase/phoenix layers that ``scan-join`` uses read-only, so
a read win that costs writes shows here. Hot rows collect versions in
the memstore as the run goes on, so later rounds cost more host time
than earlier ones: that growth is part of what this workload measures.
"""

from __future__ import annotations

import time
from typing import Any

from repro.sim import DeterministicScheduler, derive_rng, run_transaction
from repro.tpcw import WRITE_STATEMENTS

from perfbench.harness import Recorder, Workload
from perfbench.tpcw_common import (
    CounterWindow,
    build_systems,
    digest,
    generated_user_bytes,
    make_lab,
    per_system_metrics,
    storage_layer_metrics,
)

SYSTEMS = ("Synergy", "MVCC-A", "VoltDB")

#: Read-back statement per hot table: the columns the write sets.
READ_BACK = {
    "Item": "SELECT i_stock FROM Item WHERE i_id = ?",
    "Customer": (
        "SELECT c_balance, c_ytd_pmt, c_login FROM Customer WHERE c_id = ?"
    ),
    "Shopping_cart": "SELECT sc_time FROM Shopping_cart WHERE sc_id = ?",
}


class TimedSession:
    """The benchmark's own bracket around ``session.execute``: host
    time per call, a span on traced runs, and the last value written to
    each hot key for the read-back oracle. Auto-commit sessions apply a
    write when it executes; sessions that roll back apply it at commit."""

    def __init__(self, session: Any, owner: "ContendedTxn", system: str) -> None:
        self.session = session
        self.owner = owner
        self.system = system
        self.at_commit = session.rolls_back_on_abort
        self.pending: list[tuple[tuple, tuple]] = []
        self.last_written = owner.last_written[system]

    def begin(self) -> None:
        self.pending.clear()
        self.session.begin()

    def execute(self, sql: str, params: tuple = ()) -> Any:
        owner = self.owner
        t0 = time.perf_counter()
        try:
            result = self.session.execute(sql, params)
        finally:
            # an attempt that ends in a lock wait or a conflict still
            # cost host time
            t1 = time.perf_counter()
            owner.rec.host_us.append((t1 - t0) * 1e6)
        effect = owner.effects.get((sql, params))
        if effect is None:
            owner.reads += 1
            owner.rows_returned += len(result)
        else:
            owner.writes += 1
            if self.at_commit:
                self.pending.append(effect)
            else:
                self.last_written[effect[0]] = effect[1]
        spans = owner.rec.spans
        if spans is not None:
            spans.append(("op", t0, t1, owner.rec.parent, {
                "system": self.system, "stmt": owner.labels[sql],
                "kind": "read" if effect is None else "write",
            }))
        owner.rec.tick(t1)
        return result

    def commit(self) -> None:
        self.session.commit()
        for key, value in self.pending:
            self.last_written[key] = value
        self.pending.clear()

    def abort(self) -> None:
        self.pending.clear()
        self.session.abort()


class ContendedTxn(Workload):
    name = "contended-txn"
    round_seconds = 2.4
    SIZES = {
        "full": {
            "customers": 40, "clients": 64, "txns_per_client_round": 4,
            "hot_keys": 8, "max_attempts": 64,
            "setups": 1,  # the Synergy and MVCC-A bulk loads cost ~6 s
        },
        "toy": {
            "customers": 10, "clients": 8, "txns_per_client_round": 2,
            "hot_keys": 2, "max_attempts": 64, "setups": 1,
        },
    }

    def __init__(self, seed: int, size: str, rec: Recorder) -> None:
        super().__init__(seed, size, rec)
        self.reads = self.writes = self.rows_returned = 0
        self.effects: dict[tuple[str, tuple], tuple[tuple, tuple]] = {}
        self.labels: dict[str, str] = {}
        self.reports: dict[str, list[Any]] = {name: [] for name in SYSTEMS}
        self.by_system = {
            name: {
                "host_s": 0.0, "ops": 0, "read_vms": 0.0, "reads": 0,
                "write_vms": 0.0, "writes": 0,
            }
            for name in SYSTEMS
        }
        self.round_vms: dict[str, tuple[list[float], list[float]]] = {}
        """Per system, the running round's (read-only, writing)
        transaction response times in virtual ms."""
        self.steps = 0

    def set_up(self) -> None:
        self.lab = make_lab(self.sizes["customers"], self.seed)
        self.systems = build_systems(self.lab, SYSTEMS, self.rec)
        self.last_written: dict[str, dict[tuple, tuple]] = {
            name: {} for name in SYSTEMS
        }
        self.window = CounterWindow(self.systems.values())

    # -- inputs -------------------------------------------------------------------
    def _transactions(self, rng: Any) -> list[tuple[bool, list[tuple[str, tuple]]]]:
        """One client's round: (read-only?, [(statement id, params)])."""
        hot = self.sizes["hot_keys"]
        uname = self.lab.generator.customer_uname
        out = []
        for _ in range(self.sizes["txns_per_client_round"]):
            r = float(rng.random())
            i_id = int(rng.integers(1, hot + 1))
            c_id = int(rng.integers(1, hot + 1))
            sc_id = int(rng.integers(1, hot + 1))
            if r < 0.35:  # product page + restock of a hot item
                stock = int(rng.integers(10, 100))
                out.append((False, [("Q6", (i_id,)), ("W9", (stock, i_id))]))
            elif r < 0.60:  # customer profile update
                out.append((False, [("W13", (
                    round(float(rng.uniform(0, 500)), 2),
                    round(float(rng.uniform(0, 5000)), 2),
                    round(float(rng.uniform(0, 7200)), 2), c_id,
                ))]))
            elif r < 0.80:  # cart touch
                out.append((False, [
                    ("W11", (round(float(rng.uniform(0, 10 ** 6)), 2), sc_id)),
                ]))
            else:  # read-only: latest order of a hot customer
                out.append((True, [("Q2", (uname(c_id),))]))
        return out

    @staticmethod
    def _effect(sid: str, params: tuple) -> tuple[tuple, tuple]:
        """(hot key, values the write leaves behind)."""
        table = {"W9": "Item", "W13": "Customer", "W11": "Shopping_cart"}[sid]
        return (table, params[-1]), tuple(params[:-1])

    def prepare_round(self, index: int) -> None:
        self.schedulers = {}
        self.round_vms = {name: ([], []) for name in SYSTEMS}
        for name, system in self.systems.items():
            scheduler = DeterministicScheduler(system.sim)
            for i in range(self.sizes["clients"]):
                # the same stream for every system: they face one workload
                rng = derive_rng(self.seed, f"contended/round-{index}/client-{i}")
                txns = []
                for read_only, ops in self._transactions(rng):
                    statements = []
                    for sid, params in ops:
                        if sid in WRITE_STATEMENTS:
                            sql = WRITE_STATEMENTS[sid]
                            self.effects[(sql, params)] = self._effect(sid, params)
                        else:  # a query: this system's (rewritten) text
                            sql = system.statement(sid)
                        self.labels[sql] = sid
                        self.rec.statements.add(sql)
                        statements.append((sql, params))
                    txns.append((read_only, statements))
                session = TimedSession(
                    system.open_session(f"client-{i}"), self, name
                )
                scheduler.add_client(f"client-{i}", self._program(name, session, txns))
            self.schedulers[name] = scheduler

    def _program(self, name: str, session: TimedSession, txns: list) -> Any:
        read_vms, write_vms = self.round_vms[name]
        max_attempts = self.sizes["max_attempts"]

        def program(client: Any) -> Any:
            times = client.stats.response_times
            for read_only, statements in txns:
                sink = read_vms if read_only else write_vms
                yield from run_transaction(
                    client, session, statements, max_attempts=max_attempts,
                    on_commit=lambda: sink.append(times[-1]),
                )

        return program

    # -- timed --------------------------------------------------------------------
    def run_round(self, index: int) -> None:
        rec = self.rec
        for name, scheduler in self.schedulers.items():
            mark = len(rec.segments)
            with rec.span("schedule", system=name):
                report = scheduler.run()
            rec.cut()
            self.reports[name].append(report)
            calls, calibrated_s, _ = rec.since(mark)
            per = self.by_system[name]
            per["host_s"] += calibrated_s
            per["ops"] += calls

    def finish_round(self, index: int) -> None:
        rec = self.rec
        txns = self.sizes["clients"] * self.sizes["txns_per_client_round"]
        summary = []
        vms_in_round = 0.0
        for name, system in self.systems.items():
            report = self.reports[name][-1]
            failed = sum(c["failed"] for c in report.clients.values())
            rec.attempted += txns
            if failed:
                rec.fail(f"{name}: {failed} transactions gave up", ops=failed)
            rec.makespan_ms += report.makespan_ms
            self.steps += report.steps
            read_vms, write_vms = self.round_vms[name]
            rec.read_vms.extend(read_vms)
            rec.write_vms.extend(write_vms)
            vms_in_round += sum(read_vms) + sum(write_vms)
            per = self.by_system[name]
            per["read_vms"] += sum(read_vms)
            per["reads"] += len(read_vms)
            per["write_vms"] += sum(write_vms)
            per["writes"] += len(write_vms)
            # read back the last committed write of every hot key
            state = []
            for (table, key), want in sorted(self.last_written[name].items()):
                rows, _ = system.timed(READ_BACK[table], (key,))
                got = tuple(rows[0].values()) if rows else None
                state.append((table, key, got))
                if got != want:
                    rec.fail(
                        f"{name} {table}[{key}]: read back {got}, "
                        f"last committed write was {want}"
                    )
            summary.append((name, report.committed, report.aborted, state))
        self.digests.append({
            "ops": len(SYSTEMS) * txns,
            "rows": sum(len(s[3]) for s in summary),
            "virtual_ms": round(vms_in_round, 6),
            "digest": digest(summary),
        })
        self.schedulers = {}

    def db_bytes(self) -> int:
        return sum(s.db_size_bytes() for s in self.systems.values())

    def user_bytes(self) -> int:
        return len(self.systems) * generated_user_bytes(
            self.sizes["customers"], self.seed
        )

    def layer_metrics(self) -> dict[str, float]:
        def total(name: str, field: str) -> int:
            return sum(getattr(r, field) for r in self.reports[name])

        mvcc_done = total("MVCC-A", "committed") + total("MVCC-A", "aborted")
        txns = sum(r.committed for rs in self.reports.values() for r in rs)
        return {
            **per_system_metrics(self),
            **storage_layer_metrics(
                self.window, self.reads, self.writes, self.rows_returned
            ),
            "synergy.lock_waits": total("Synergy", "lock_wait_count"),
            "mvcc.conflict_aborts": total("MVCC-A", "conflict_abort_count"),
            "mvcc.abort_share": total("MVCC-A", "aborted") / max(mvcc_done, 1),
            "voltdb.serial_waits": total("VoltDB", "serial_wait_count"),
            "sim.steps_per_op": self.steps / max(txns, 1),
            "sim.serial_waits": sum(
                total(name, "serial_wait_count") for name in SYSTEMS
            ),
        }
