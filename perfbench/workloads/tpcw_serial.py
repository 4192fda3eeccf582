"""tpcw-serial: the paper's Table II battery on all five systems.

Why it exists: the headline trade (read cost vs write cost vs space)
and the only workload where sql, phoenix, synergy, mvcc, voltdb and
hbase all take a visible share. Point statements set the p50, Q10/Q11
set the p95; ``setup_s`` is the five bulk loads.
"""

from __future__ import annotations

from typing import Any

from repro.bench.tpcw_lab import SYSTEM_NAMES
from repro.tpcw import JOIN_QUERIES, WRITE_STATEMENTS

from perfbench.tpcw_common import (
    QUERY_KEYS,
    Op,
    SerialSqlWorkload,
    build_systems,
    generated_user_bytes,
    make_lab,
    per_system_metrics,
)


def synergy_metrics(workload: SerialSqlWorkload) -> dict[str, float]:
    synergy = workload.systems["Synergy"].system
    cluster = synergy.cluster
    base = {r.name for r in synergy.schema.relations}
    base_rows = sum(cluster.table_row_count(t) for t in cluster.tables if t in base)
    view_rows = sum(
        cluster.table_row_count(t) for t in cluster.tables if t.startswith("MV_")
    )
    return {
        "synergy.build_ms": workload.rec.setup_by_part["Synergy/build"] * 1e3,
        "synergy.views_selected": len(synergy.views),
        "synergy.view_rows_per_base_row": view_rows / base_rows,
    }


class TpcwSerial(SerialSqlWorkload):
    name = "tpcw-serial"
    round_seconds = 1.0
    SIZES = {
        # five bulk loads cost ~10 s: one set-up is all a run can afford
        "full": {"customers": 60, "reps_per_round": 2, "setups": 1},
        "toy": {"customers": 10, "reps_per_round": 1, "setups": 1},
    }

    def set_up(self) -> None:
        self.lab = make_lab(self.sizes["customers"], self.seed)
        self.systems = build_systems(self.lab, SYSTEM_NAMES, self.rec)
        self.supported = {
            name: [
                sid
                for sid in (*JOIN_QUERIES, *WRITE_STATEMENTS)
                if system.supports(sid)
            ]
            for name, system in self.systems.items()
        }
        for name, sids in self.supported.items():
            self.rec.statements.update(
                self.systems[name].statement(sid) for sid in sids
            )

    def ops_for_rep(self, rep: int) -> list[Op]:
        generator = self.lab.generator
        params: dict[str, tuple[Any, ...]] = {}
        for sid in JOIN_QUERIES:
            params[sid] = generator.params_for_query(sid, rep)
        for sid in WRITE_STATEMENTS:
            params[sid] = generator.params_for_write(sid, rep)
        return [
            Op(
                name, system.timed_id, sid, params[sid], sid,
                is_read=sid in JOIN_QUERIES,
                keys=QUERY_KEYS.get(sid),
                group=(rep, sid) if sid in JOIN_QUERIES else None,
            )
            for name, system in self.systems.items()
            for sid in self.supported[name]
        ]

    def db_bytes(self) -> int:
        return sum(s.db_size_bytes() for s in self.systems.values())

    def user_bytes(self) -> int:
        # every system holds its own copy of the generated rows
        return len(self.systems) * generated_user_bytes(
            self.sizes["customers"], self.seed
        )

    def layer_metrics(self) -> dict[str, float]:
        return {
            **self.storage_metrics(),
            **per_system_metrics(self),
            **synergy_metrics(self),
        }
