"""scan-join: read-mostly analytics on Baseline and MVCC-UA.

Why it exists: per-row work in the phoenix operators, row decode and
the hbase scanners dominates (tens of host ms per statement against
well under one for a point statement); parse/plan and the write paths
are negligible. This is where columnar batches (ROADMAP item 6) must
win and where a point-path optimisation must show nothing.

Each round ends with one point update per system: it keeps a live
memstore above the flushed files, as on a table that is still being
written, and it is what gives ``virtual_write_ms_per_op`` a value here
(under 0.3 % of the round's host time, and under 5 % of its ops, so
``virtual_p95_ms`` stays a read).
"""

from __future__ import annotations

from perfbench.tpcw_common import (
    QUERY_KEYS,
    Op,
    SerialSqlWorkload,
    build_systems,
    generated_user_bytes,
    make_lab,
    per_system_metrics,
)

SYSTEMS = ("Baseline", "MVCC-UA")
SCAN_QUERIES = ("Q4", "Q5", "Q10", "Q11")

#: Ad-hoc statements: label -> (SQL, parameters, comparison keys).
#: ``()`` compares row counts only (LIMIT without ORDER BY may return
#: any qualifying rows); None compares the sorted aggregate scores.
AD_HOC: dict[str, tuple[str, tuple, tuple[str, ...] | None]] = {
    "limit-join": (
        "SELECT o.o_id, o2.o_id FROM Orders as o, Orders as o2 "
        "WHERE o.o_date = o2.o_date and o.o_id <> o2.o_id LIMIT 64",
        (), (),
    ),
    "count-all": ("SELECT COUNT(*) FROM Order_line", (), ("COUNT(*)",)),
    "group-top": (
        "SELECT ol_i_id, SUM(ol_qty) FROM Order_line GROUP BY ol_i_id "
        "ORDER BY SUM(ol_qty) DESC LIMIT 10",
        (), None,
    ),
    "filter-top": (
        "SELECT i_id, i_title, i_cost FROM Item WHERE i_cost > ? "
        "ORDER BY i_cost DESC, i_id LIMIT 20",
        (50.0,), ("i_id",),
    ),
    "join-agg": (
        "SELECT c.c_id, SUM(o.o_total) FROM Customer as c, Orders as o "
        "WHERE c.c_id = o.o_c_id GROUP BY c.c_id "
        "ORDER BY SUM(o.o_total) DESC LIMIT 10",
        (), None,
    ),
    "distinct": ("SELECT DISTINCT i_subject FROM Item", (), ("i_subject",)),
}


class ScanJoin(SerialSqlWorkload):
    name = "scan-join"
    round_seconds = 2.0
    SIZES = {
        "full": {"customers": 100, "reps_per_round": 2, "setups": 2},
        "toy": {"customers": 10, "reps_per_round": 1, "setups": 1},
    }

    def set_up(self) -> None:
        self.lab = make_lab(self.sizes["customers"], self.seed)
        self.systems = build_systems(self.lab, SYSTEMS, self.rec)
        for system in self.systems.values():
            self.rec.statements.update(
                system.statement(sid) for sid in (*SCAN_QUERIES, "W9")
            )
        self.rec.statements.update(sql for sql, _, _ in AD_HOC.values())

    def ops_for_rep(self, rep: int) -> list[Op]:
        generator = self.lab.generator
        ops: list[Op] = []
        for name, system in self.systems.items():
            for sid in SCAN_QUERIES:
                ops.append(Op(
                    name, system.timed_id, sid,
                    generator.params_for_query(sid, rep), sid,
                    is_read=True, keys=QUERY_KEYS[sid], group=(rep, sid),
                ))
            for label, (sql, params, keys) in AD_HOC.items():
                ops.append(Op(
                    name, system.timed, sql, params, label,
                    is_read=True, keys=keys, group=(rep, label),
                ))
            if rep % self.sizes["reps_per_round"] == 0:
                ops.append(Op(
                    name, system.timed_id, "W9",
                    generator.params_for_write("W9", rep), "W9", is_read=False,
                ))
        return ops

    def db_bytes(self) -> int:
        return sum(s.db_size_bytes() for s in self.systems.values())

    def user_bytes(self) -> int:
        return len(self.systems) * generated_user_bytes(
            self.sizes["customers"], self.seed
        )

    def layer_metrics(self) -> dict[str, float]:
        return {**self.storage_metrics(), **per_system_metrics(self)}
