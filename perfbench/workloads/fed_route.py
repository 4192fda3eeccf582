"""fed-route: the federation mediator over Synergy + Baseline + VoltDB.

Why it exists: the only default-path user of the streaming operators
and the cost-based planner (until ROADMAP item 3 makes them the one
engine), and the guard for item 5's split of ``mediator.py``. One
client; every join query routed in ``auto`` and in ``split`` mode, plus
three broadcast writes per repetition.
"""

from __future__ import annotations

from repro.federation import Mediator
from repro.tpcw import JOIN_QUERIES

from perfbench.tpcw_common import (
    QUERY_KEYS,
    Op,
    SerialSqlWorkload,
    build_systems,
    canonical,
    generated_user_bytes,
    make_lab,
)

BACKENDS = ("Synergy", "Baseline", "VoltDB")
BROADCAST_WRITES = ("W9", "W11", "W13")


class FedRoute(SerialSqlWorkload):
    name = "fed-route"
    round_seconds = 1.25
    SIZES = {
        "full": {"customers": 40, "reps_per_round": 6, "setups": 2},
        "toy": {"customers": 10, "reps_per_round": 1, "setups": 1},
    }

    def set_up(self) -> None:
        lab = self.lab = make_lab(self.sizes["customers"], self.seed)
        self.systems = build_systems(lab, BACKENDS, self.rec)
        self.mediators = {
            mode: Mediator(
                self.systems, lab.schema, lab.workload, seed=self.seed, mode=mode
            )
            for mode in ("auto", "split")
        }
        # the single-system reference the routed results must match
        self.pinned = Mediator(
            self.systems, lab.schema, lab.workload, seed=self.seed,
            mode="whole", pin="Synergy",
        )
        self.rec.statements.update(
            self.mediators["auto"].statement(sid)
            for sid in (*JOIN_QUERIES, *BROADCAST_WRITES)
        )

    def warm_up(self) -> None:
        super().warm_up()
        self.routes_before = {
            mode: len(m.route_log) for mode, m in self.mediators.items()
        }

    def ops_for_rep(self, rep: int) -> list[Op]:
        generator = self.lab.generator
        ops = [
            Op(
                mode, mediator.timed_id, sid,
                generator.params_for_query(sid, rep), sid,
                is_read=True, keys=QUERY_KEYS[sid], group=(rep, sid),
            )
            for mode, mediator in self.mediators.items()
            for sid in JOIN_QUERIES
        ]
        ops.extend(
            Op(
                "auto", self.mediators["auto"].timed_id, sid,
                generator.params_for_write(sid, rep), sid, is_read=False,
            )
            for sid in BROADCAST_WRITES
        )
        return ops

    def finish_round(self, index: int) -> None:
        super().finish_round(index)
        # routed vs pinned on the round's first repetition. The writes
        # are updates of non-key columns, so the canonical (key-column)
        # form does not depend on when in the round the reference runs.
        rep = 1 + index * self.sizes["reps_per_round"]
        for sid in JOIN_QUERIES:
            rows, _ = self.pinned.timed_id(
                sid, self.lab.generator.params_for_query(sid, rep)
            )
            want = canonical(QUERY_KEYS[sid], rows)
            who, got = self.first_forms.get((rep, sid), ("nobody", None))
            if got != want:
                self.rec.fail(
                    f"{sid} rep {rep}: routed ({who}) {str(got)[:80]} differs "
                    f"from pinned Synergy {str(want)[:80]}"
                )

    def db_bytes(self) -> int:
        return self.mediators["auto"].db_size_bytes()

    def user_bytes(self) -> int:
        return len(self.systems) * generated_user_bytes(
            self.sizes["customers"], self.seed
        )

    def layer_metrics(self) -> dict[str, float]:
        selects = fragments = split = reroutes = 0
        used: set[str] = set()
        for mode, mediator in self.mediators.items():
            for record in mediator.route_log[self.routes_before[mode]:]:
                if record.mode == "broadcast":
                    continue
                selects += 1
                fragments += len(record.assignments)
                split += record.mode == "split"
                used.update(
                    a["backend"] for a in record.assignments if a["executed"]
                )
            reroutes += sum(1 for d in mediator.advisor.decision_log if d.rerouted)
        return {
            **self.storage_metrics(),
            "federation.fragments_per_stmt": fragments / max(selects, 1),
            "federation.split_share": split / max(selects, 1),
            "federation.backends_used": len(used),
            "federation.advisor_reroutes": reroutes,
        }
