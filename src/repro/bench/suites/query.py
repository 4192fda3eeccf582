"""Rule-based vs cost-based planner over the Fig. 12 join battery."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import ExperimentResult, Stat, summarize
from repro.bench.suite import Flag, Smoke, Suite, mean
from repro.bench.tpcw_lab import TpcwLab
from repro.tpcw import JOIN_QUERIES

#: Planner modes swept by the QueryEngine experiment: mode -> whether
#: the cost-based planner picks access paths and join orders. "rule" is
#: what every anchored figure runs.
PLANNER_MODES = {"rule": False, "cost-based": True}

#: A broadcast-shaped equi-join on an unindexed attribute, with and
#: without a LIMIT (no ORDER BY): the build side is read whole either
#: way, but under the LIMIT the probe side stops at the row that yields
#: the 64th match.
JOIN_SQL = (
    "SELECT o.o_id, o2.o_id FROM Orders as o, Orders as o2 "
    "WHERE o.o_date = o2.o_date and o.o_id <> o2.o_id"
)
AD_HOC_JOINS = {"LIMIT-join": JOIN_SQL + " LIMIT 64", "full-join": JOIN_SQL}


def _canonical_rows(rows: list[dict]) -> list[tuple]:
    """Order-independent digest of a result set (multiset of rows)."""
    return sorted(tuple(sorted(r.items())) for r in rows)


def _query_cell(
    mode: str,
    num_customers: int,
    repetitions: int,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Populate one Baseline system under the given planner mode and run
    the Fig. 12 join battery plus the two ad-hoc joins. Everything
    recorded is virtual time, deterministic per mode."""
    say = progress or (lambda _msg: None)
    say(f"[query:{mode}] populating Baseline scale={num_customers}")
    lab = TpcwLab(
        num_customers=num_customers, repetitions=repetitions,
        cost_based_planner=PLANNER_MODES[mode],
    )
    system = lab.build_system("Baseline")
    lab.populate(system)

    times: dict[str, list[float]] = {}
    digests: dict[str, list[tuple]] = {}
    for rep in range(repetitions):
        for qid in JOIN_QUERIES:
            params = lab.generator.params_for_query(qid, rep)
            rows, ms = system.timed_id(qid, params)
            times.setdefault(qid, []).append(ms)
            if rep == 0:
                digests[qid] = _canonical_rows(rows)
    row_counts: dict[str, int] = {}
    for label, sql in AD_HOC_JOINS.items():
        for _ in range(max(repetitions, 3)):
            rows, ms = system.timed(sql)
            times.setdefault(label, []).append(ms)
        row_counts[label] = len(rows)
    return {"times": times, "digests": digests, "row_counts": row_counts}


def run_query(
    num_customers: int = 200,
    repetitions: int = 5,
    progress: Callable[[str], None] | None = None,
) -> list[ExperimentResult]:
    """Rule-based vs cost-based planner over the Fig. 12 join battery
    ("QueryEngine" — deliberately NOT an anchored experiment), plus the
    ad-hoc joins' row counts ("QueryJoinRows"). Both planners must
    return the same rows on every join query (asserted here). The
    emitted series are virtual-time or counts, so two runs with the
    same seed produce byte-identical JSON."""
    result = ExperimentResult(
        "QueryEngine", "Planners on the TPC-W join battery", "query"
    )
    result.x_values = list(JOIN_QUERIES) + list(AD_HOC_JOINS)
    rows = ExperimentResult(
        "QueryJoinRows", "Rows returned by the ad-hoc joins", "join",
        x_values=list(AD_HOC_JOINS), unit="rows",
    )
    cells = {
        mode: _query_cell(mode, num_customers, repetitions, progress)
        for mode in PLANNER_MODES
    }
    for qid in JOIN_QUERIES:
        if cells["rule"]["digests"][qid] != cells["cost-based"]["digests"][qid]:
            raise AssertionError(f"query: cost-based plans changed {qid}'s rows")
    for mode, cell in cells.items():
        series = result.add_series(mode)
        for x in result.x_values:
            series.set(x, summarize(cell["times"][x]))
        counts = rows.add_series(mode)
        for label, count in cell["row_counts"].items():
            counts.set(label, Stat(count, 0.0, 1))
    result.note(
        "row parity: the cost-based planner returns the rule planner's "
        "rows on every join query (asserted)"
    )
    result.note(
        "LIMIT-join / full-join = same-day-orders self-join with and "
        "without LIMIT 64 (no ORDER BY): both broadcast the full build "
        "side; the LIMIT stops the probe scan at the 64th match"
    )
    return [result, rows]


QUERY = Suite(
    "query",
    lambda opts, say: run_query(
        num_customers=opts.query_scale,
        repetitions=opts.query_reps,
        progress=say,
    ),
    flags=(
        Flag("query_scale", int, 200, "TPC-W customers"),
        Flag("query_reps", int, 5, "repetitions per query"),
    ),
    smoke=Smoke(
        # planner row parity on the join battery aborts the sweep itself
        flags="--query-scale 200 --query-reps 2",
        checks=(
            ("LIMIT-join did not return 64 rows",
             lambda e: mean(e, "QueryJoinRows", "rule", "LIMIT-join") == 64),
            ("the LIMIT did not make the join cheaper",
             lambda e: mean(e, "QueryEngine", "rule", "LIMIT-join")
             < mean(e, "QueryEngine", "rule", "full-join")),
        ),
    ),
)
