"""Legacy vs streaming execution engine over the Fig. 12 join battery."""

from __future__ import annotations

import time
from typing import Callable

from repro.bench.harness import ExperimentResult, summarize
from repro.bench.suite import Flag, Smoke, Suite
from repro.bench.tpcw_lab import TpcwLab
from repro.tpcw import JOIN_QUERIES

#: Engine modes swept by the QueryEngine experiment. "legacy" is the
#: anchored materializing executor; "streaming" runs the *same* plans
#: through the pull-based operator pipeline; "streaming+cbo" additionally
#: lets the cost-based planner pick access paths and join orders.
QUERY_ENGINE_MODES = (
    ("legacy", "legacy", False),
    ("streaming", "streaming", False),
    ("streaming+cbo", "streaming", True),
)

#: The Fig. 12 join path that separates the two hash-join algorithms: a
#: broadcast-shaped equi-join on an unindexed attribute under a LIMIT
#: without ORDER BY. The legacy broadcast join must finish the whole
#: build-side scan before its first output row; the streaming symmetric
#: hash join emits matches while both scans interleave, so the LIMIT
#: closes the operator tree after a fraction of either scan.
LIMITED_JOIN_ID = "LIMIT-join"
LIMITED_JOIN_SQL = (
    "SELECT o.o_id, o2.o_id FROM Orders as o, Orders as o2 "
    "WHERE o.o_date = o2.o_date and o.o_id <> o2.o_id LIMIT 64"
)


def _canonical_rows(rows: list[dict]) -> list[tuple]:
    """Order-independent digest of a result set (multiset of rows)."""
    return sorted(tuple(sorted(r.items())) for r in rows)


def _query_cell(
    mode: str,
    engine: str,
    cost_based: bool,
    num_customers: int,
    repetitions: int,
    seed: int,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Populate one Baseline system under the given engine mode and run
    the Fig. 12 join battery plus the limited broadcast join. Virtual
    times are deterministic per mode; wall-clock numbers are best-of-rep
    and never enter the JSON trajectory."""
    say = progress or (lambda _msg: None)
    say(f"[query:{mode}] populating Baseline scale={num_customers}")
    lab = TpcwLab(
        num_customers=num_customers, repetitions=repetitions, seed=seed,
        query_engine=engine, cost_based_planner=cost_based,
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

    limited_times: list[float] = []
    limited_wall_s = float("inf")
    limited_rows = 0
    for _ in range(max(repetitions, 3)):
        sw = system.sim.stopwatch()
        t0 = time.perf_counter()
        rows = system.conn.execute_query(LIMITED_JOIN_SQL)
        limited_wall_s = min(limited_wall_s, time.perf_counter() - t0)
        limited_times.append(sw.stop())
        limited_rows = len(rows)
    say(
        f"[query:{mode}] {LIMITED_JOIN_ID}: {limited_rows} rows, "
        f"best wall-clock {limited_wall_s * 1000:.2f}ms"
    )
    return {
        "mode": mode,
        "times": times,
        "digests": digests,
        "limited_times": limited_times,
        "limited_rows": limited_rows,
        "limited_wall_s": limited_wall_s,
    }


def _query_cells(num_customers, repetitions, seed, progress=None) -> dict:
    """One :func:`_query_cell` per engine mode, keyed by mode."""
    return {
        mode: _query_cell(
            mode, engine, cost_based, num_customers, repetitions, seed,
            progress,
        )
        for mode, engine, cost_based in QUERY_ENGINE_MODES
    }


def _rows_matching_legacy(cells: dict, mode: str) -> int:
    """Join queries on which ``mode`` returned exactly legacy's rows."""
    return sum(
        cells[mode]["digests"][qid] == cells["legacy"]["digests"][qid]
        for qid in JOIN_QUERIES
    )


def run_query(
    num_customers: int = 200,
    repetitions: int = 5,
    seed: int = 171001792,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Legacy vs streaming execution engine over the Fig. 12 join
    battery ("QueryEngine" — deliberately NOT an anchored experiment;
    every anchored figure runs the legacy engine).

    The emitted series are virtual-time only, so two runs with the same
    seed produce byte-identical JSON. The wall-clock race on the
    limited broadcast join (symmetric hash join vs blocking broadcast
    join) is reported via ``progress`` only, never recorded in the
    trajectory."""
    say = progress or (lambda _msg: None)
    result = ExperimentResult(
        "QueryEngine", "Execution engines on the TPC-W join battery", "query"
    )
    result.x_values = list(JOIN_QUERIES) + [LIMITED_JOIN_ID]
    cells = _query_cells(num_customers, repetitions, seed, progress)
    for mode, cell in cells.items():
        series = result.add_series(mode)
        for qid in JOIN_QUERIES:
            series.set(qid, summarize(cell["times"][qid]))
        series.set(LIMITED_JOIN_ID, summarize(cell["limited_times"]))
    for mode in cells:
        if mode != "legacy":
            result.note(
                f"{mode}: rows identical to legacy on "
                f"{_rows_matching_legacy(cells, mode)}/{len(JOIN_QUERIES)} "
                "join queries"
            )
    result.note(
        f"{LIMITED_JOIN_ID} = same-day-orders self-join, LIMIT without "
        "ORDER BY: legacy broadcasts the full build side before row one; "
        "the symmetric join stops both scans early (wall-clock race on "
        "stderr; virtual time reflects rows actually scanned)"
    )
    for mode, cell in cells.items():
        say(
            f"[query] {mode}: {LIMITED_JOIN_ID} best wall-clock "
            f"{cell['limited_wall_s'] * 1000:.2f}ms"
        )
    return result


def query_smoke(
    num_customers: int = 200,
    repetitions: int = 2,
    seed: int = 171001792,
) -> dict:
    """CI smoke: engine row parity on the join battery plus the
    acceptance gate — the streaming symmetric hash join must beat the
    legacy broadcast join on the limited join path in best *virtual*
    ms (deterministic per seed, and the quantity the model is about).
    Both best host wall-clock numbers are returned as information
    only: a single-shot host race is noise on a shared runner, and
    host-time claims belong to ``perfbench``."""
    cells = _query_cells(num_customers, repetitions, seed)
    legacy = cells["legacy"]
    out: dict = {"queries": len(JOIN_QUERIES)}
    for mode in ("streaming", "streaming+cbo"):
        out[f"rows_match[{mode}]"] = _rows_matching_legacy(cells, mode)
    out["limited_rows_legacy"] = legacy["limited_rows"]
    out["limited_rows_streaming"] = cells["streaming"]["limited_rows"]
    out["legacy_limited_virtual_ms"] = min(legacy["limited_times"])
    out["streaming_limited_virtual_ms"] = min(
        cells["streaming"]["limited_times"]
    )
    out["streaming_beats_legacy"] = (
        out["streaming_limited_virtual_ms"] < out["legacy_limited_virtual_ms"]
    )
    out["legacy_limited_wall_ms"] = round(legacy["limited_wall_s"] * 1000, 3)
    out["streaming_limited_wall_ms"] = round(
        cells["streaming"]["limited_wall_s"] * 1000, 3
    )
    return out


QUERY = Suite(
    "query",
    lambda opts, say: [run_query(
        num_customers=opts.query_scale,
        repetitions=opts.query_reps,
        progress=say,
    )],
    flags=(
        Flag("query_scale", int, 200, "TPC-W customers"),
        Flag("query_reps", int, 5, "repetitions per query"),
    ),
    smoke=Smoke(
        # the query gate: all three engine modes return identical rows
        # on the full TPC-W join battery, and the non-blocking symmetric
        # hash join beats the legacy blocking broadcast join on the
        # limited join path
        fn=query_smoke,
        checks=(
            ("streaming rows diverged from legacy",
             lambda o: o["rows_match[streaming]"] == o["queries"]),
            ("cost-based plans changed some query's rows",
             lambda o: o["rows_match[streaming+cbo]"] == o["queries"]),
            ("legacy LIMIT-join did not return 64 rows",
             lambda o: o["limited_rows_legacy"] == 64),
            ("streaming LIMIT-join did not return 64 rows",
             lambda o: o["limited_rows_streaming"] == 64),
            ("symmetric hash join did not beat the broadcast join",
             lambda o: o["streaming_beats_legacy"]),
        ),
        flags="--query-scale 200 --query-reps 3",
    ),
)
