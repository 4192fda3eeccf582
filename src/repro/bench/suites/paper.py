"""The paper's own evaluation: Fig. 10-14 and Tables I-III, one runner each."""

from __future__ import annotations

import math
from typing import Callable

from repro.bench.harness import (
    ExperimentResult,
    Stat,
    ratio_of_means,
    render_table,
    summarize,
)
from repro.bench.suite import Check, Flag, IntList, Smoke, Suite
from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.hbase import HBaseClient, HBaseCluster
from repro.sim import Simulation
from repro.synergy.locks import LockBatch
from repro.systems import (
    BaselineSystem,
    MvccASystem,
    MvccUASystem,
    SynergySystem,
    VoltDBEvaluatedSystem,
)
from repro.tpcw.microbench import (
    MICRO_Q1_BASE,
    MICRO_Q1_VIEW,
    MICRO_Q2_BASE,
    MICRO_Q2_VIEW,
    MICRO_ROOTS,
    MicrobenchDataGenerator,
    micro_schema,
    micro_workload,
)
from repro.tpcw import JOIN_QUERIES, WRITE_STATEMENTS
from repro.tpcw.queries import VOLTDB_UNSUPPORTED


# --------------------------------------------------------------------- Fig. 10
def run_fig10(
    scales: tuple[int, ...] = (50, 500, 5000),
    repetitions: int = 10,
    seed: int = 20170904,
    jitter_fraction: float = 0.02,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Micro-benchmark: view scan vs join algorithm (Fig. 10a/b).

    Paper anchors (at 50k customers): view scan 6x faster for Q1 and
    11.7x faster for Q2. The paper scales 500..50k; the default here is
    one decade lower (pure-Python store) — pass ``scales=(500, 5000,
    50000)`` to match the paper exactly.
    """
    say = progress or (lambda _m: None)
    results = {
        "Q1": ExperimentResult(
            "Fig10a", "Micro-benchmark Q1 (Customer x Orders)",
            "customers",
        ),
        "Q2": ExperimentResult(
            "Fig10b", "Micro-benchmark Q2 (Customer x Orders x Order_line)",
            "customers",
        ),
    }
    for r in results.values():
        r.x_values = list(scales)
        r.add_series("View Scan")
        r.add_series("Join Algorithm")

    for scale in scales:
        say(f"[fig10] populating micro store at {scale} customers")
        system = SynergySystem(
            micro_schema(),
            micro_workload(),
            MICRO_ROOTS,
            sim=Simulation(seed=seed, jitter_fraction=jitter_fraction),
        )
        gen = MicrobenchDataGenerator(scale, seed=seed)
        for relation, row in gen.all_rows():
            system.load_row(relation, row)
        system.finish_load()
        for query_id, base_sql, view_sql in (
            ("Q1", MICRO_Q1_BASE, MICRO_Q1_VIEW),
            ("Q2", MICRO_Q2_BASE, MICRO_Q2_VIEW),
        ):
            base_samples, view_samples = [], []
            for _ in range(repetitions):
                _, ms = system.timed(view_sql)
                view_samples.append(ms)
                _, ms = system.timed(base_sql)
                base_samples.append(ms)
            results[query_id].series[0].set(scale, summarize(view_samples))
            results[query_id].series[1].set(scale, summarize(base_samples))
        del system
    for query_id, r in results.items():
        top = scales[-1]
        join = r.get("Join Algorithm", top)
        view = r.get("View Scan", top)
        if join and view and view.mean:
            r.note(
                f"at {top} customers the view scan is "
                f"{join.mean / view.mean:.1f}x faster than the join "
                f"(paper: {'6.0' if query_id == 'Q1' else '11.7'}x at 50k)"
            )
    return results


# --------------------------------------------------------------------- Fig. 11
def run_fig11(
    lock_counts: tuple[int, ...] = (10, 100, 1000),
    repetitions: int = 10,
    seed: int = 20170904,
    jitter_fraction: float = 0.02,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> ExperimentResult:
    """Two-phase row-locking overhead (Fig. 11).

    Paper anchors: 342 / 571 / 2182 ms for 10 / 100 / 1000 locks."""
    result = ExperimentResult(
        "Fig11", "Row-locking overhead vs number of locks", "locks"
    )
    result.x_values = list(lock_counts)
    series = result.add_series("Overhead")
    for n in lock_counts:
        samples = []
        for rep in range(repetitions):
            sim = Simulation(
                cost=cost, seed=seed + rep, jitter_fraction=jitter_fraction
            )
            client = HBaseClient(HBaseCluster(sim))
            batch = LockBatch(client)
            samples.append(batch.run(n))
        series.set(n, summarize(samples))
    result.note("paper: 342 / 571 / 2182 ms for 10 / 100 / 1000 locks")
    return result


# ------------------------------------------------------------- Fig. 12 / Fig. 14
def _five_systems(result, statement_ids, measurements, times_of) -> None:
    """One series per evaluated system over ``statement_ids``; a
    statement a system cannot run renders as X."""
    result.x_values = list(statement_ids)
    for name in SYSTEM_NAMES:
        series = result.add_series(name)
        m = measurements[name]
        for sid in statement_ids:
            series.set(
                sid,
                None if sid in m.unsupported else summarize(times_of(m)[sid]),
            )


def run_fig12(lab: TpcwLab, progress=None) -> ExperimentResult:
    """TPC-W join queries across the five systems (Fig. 12)."""
    result = ExperimentResult(
        "Fig12", "TPC-W join query response times", "query"
    )
    _five_systems(
        result, JOIN_QUERIES, lab.measure_all(progress), lambda m: m.query_times
    )
    for other, paper in (("MVCC-UA", 19.5), ("MVCC-A", 6.2), ("Baseline", 28.2)):
        factor = ratio_of_means(result, other, "Synergy")
        result.note(
            f"joins in Synergy are {factor:.1f}x faster than {other} "
            f"on average (paper: {paper}x)"
        )
    slowdown = ratio_of_means(result, "Synergy", "VoltDB")
    result.note(
        f"Synergy is {slowdown:.1f}x slower than VoltDB on the joins "
        "VoltDB supports (paper: 11x)"
    )
    result.note("X = unsupported under every VoltDB partitioning scheme")
    return result


def run_fig14(lab: TpcwLab, progress=None) -> ExperimentResult:
    """TPC-W write statements across the five systems (Fig. 14)."""
    result = ExperimentResult(
        "Fig14", "TPC-W write statement response times", "write"
    )
    _five_systems(
        result, WRITE_STATEMENTS, lab.measure_all(progress),
        lambda m: m.write_times,
    )
    for other, paper in (("MVCC-UA", 9.0), ("MVCC-A", 8.6), ("Baseline", 8.6)):
        factor = ratio_of_means(result, other, "Synergy")
        result.note(
            f"writes in Synergy are {factor:.1f}x less expensive than "
            f"{other} on average (paper: {paper}x)"
        )
    factor = ratio_of_means(result, "Synergy", "VoltDB")
    result.note(
        f"Synergy writes are {factor:.1f}x more expensive than VoltDB "
        "(paper: 9.4x)"
    )
    return result


# --------------------------------------------------------------------- Fig. 13
def run_fig13() -> str:
    """The mechanism matrix (Fig. 13) — configuration, not measurement."""
    rows = []
    for cls in (
        VoltDBEvaluatedSystem,
        SynergySystem,
        MvccASystem,
        MvccUASystem,
        BaselineSystem,
    ):
        d = cls.description
        rows.append([d.name, d.mv_selection, d.concurrency_control])
    return render_table(
        ["System", "Materialized Views Selection", "Concurrency Control"], rows
    )


# --------------------------------------------------------------------- Table I
def run_table1() -> str:
    """Qualitative comparison (Table I) — documented properties."""
    rows = [
        [
            "NoSQL (HBase)", "Linear scale out", "SQL",
            "ACID, snapshot isolation (Tephra)", "higher than NewSQL",
        ],
        [
            "NewSQL (VoltDB)", "Linear scale out",
            "SQL, joins limited to partition keys",
            "ACID, serializable", "lowest",
        ],
        [
            "Synergy", "Linear scale out",
            "SQL, MVs limited to key/foreign-key joins",
            "ACID, read committed", "highest",
        ],
    ]
    return render_table(
        [
            "System", "Scalability", "Query Expressiveness",
            "Transaction Support", "Disk Utilization",
        ],
        rows,
    )


# --------------------------------------------------------------------- Table II
def run_table2(lab: TpcwLab, progress=None) -> ExperimentResult:
    """Sum of RT of all statements (Table II). VoltDB excluded — it does
    not support all benchmark queries."""
    measurements = lab.measure_all(progress)
    result = ExperimentResult(
        "TableII",
        "Sum of response times of all TPC-W statements",
        "system",
        unit="s",
    )
    names = ["Synergy", "MVCC-A", "MVCC-UA", "Baseline"]
    result.x_values = names
    series = result.add_series("Total RT (s)")
    for name in names:
        m = measurements[name]
        totals_s = [t / 1000.0 for t in m.total_times]
        series.set(name, summarize(totals_s))
    base = series.points["Baseline"]
    syn = series.points["Synergy"]
    if base and syn and base.mean:
        result.note(
            f"Synergy improves on Baseline by "
            f"{100 * (1 - syn.mean / base.mean):.1f}% (paper: 80.5%)"
        )
    for other, paper in (("MVCC-UA", 74.5), ("MVCC-A", 56.3)):
        o = series.points[other]
        if o and syn and o.mean:
            result.note(
                f"Synergy improves on {other} by "
                f"{100 * (1 - syn.mean / o.mean):.1f}% (paper: {paper}%)"
            )
    result.note("paper (1M customers): 33.7 / 77.4 / 132.4 / 173.4 s")
    return result


# --------------------------------------------------------------------- Table III
def run_table3(lab: TpcwLab, progress=None) -> ExperimentResult:
    """Database sizes across systems (Table III)."""
    measurements = lab.measure_all(progress)
    result = ExperimentResult(
        "TableIII", "Database sizes across evaluated systems", "system",
        unit="MB",
    )
    names = ["VoltDB", "Synergy", "MVCC-A", "MVCC-UA", "Baseline"]
    result.x_values = names
    series = result.add_series("DB size (MB)")
    for name in names:
        mb = measurements[name].db_size_bytes / 1e6
        series.set(name, Stat(mb, 0.0, 1))
    baseline = measurements["Baseline"].db_size_bytes
    for name in names:
        ratio = measurements[name].db_size_bytes / baseline
        result.note(f"{name}: {ratio:.2f}x Baseline")
    result.note(
        "paper (1M customers, GB): 31.8 / 92 / 91.8 / 45.73 / 43.8 "
        "=> ratios vs Baseline: 0.73 / 2.10 / 2.10 / 1.04 / 1.00"
    )
    return result


# ---------------------------------------------------------------------- suites
def _tpcw(opts, say) -> list[ExperimentResult]:
    """Fig. 12, Fig. 14 and Tables II/III: four views of one
    ``TpcwLab.measure_all`` at ``--scale`` customers x ``--reps``."""
    lab = TpcwLab(num_customers=opts.scale, repetitions=opts.reps)
    return [run(lab, say) for run in (run_fig12, run_fig14, run_table2, run_table3)]


def _mean(e, experiment_id: str, label: str, x) -> float:
    """One cell's mean in an emitted ``experiments`` block ``e``; NaN for
    an X, so every comparison a check makes with it fails."""
    point = e[experiment_id]["series"][label][str(x)]
    return math.nan if point is None else point["mean"]


def _below(message: str, low: tuple, high: tuple, factor: float = 1.0) -> Check:
    """``low < factor * high``, each an ``(experiment, series, x)`` cell."""
    return message, lambda e: _mean(e, *low) < factor * _mean(e, *high)


def _cell_checks(experiment_id: str, statement_ids) -> tuple[Check, ...]:
    """One check per (system, statement) cell: X exactly where VoltDB
    cannot run the statement, measured everywhere else."""

    def check(name: str, sid: str) -> Check:
        if name == "VoltDB" and sid in VOLTDB_UNSUPPORTED:
            return (f"{experiment_id} {sid} on VoltDB is not X",
                    lambda e: math.isnan(_mean(e, experiment_id, name, sid)))
        return (f"{experiment_id} {sid} on {name} is not measured",
                lambda e: _mean(e, experiment_id, name, sid) > 0)

    return tuple(check(name, sid) for sid in statement_ids for name in SYSTEM_NAMES)


def _view_scan_wins(experiment_id: str) -> Check:
    return (
        f"{experiment_id}: the view scan is not faster than the join at every scale",
        lambda e: all(
            _mean(e, experiment_id, "View Scan", x)
            < _mean(e, experiment_id, "Join Algorithm", x)
            for x in e[experiment_id]["x_values"]
        ),
    )


def _locks(e) -> tuple[float, float, float]:
    return tuple(_mean(e, "Fig11", "Overhead", n) for n in (10, 100, 1000))


def _size(e, name: str) -> float:
    return _mean(e, "TableIII", "DB size (MB)", name)


#: a Baseline write pays at least Tephra's begin + commit round trips
_TEPHRA_MS = DEFAULT_COST_MODEL.mvcc_begin_ms + DEFAULT_COST_MODEL.mvcc_commit_ms

TABLE1 = Suite(
    "table1",
    lambda opts, say: "Table I — qualitative comparison\n" + run_table1(),
)
FIG13 = Suite(
    "fig13",
    lambda opts, say: "Fig. 13 — evaluated configurations\n" + run_fig13(),
)
FIG10 = Suite(
    "fig10",
    lambda opts, say: list(
        run_fig10(opts.micro_scales, opts.reps, progress=say).values()
    ),
    flags=(
        Flag("micro_scales", IntList(1), (50, 500, 5000),
             "comma-separated micro-benchmark scales"),
    ),
    smoke=Smoke(
        flags="--micro-scales 20,50 --reps 2",
        sweep_checks=(_view_scan_wins("Fig10a"), _view_scan_wins("Fig10b")),
    ),
)
FIG11 = Suite(
    "fig11",
    lambda opts, say: [run_fig11(repetitions=opts.reps)],
    smoke=Smoke(
        flags="--reps 2",
        sweep_checks=(
            ("Fig11: overhead does not rise 10 < 100 < 1000 locks",
             lambda e: _locks(e)[0] < _locks(e)[1] < _locks(e)[2]),
            # fixed client setup dominates the small counts ...
            ("Fig11: 10 -> 100 locks grows 10x or more",
             lambda e: _locks(e)[1] / _locks(e)[0] < 10),
            # ... then the per-lock round trips take over
            ("Fig11: 100 -> 1000 locks grows no faster than 10 -> 100",
             lambda e: _locks(e)[2] / _locks(e)[1] > _locks(e)[1] / _locks(e)[0]),
        ),
    ),
)
TPCW = Suite(
    "tpcw",
    _tpcw,
    smoke=Smoke(
        flags="--scale 20 --reps 2",
        sweep_checks=(
            *_cell_checks("Fig12", JOIN_QUERIES),
            # paper: Synergy's joins 28.2x faster than Baseline on average
            *(
                (f"Fig12 {q}: Synergy above 1.05x Baseline",
                 lambda e, q=q: _mean(e, "Fig12", "Synergy", q)
                 <= 1.05 * _mean(e, "Fig12", "Baseline", q))
                for q in JOIN_QUERIES
            ),
            _below("Fig12 Q4: the view-backed query does not beat Baseline's join",
                   ("Fig12", "Synergy", "Q4"), ("Fig12", "Baseline", "Q4")),
            *_cell_checks("Fig14", WRITE_STATEMENTS),
            # one hierarchical lock vs Tephra's begin/commit round trips
            *(
                (f"Fig14 W1: Synergy not 3x cheaper than {other}",
                 lambda e, other=other: 3 * _mean(e, "Fig14", "Synergy", "W1")
                 < _mean(e, "Fig14", other, "W1"))
                for other in ("Baseline", "MVCC-A")
            ),
            # Shopping_cart is in no view and takes no lock; W3 maintains
            # two views: the per-write price of materialization
            _below("Fig14: Synergy W6 not cheaper than W13",
                   ("Fig14", "Synergy", "W6"), ("Fig14", "Synergy", "W13")),
            _below("Fig14: Synergy W3 not dearer than W6",
                   ("Fig14", "Synergy", "W6"), ("Fig14", "Synergy", "W3")),
            *(
                _below(f"Fig14 {w}: VoltDB not cheaper than Synergy",
                       ("Fig14", "VoltDB", w), ("Fig14", "Synergy", w))
                for w in WRITE_STATEMENTS
            ),
            *(
                (f"Fig14 {w}: Baseline below 0.8x Tephra's begin + commit",
                 lambda e, w=w: _mean(e, "Fig14", "Baseline", w) > 0.8 * _TEPHRA_MS)
                for w in WRITE_STATEMENTS
            ),
            *(
                _below(f"TableII: Synergy not below {other}",
                       ("TableII", "Total RT (s)", "Synergy"),
                       ("TableII", "Total RT (s)", other))
                for other in ("MVCC-A", "MVCC-UA", "Baseline")
            ),
            # paper: 80.5 %
            _below("TableII: Synergy beats Baseline by 50 % or less",
                   ("TableII", "Total RT (s)", "Synergy"),
                   ("TableII", "Total RT (s)", "Baseline"), 0.5),
            *(
                _below(f"TableIII: {small} not smaller than {large}",
                       ("TableIII", "DB size (MB)", small),
                       ("TableIII", "DB size (MB)", large))
                for small, large in (
                    ("VoltDB", "Baseline"),
                    ("Baseline", "MVCC-UA"),
                    ("MVCC-UA", "MVCC-A"),
                    ("MVCC-UA", "Synergy"),
                )
            ),
            ("TableIII: Synergy and MVCC-A differ by 5 % or more",
             lambda e: abs(_size(e, "Synergy") - _size(e, "MVCC-A"))
             / _size(e, "Synergy") < 0.05),
        ),
    ),
)
