"""The paper's own evaluation: Fig. 10-14 and Tables I-III, one runner each."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    ExperimentResult,
    Stat,
    ratio_of_means,
    render_table,
    summarize,
)
from repro.bench.suite import Flag, IntList, Suite
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
def _on_shared_lab(runner):
    """Fig. 12/14 and Tables II/III are four views of one measurement:
    whichever of them runs first builds the ``TpcwLab`` (``--scale`` x
    ``--reps``) and parks it on the invocation namespace; the others
    reuse its cached ``measure_all``."""

    def run(opts, say):
        if getattr(opts, "lab", None) is None:
            opts.lab = TpcwLab(num_customers=opts.scale, repetitions=opts.reps)
        return [runner(opts.lab, progress=say)]

    return run


TABLE1 = Suite(
    "table1",
    lambda opts, say: "Table I — qualitative comparison\n" + run_table1(),
    timed=True,
)
FIG13 = Suite(
    "fig13",
    lambda opts, say: "Fig. 13 — evaluated configurations\n" + run_fig13(),
    timed=True,
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
    timed=True,
)
FIG11 = Suite(
    "fig11",
    lambda opts, say: [run_fig11(repetitions=opts.reps)],
    timed=True,
)
FIG12 = Suite("fig12", _on_shared_lab(run_fig12), timed=True)
FIG14 = Suite("fig14", _on_shared_lab(run_fig14), timed=True)
TABLE2 = Suite("table2", _on_shared_lab(run_table2), timed=True)
TABLE3 = Suite("table3", _on_shared_lab(run_table3), timed=True)
