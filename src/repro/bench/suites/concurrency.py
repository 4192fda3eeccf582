"""Throughput vs concurrent clients on the four transactional systems."""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    SEED,
    ExperimentResult,
    Grid,
    per_second,
    percentile_or_zero,
)
from repro.bench.suite import Flag, IntList, Smoke, Suite, mean
from repro.bench.tpcw_lab import TpcwLab
from repro.sim import DeterministicScheduler, derive_rng, run_transaction
from repro.tpcw.writes import WRITE_STATEMENTS

#: The four systems of the throughput-vs-client-count experiment.
CONCURRENCY_SYSTEMS = ("Synergy", "MVCC-A", "MVCC-UA", "VoltDB")
#: The hot sets a transaction draws its item, customer and cart from.
HOT_ITEMS = 4
HOT_CUSTOMERS = 4
HOT_CARTS = 2


def _concurrency_txns(
    generator, rng, txns_per_client: int
) -> list[list[tuple[str, str, tuple]]]:
    """Pre-generate one client's transaction mix: each op is
    ``(kind, ref, params)`` where kind 'q' references a workload query
    id (resolved to the system's possibly-rewritten statement) and 'w'
    carries literal write SQL. Parameters are drawn from small hot sets
    so clients genuinely collide (lock waits, MVCC conflicts)."""
    txns: list[list[tuple[str, str, tuple]]] = []
    for _ in range(txns_per_client):
        r = float(rng.random())
        i_id = int(rng.integers(1, HOT_ITEMS + 1))
        c_id = int(rng.integers(1, HOT_CUSTOMERS + 1))
        sc_id = int(rng.integers(1, HOT_CARTS + 1))
        if r < 0.35:
            # product page + admin restock on a hot item: in Synergy the
            # Item update locks the item's Author root row
            txns.append([
                ("q", "Q6", (i_id,)),
                ("w", WRITE_STATEMENTS["W9"],
                 (int(rng.integers(10, 100)), i_id)),
            ])
        elif r < 0.60:
            # customer profile update: Customer root lock / row conflict
            txns.append([
                ("w", WRITE_STATEMENTS["W13"],
                 (round(float(rng.uniform(0, 500)), 2),
                  round(float(rng.uniform(0, 5000)), 2),
                  round(float(rng.uniform(0, 7200)), 2), c_id)),
            ])
        elif r < 0.80:
            # cart touch: Shopping_cart sits outside every rooted tree
            # (no Synergy lock) but still conflicts under MVCC
            txns.append([
                ("w", WRITE_STATEMENTS["W11"],
                 (round(float(rng.uniform(0, 10 ** 6)), 2), sc_id)),
            ])
        else:
            # read-only: most recent order of a hot customer
            txns.append([("q", "Q2", (generator.customer_uname(c_id),))])
    return txns


def _scheduled_cell(name, clients, txns_per_client, num_customers):
    """Build one populated system, wire one session + pre-generated
    transaction program per client, and drive them through the
    deterministic scheduler. The per-client RNG label excludes both the
    client count and the system name, so client i runs the same
    transaction mix in every cell of the grid and the scaling curves
    compare like against like across systems."""
    lab = TpcwLab(
        num_customers=num_customers, repetitions=1, seed=SEED,
        jitter_fraction=0.0,
    )
    system = lab.build_system(name)
    lab.populate(system)
    scheduler = DeterministicScheduler(system.sim)
    for i in range(clients):
        rng = derive_rng(SEED, f"concurrency/client-{i}")
        txns = _concurrency_txns(lab.generator, rng, txns_per_client)
        statements = [
            [
                (system.statement(ref) if kind == "q" else ref, params)
                for kind, ref, params in txn
            ]
            for txn in txns
        ]
        session = system.open_session(f"client-{i}")

        def program(client, session=session, statements=statements):
            for txn in statements:
                yield from run_transaction(client, session, txn)

        scheduler.add_client(f"client-{i}", program)
    return scheduler.run()


def run_concurrency(
    client_counts: tuple[int, ...] = (1, 4, 16, 64),
    txns_per_client: int = 8,
    num_customers: int = 40,
    progress: Callable[[str], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Throughput vs number of concurrent clients, per system.

    Each (system, client count) cell builds a fresh populated system and
    drives N virtual clients through the deterministic cooperative
    scheduler (``repro.sim.scheduler``): closed loop, zero think time,
    ``txns_per_client`` transactions each, parameters drawn from small
    hot sets so clients collide. Reported per cell: committed
    transactions per virtual second, p50/p99 transaction response time
    (including lock waits, queue waits and abort retries), the abort
    rate, and the contention counters behind them: lock waits, serial
    waits, MVCC conflict aborts and transactions that gave up.
    Everything is derived from virtual time and seeded draws, so two
    runs with the same arguments are bit-identical.
    """
    say = progress or (lambda _m: None)
    grid = Grid(
        "clients", client_counts,
        throughput=(
            "ConcurrencyThroughput",
            "Committed transactions per second vs concurrent clients",
            "txn/s (virtual)",
        ),
        p50=(
            "ConcurrencyP50",
            "Median transaction response time vs concurrent clients",
            "ms",
        ),
        p99=(
            "ConcurrencyP99",
            "99th percentile transaction response time vs concurrent clients",
            "ms",
        ),
        abort_rate=(
            "ConcurrencyAbortRate",
            "Transaction abort rate vs concurrent clients",
            "fraction",
        ),
        lock_waits=("ConcurrencyLockWaits", "Lock waits vs concurrent clients",
                    "count"),
        serial_waits=("ConcurrencySerialWaits",
                      "Serial-execution waits vs concurrent clients", "count"),
        conflicts=("ConcurrencyConflictAborts",
                   "MVCC conflict aborts vs concurrent clients", "count"),
        gave_up=("ConcurrencyGaveUp",
                 "Transactions that gave up vs concurrent clients", "count"),
    )
    for name in CONCURRENCY_SYSTEMS:
        for n in client_counts:
            say(f"[concurrency] {name}: {n} clients x {txns_per_client} txns")
            report = _scheduled_cell(name, n, txns_per_client, num_customers)
            rts = report.response_times
            committed, aborted = report.committed, report.aborted
            attempts = committed + aborted
            grid.set("throughput", name, n,
                     per_second(committed, report.makespan_ms))
            grid.set("p50", name, n, percentile_or_zero(rts, 0.50), committed)
            grid.set("p99", name, n, percentile_or_zero(rts, 0.99), committed)
            grid.set("abort_rate", name, n,
                     aborted / attempts if attempts else 0.0, attempts)
            grid.set("lock_waits", name, n, report.lock_wait_count)
            grid.set("serial_waits", name, n, report.serial_wait_count)
            grid.set("conflicts", name, n, report.conflict_abort_count)
            grid.set("gave_up", name, n,
                     sum(c["failed"] for c in report.clients.values()))
    return grid.finish(
        f"{num_customers} customers, {txns_per_client} txns/client, hot sets: "
        f"{HOT_ITEMS} items / {HOT_CUSTOMERS} customers / {HOT_CARTS} carts, "
        f"seed {SEED}; closed loop, zero think time",
    )


def _none_gave_up(e) -> bool:
    """Every cell committed something and no transaction gave up."""
    return all(
        mean(e, "ConcurrencyThroughput", name, x) > 0
        and mean(e, "ConcurrencyGaveUp", name, x) == 0
        for name in CONCURRENCY_SYSTEMS
        for x in e["ConcurrencyGaveUp"]["x_values"]
    )


CONCURRENCY = Suite(
    "concurrency",
    lambda opts, say: list(run_concurrency(
        opts.clients,
        txns_per_client=opts.concurrency_txns,
        num_customers=opts.concurrency_scale,
        progress=say,
    ).values()),
    flags=(
        Flag("clients", IntList(1), (1, 4, 16, 64),
             "comma-separated client counts"),
        Flag("concurrency_txns", int, 8, "transactions per virtual client"),
        Flag("concurrency_scale", int, 40, "TPC-W customers"),
    ),
    smoke=Smoke(
        flags="--clients 1,8 --concurrency-txns 4 --concurrency-scale 20",
        checks=(
            ("no lock contention observed",
             lambda e: mean(e, "ConcurrencyLockWaits", "Synergy") > 0),
            ("no MVCC conflicts observed",
             lambda e: mean(e, "ConcurrencyConflictAborts", "MVCC-A") > 0),
            ("nothing committed, or a client gave up", _none_gave_up),
        ),
    ),
)
