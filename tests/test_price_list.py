"""A statement's physics as integers: every charge names a price from
``Simulation.prices`` and states an integer quantity of it.

``COUNTS`` is the count table of the TPC-W battery (Q1-Q11 plus the
writes, one rep, 10 customers) on each system: the summed quantity per
``(label, price)``, region-server ids folded to ``rs.*``. Quantities do
not depend on jitter, so the table holds at 0 and at 0.02; at 0 each
leaf's ms is exactly its price × quantity. A counter named like a leaf
counts exactly the quantity its leaves price.
"""

import re
from collections import Counter

import pytest

from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.sim.clock import Simulation
from tests.conftest import (
    build_company_system,
    build_mediator,
    build_tpcw_systems,
    run_four_client_schedule,
    tpcw_battery,
)

SERVER = re.compile(r"^rs\.[^.]+\.")

COUNTS = {
    "VoltDB": {
        ("voltdb.multipart", "voltdb_multipart_ms"): 8,
        ("voltdb.proc", "voltdb_proc_base_ms"): 21,
        ("voltdb.rows", "voltdb_row_ms"): 965,
    },
    "Synergy": {
        ("client.bytes", "network_ms_per_kb"): 229263,
        ("client.check_and_put", "check_and_put_ms"): 12,
        ("client.check_and_put", "rpc_base_ms"): 12,
        ("client.rpc", "rpc_base_ms"): 214,
        ("phoenix.bytes", "network_ms_per_kb"): 150000,
        ("phoenix.groupby", "HASH_CPU_MS_PER_ROW"): 19,
        ("phoenix.sort", "HASH_CPU_MS_PER_ROW"): 230,
        ("phoenix.statement", "phoenix_statement_ms"): 11,
        ("rs.*.rows_read", "read_row_ms"): 348,
        ("rs.*.rows_written", "write_row_ms"): 189,
        ("rs.*.seek", "seek_ms"): 93,
        ("rs.*.wal_append", "wal_append_ms"): 125,
        ("txlayer.dispatch", "txlayer_dispatch_ms"): 13,
        ("txlayer.phoenix", "phoenix_statement_ms"): 13,
        ("txlayer.view_statements", "phoenix_statement_ms"): 16,
        ("txlayer.wal", "wal_append_ms"): 13,
        ("view.mark", "mark_row_ms"): 90,
    },
    "MVCC-A": {
        ("client.bytes", "network_ms_per_kb"): 220604,
        ("client.rpc", "rpc_base_ms"): 166,
        ("mvcc.begin", "mvcc_begin_ms"): 13,
        ("mvcc.commit", "mvcc_commit_ms"): 13,
        ("mvcc.snapshot", "mvcc_read_snapshot_ms"): 11,
        ("phoenix.bytes", "network_ms_per_kb"): 150000,
        ("phoenix.groupby", "HASH_CPU_MS_PER_ROW"): 19,
        ("phoenix.sort", "HASH_CPU_MS_PER_ROW"): 230,
        ("phoenix.statement", "phoenix_statement_ms"): 24,
        ("phoenix.version_checks", "mvcc_version_check_ms"): 3256,
        ("rs.*.rows_read", "read_row_ms"): 327,
        ("rs.*.rows_written", "write_row_ms"): 77,
        ("rs.*.seek", "seek_ms"): 70,
        ("rs.*.wal_append", "wal_append_ms"): 77,
    },
    "MVCC-UA": {
        ("client.bytes", "network_ms_per_kb"): 132832,
        ("client.rpc", "rpc_base_ms"): 88,
        ("mvcc.begin", "mvcc_begin_ms"): 13,
        ("mvcc.commit", "mvcc_commit_ms"): 13,
        ("mvcc.snapshot", "mvcc_read_snapshot_ms"): 11,
        ("phoenix.bytes", "network_ms_per_kb"): 150000,
        ("phoenix.groupby", "HASH_CPU_MS_PER_ROW"): 19,
        ("phoenix.sort", "HASH_CPU_MS_PER_ROW"): 230,
        ("phoenix.statement", "phoenix_statement_ms"): 24,
        ("phoenix.version_checks", "mvcc_version_check_ms"): 2806,
        ("rs.*.rows_read", "read_row_ms"): 293,
        ("rs.*.rows_written", "write_row_ms"): 21,
        ("rs.*.seek", "seek_ms"): 52,
        ("rs.*.wal_append", "wal_append_ms"): 21,
    },
    "Baseline": {
        ("client.bytes", "network_ms_per_kb"): 136222,
        ("client.rpc", "rpc_base_ms"): 99,
        ("mvcc.begin", "mvcc_begin_ms"): 13,
        ("mvcc.commit", "mvcc_commit_ms"): 13,
        ("mvcc.snapshot", "mvcc_read_snapshot_ms"): 11,
        ("phoenix.bytes", "network_ms_per_kb"): 150000,
        ("phoenix.groupby", "HASH_CPU_MS_PER_ROW"): 19,
        ("phoenix.sort", "HASH_CPU_MS_PER_ROW"): 230,
        ("phoenix.statement", "phoenix_statement_ms"): 24,
        ("phoenix.version_checks", "mvcc_version_check_ms"): 2871,
        ("rs.*.rows_read", "read_row_ms"): 301,
        ("rs.*.rows_written", "write_row_ms"): 19,
        ("rs.*.seek", "seek_ms"): 60,
        ("rs.*.wal_append", "wal_append_ms"): 19,
    },
}


def leaf_terms(leaf) -> list[tuple[str, int]]:
    """The ``(price, quantity)`` terms of one trace leaf: one for a
    plain charge, several for a compound one, none for a wait."""
    _what, price, quantity, _ms = leaf
    if price is None:
        return []
    if isinstance(price, str):
        return [(price, quantity)]
    return list(zip(price, quantity))


def traced_battery(name: str, jitter: float) -> tuple[Simulation, list[tuple]]:
    lab = TpcwLab(num_customers=10, repetitions=1, jitter_fraction=jitter)
    system = lab.build_system(name)
    lab.populate(system)
    system.sim.trace = trace = []
    for sql, params in tpcw_battery(lab, system):
        system.timed(sql, params)
    return system.sim, trace


def count_table(leaves: list[tuple], fold: bool = True) -> dict[tuple[str, str], int]:
    """Summed quantity per ``(label, price)``; ``fold`` drops server ids."""
    table = Counter()
    for leaf in leaves:
        label = SERVER.sub("rs.*.", leaf[0]) if fold else leaf[0]
        for price, quantity in leaf_terms(leaf):
            assert type(quantity) is int, leaf
            table[label, price] += quantity
    return dict(table)


@pytest.mark.parametrize("jitter", [0.0, 0.02])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_tpcw_battery_count_table(name, jitter):
    sim, leaves = traced_battery(name, jitter)
    assert count_table(leaves) == COUNTS[name]
    if jitter:
        return
    for leaf in leaves:
        terms = leaf_terms(leaf)
        assert terms, leaf  # the battery waits for nothing
        ms = 0.0
        for price, quantity in terms:
            ms += sim.prices[price] * quantity
        assert leaf[3] == ms, leaf


EFFECTS = (
    ".rpc", ".bytes", ".seek", ".rows_read", ".rows_written",
    ".wal_append", ".check_and_put", ".version_checks",
)
"""The suffixes of ``LatencyCharger``'s counters."""


def check_counters_price_their_leaves(sims) -> set[str]:
    """For every counter some leaf is named after, each price under
    that label sums to the counter's delta over the traced run; returns
    those labels, server ids folded."""
    checked = set()
    for sim, before in sims:
        deltas = {
            name: value - before.get(name, 0)
            for name, value in sim.metrics.counters().items()
        }
        table = count_table(sim.trace, fold=False)
        priced = {label for label, _ in table} & set(deltas)
        for (label, price), quantity in table.items():
            if label in priced:
                assert quantity == deltas[label], (label, price)
        for name, delta in deltas.items():
            if name not in priced and name.endswith(EFFECTS):
                assert delta == 0, name
        checked |= {SERVER.sub("rs.*.", label) for label in priced}
    assert {
        "client.rpc", "client.bytes", "rs.*.seek", "rs.*.rows_read",
        "rs.*.rows_written", "rs.*.wal_append",
    } <= checked
    return checked


def attach(sims) -> list[tuple[Simulation, dict]]:
    for sim in sims:
        sim.trace = []
    return [(sim, sim.metrics.counters()) for sim in sims]


@pytest.mark.parametrize("name", ["Synergy", "MVCC-A"])
def test_counters_are_the_count_vector_of_a_scheduled_run(name):
    system = build_company_system(name)
    per_client = [
        [
            [
                ("SELECT EName FROM Employee WHERE EID = ?", (eid,)),
                ("UPDATE Employee SET EName = ? WHERE EID = ?", (f"c{c}-{t}", eid)),
            ]
            for t, eid in enumerate((2, 3, 2))
        ]
        for c in range(4)
    ]
    sims = attach([system.sim])
    report = run_four_client_schedule(system, per_client)
    assert report.committed > 0
    checked = check_counters_price_their_leaves(sims)
    # MVCC-A checks every cell it reads against the transaction's versions
    assert ("phoenix.version_checks" in checked) is (name == "MVCC-A")


def test_counters_are_the_count_vector_of_a_split_federation():
    lab = TpcwLab(num_customers=10, repetitions=1)
    backends = build_tpcw_systems(lab, ("Synergy", "Baseline", "VoltDB"))
    mediator = build_mediator(backends, lab.schema, lab.workload, mode="split")
    sims = attach([mediator.sim, *(s.sim for s in backends.values())])
    for sql, params in tpcw_battery(lab, mediator):
        mediator.timed(sql, params)
    check_counters_price_their_leaves(sims)
