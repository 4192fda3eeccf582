"""The attachable statement trace (``Simulation.trace``).

With a list attached, every move of the virtual clock appends one
``(label, price, quantity, ms)`` leaf. So a statement's leaves, replayed onto its start
time, give its ``Stopwatch`` latency bit for bit. Attaching the list
changes nothing a run measures: rows and virtual ms equal those of an
untraced twin, jittered or not, because a traced charge makes the same
RNG draws as an untraced one.
"""

import random

import pytest

from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from tests.conftest import build_company_system, tpcw_battery
from tests.reference.generators import generate_query

REPS = 2
GENERATED = 60


def run(system, statements, traced: bool) -> list[tuple]:
    """``(rows, ms, start_ms, leaves)`` per statement; ``leaves`` is
    None when no trace is attached."""
    sim = system.sim
    sim.trace = [] if traced else None
    out = []
    for sql, params in statements:
        start_ms, first = sim.clock.now_ms, len(sim.trace or ())
        rows, ms = system.timed(sql, params)
        leaves = sim.trace[first:] if traced else None
        out.append((rows, ms, start_ms, leaves))
    return out


def replay(start_ms: float, leaves: list[tuple]) -> float:
    now_ms = start_ms
    for *_, ms in leaves:
        now_ms += ms
    return now_ms - start_ms


def check_leaves(traced: list[tuple], untraced: list[tuple]) -> None:
    assert len(traced) == len(untraced)
    for i, ((rows, ms, start_ms, leaves), (twin_rows, twin_ms, _, _)) in enumerate(
        zip(traced, untraced)
    ):
        assert leaves, i
        assert all(isinstance(label, str) for label, *_ in leaves), i
        assert replay(start_ms, leaves) == ms, i
        assert rows == twin_rows, i
        assert repr(ms) == repr(twin_ms), i


@pytest.mark.parametrize("jitter", [0.0, 0.02])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_tpcw_battery_leaves_replay_to_each_latency(name, jitter):
    lab = TpcwLab(num_customers=10, repetitions=REPS, jitter_fraction=jitter)
    runs = []
    for traced in (True, True, False):
        system = lab.build_system(name)
        lab.populate(system)
        runs.append(run(system, tpcw_battery(lab, system, REPS), traced))
    first, second, untraced = runs
    check_leaves(first, untraced)
    # two fresh builds trace the same leaves
    assert [leaves for *_, leaves in first] == [leaves for *_, leaves in second]


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_generated_company_queries_leaves_replay_to_each_latency(name):
    rng = random.Random(171001792)
    specs = [generate_query(rng) for _ in range(GENERATED)]
    statements = [(spec.sql, spec.params) for spec in specs]
    traced = run(build_company_system(name), statements, traced=True)
    untraced = run(build_company_system(name), statements, traced=False)
    check_leaves(traced, untraced)
