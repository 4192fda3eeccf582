"""Fig. 10 — micro-benchmark: view scan vs join algorithm.

Paper anchors at 50k customers: view scan 6x (Q1) / 11.7x (Q2) faster.
"""

import os

import pytest

from repro.systems import SynergySystem
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

MICRO_SCALE = int(os.environ.get("REPRO_MICRO_SCALE", "100"))


@pytest.fixture(scope="module")
def micro_system():
    system = SynergySystem(micro_schema(), micro_workload(), MICRO_ROOTS)
    for relation, row in MicrobenchDataGenerator(MICRO_SCALE, seed=1).all_rows():
        system.load_row(relation, row)
    system.finish_load()
    return system


CASES = [
    ("Q1-view-scan", MICRO_Q1_VIEW),
    ("Q1-join-algorithm", MICRO_Q1_BASE),
    ("Q2-view-scan", MICRO_Q2_VIEW),
    ("Q2-join-algorithm", MICRO_Q2_BASE),
]


@pytest.mark.parametrize("label,sql", CASES, ids=[c[0] for c in CASES])
def test_fig10(benchmark, micro_system, label, sql):
    def run():
        _, virtual_ms = micro_system.timed(sql)
        return virtual_ms

    virtual_ms = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["virtual_ms"] = round(virtual_ms, 2)
    benchmark.extra_info["scale_customers"] = MICRO_SCALE


def test_fig10_view_scan_wins(micro_system):
    _, q1_view = micro_system.timed(MICRO_Q1_VIEW)
    _, q1_join = micro_system.timed(MICRO_Q1_BASE)
    _, q2_view = micro_system.timed(MICRO_Q2_VIEW)
    _, q2_join = micro_system.timed(MICRO_Q2_BASE)
    assert q1_view < q1_join
    assert q2_view < q2_join
