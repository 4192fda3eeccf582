"""Differential property harness for the SELECT engine under both planners.

A seeded generator produces random Company-schema queries (projections,
predicates, 2-3-way joins including self-joins, DISTINCT, GROUP BY
aggregates, ORDER BY + LIMIT, same-binding column/column comparisons)
and runs every one through the operator pipeline as the rule-based
and as the cost-based planner plan it. Both must agree row-for-row (as
multisets) with the pure-Python relational model of ``tests.reference``
evaluated over the same data.

LIMIT is only generated underneath an ORDER BY covering every projected
column, so the limited prefix is a well-defined multiset no matter
which plan produced the row order. Aggregated attributes
are integers, so SUM/AVG are exact regardless of accumulation order.
"""

from __future__ import annotations

import random

import pytest

from repro.phoenix.executor import PhoenixConnection
from repro.sim.clock import Simulation
from tests.conftest import build_company_conn
from tests.reference.generators import (
    COLUMN_FILTER_OPS, SEEDS, QuerySpec, generate_query,
)
from tests.reference.sql import company_rows, ref_execute

QUERIES_PER_SEED = 200


@pytest.fixture(scope="module")
def prop_conn() -> PhoenixConnection:
    return build_company_conn(Simulation(seed=7))


def _engine_rows(conn: PhoenixConnection, spec: QuerySpec) -> list[tuple]:
    return [tuple(r.values()) for r in conn.execute_query(spec.sql, spec.params)]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_queries_all_engines_match_reference(prop_conn, seed):
    rng = random.Random(seed)
    data = company_rows()
    checked = 0
    try:
        for i in range(QUERIES_PER_SEED):
            spec = generate_query(rng)
            expected = sorted(ref_execute(spec, data))
            for cost_based in (False, True):
                prop_conn.configure_engine(cost_based=cost_based)
                got = sorted(_engine_rows(prop_conn, spec))
                assert got == expected, (
                    f"query #{i} (seed {seed}, cost_based={cost_based}) "
                    f"diverged:\n{spec.sql}\n"
                    f"params={spec.params}\nexpected={expected}\ngot={got}"
                )
            checked += 1
    finally:
        prop_conn.configure_engine(cost_based=False)
    assert checked == QUERIES_PER_SEED


def test_generator_covers_the_required_shapes():
    """The random stream actually exercises joins, self-joins, DISTINCT,
    aggregates and LIMIT (guards against a generator regression quietly
    weakening the differential suite)."""
    rng = random.Random(SEEDS[0])
    specs = [generate_query(rng) for _ in range(QUERIES_PER_SEED)]
    assert any(len(s.bindings) == 3 for s in specs)
    assert any(
        len({t for _a, t in s.bindings}) < len(s.bindings) for s in specs
    ), "no self-join generated"
    assert any(s.distinct for s in specs)
    assert any(s.aggregates for s in specs)
    assert any(s.limit is not None for s in specs)
    assert any(s.filters for s in specs)
    for op in COLUMN_FILTER_OPS:
        for joined in (False, True):
            assert any(
                (len(s.bindings) > 1) == joined
                and any(f[2] == op for f in s.column_filters)
                for s in specs
            ), f"no same-binding {op!r} comparison with joined={joined}"
