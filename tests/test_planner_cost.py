"""Cost model + cost-based planner: monotonicity laws, access-path
preference, pinned TPC-W join orders, and explain() snapshots.

The TPC-W catalog here carries hand-set row statistics (no data is
loaded), so every estimate is pure arithmetic and the pinned plans are
deterministic.
"""

from __future__ import annotations

import re

import pytest

from repro.config import DEFAULT_COST_MODEL, ClusterConfig
from repro.errors import PlanError
from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.planner import CostBasedPlanner, Planner
from repro.phoenix.plans import (
    BROADCAST,
    GROUP_BY,
    SORT,
    DistinctNode,
    GroupByNode,
    HashJoinNode,
    SortNode,
    SourceNode,
)
from repro.phoenix.stats import (
    TableStats,
    access_ms,
    charge_operator_work,
    matched_rows,
    scan_ms,
)
from repro.sim.clock import Simulation
from repro.sim.latency import LatencyCharger
from repro.sql.parser import parse_statement
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.schema import tpcw_schema

TPCW_ROWS = {
    "Country": 92, "Address": 400, "Customer": 200, "Author": 50,
    "Item": 2000, "Orders": 2000, "Order_line": 6000, "CC_Xacts": 2000,
    "Shopping_cart": 40, "Shopping_cart_line": 120,
}


def _stats(rows: int, regions: int = 1, row_bytes: int = 150) -> TableStats:
    return TableStats("T", rows, rows * row_bytes, regions)


# ------------------------------------------------------------ cost model laws
def test_matched_rows_monotone_in_rows_and_prefix():
    # more rows => more matches, at every prefix length
    for prefix in (0, 1, 2):
        assert matched_rows(10_000, prefix, 3) > matched_rows(100, prefix, 3)
    # longer prefix => fewer matches
    assert (
        matched_rows(10_000, 0, 3)
        > matched_rows(10_000, 1, 3)
        > matched_rows(10_000, 2, 3)
        > matched_rows(10_000, 3, 3)
    )
    # full-key prefix is a point access; empty table matches nothing
    assert matched_rows(10_000, 3, 3) == 1.0
    assert matched_rows(0, 1, 3) == 0.0


def test_scan_cost_monotone_in_rows():
    cost = DEFAULT_COST_MODEL
    for prefix in (0, 1):
        costs = [
            scan_ms(cost, _stats(rows), prefix_len=prefix, key_len=2)
            for rows in (100, 10_000, 1_000_000)
        ]
        assert costs == sorted(costs) and costs[0] < costs[-1]


def test_access_cost_monotone_and_lookup_surcharge():
    cost = DEFAULT_COST_MODEL
    small = access_ms(cost, _stats(100), 1, 2)
    big = access_ms(cost, _stats(10_000), 1, 2)
    assert big[0] > small[0] and big[1] > small[1]
    # a non-covered index pays one base point get per matched row
    covered = access_ms(cost, _stats(10_000), 1, 2)
    uncovered = access_ms(cost, _stats(10_000), 1, 2, lookup_stats=_stats(10_000))
    assert uncovered[1] > covered[1]


def test_full_scan_pays_every_region():
    cost = DEFAULT_COST_MODEL
    assert scan_ms(cost, _stats(1000, regions=8), 0, 2) > scan_ms(
        cost, _stats(1000, regions=1), 0, 2
    )
    # a prefix scan opens a single region window either way
    assert scan_ms(cost, _stats(1000, regions=8), 1, 2) == scan_ms(
        cost, _stats(1000, regions=1), 1, 2
    )


# ------------------------------------------------------------ planner choices
@pytest.fixture
def tpcw_cbo():
    sim = Simulation(seed=42)
    client = HBaseClient(HBaseCluster(sim, ClusterConfig()))
    catalog = create_baseline_schema(client, tpcw_schema())
    for entry in catalog.entries():
        base = entry.name.split(".")[0]
        if base in TPCW_ROWS:
            catalog.stats[entry.name] = TPCW_ROWS[base]
    return (
        CostBasedPlanner(catalog, cluster=client.cluster),
        Planner(catalog),
    )


def test_covered_index_preferred_when_cheaper(company_conn):
    """With measured statistics, the coster prices the covered
    idx_wo_hours prefix scan below a base full scan, and the cost-based
    planner picks it."""
    catalog = company_conn.catalog
    cluster = company_conn.client.cluster
    planner = CostBasedPlanner(catalog, cluster=cluster)
    planned = planner.plan_select(parse_statement(
        "SELECT wo.WO_EID, wo.WO_PNo FROM Works_On as wo WHERE wo.Hours = ?"
    ))
    assert "idx_wo_hours" in planned.root.describe()

    provider = planner.provider
    base = catalog.table_for_relation("Works_On")
    index = next(e for e in catalog.entries() if e.name.endswith("idx_wo_hours"))
    _, index_ms = access_ms(
        DEFAULT_COST_MODEL, provider.stats_for(index), 1, len(index.key_attrs)
    )
    _, base_ms = access_ms(
        DEFAULT_COST_MODEL, provider.stats_for(base), 0, len(base.key_attrs)
    )
    assert index_ms < base_ms


def test_join_orders_pinned_per_tpcw_query(tpcw_cbo):
    """The cost-based join order for every TPC-W query, pinned. A cost
    model change that reorders any of these must be deliberate."""
    planner, _legacy = tpcw_cbo
    pat = re.compile(r" as (\w+)")
    pinned = {
        "Q1": ("i", "ol"),
        "Q2": ("o", "c"),
        "Q3": ("co", "a", "c"),
        "Q4": ("a", "i"),
        "Q5": ("a", "i"),
        "Q6": ("a", "i"),
        "Q7": ("bill_co", "bill_addr", "ship_co", "ship_addr", "c", "o"),
        "Q8": ("i", "scl"),
        "Q9": ("j", "i"),
        "Q10": ("ol", "a", "i", "tmp", "Orders"),
        "Q11": ("ol2", "ol", "tmp", "Orders"),
    }
    got = {
        qid: tuple(pat.findall(
            planner.plan_select(parse_statement(sql)).root.describe()
        ))
        for qid, sql in JOIN_QUERIES.items()
    }
    assert got == pinned


def test_explain_snapshots(tpcw_cbo):
    planner, legacy = tpcw_cbo
    q1 = planner.plan_select(parse_statement(JOIN_QUERIES["Q1"])).root.describe()
    assert q1 == (
        "NL JOIN -> Item as i on (('ol', 'ol_i_id'),)"
        "  -- est rows=77 cost=67.645ms\n"
        "  PREFIX SCAN Order_line [table] as ol prefix=('ol_o_id',)"
        "  -- est rows=77 cost=1.358ms"
    )
    q3 = planner.plan_select(parse_statement(JOIN_QUERIES["Q3"])).root.describe()
    assert q3 == (
        "NL JOIN -> Country as co on (('a', 'addr_co_id'),)"
        "  -- est rows=14 cost=25.147ms\n"
        "  NL JOIN -> Address as a on (('c', 'c_addr_id'),)"
        "  -- est rows=14 cost=13.045ms\n"
        "    PREFIX SCAN Customer.idx_c_uname [index] as c prefix=('c_uname',)"
        "  -- est rows=14 cost=0.943ms"
    )
    # the legacy planner's explain output carries no cost annotations —
    # the anchored plan shapes (and their rendering) never move
    for qid in ("Q1", "Q3", "Q10"):
        text = legacy.plan_select(parse_statement(JOIN_QUERIES[qid])).root.describe()
        assert "est rows" not in text


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)


def test_operator_estimates_are_what_the_executor_charges(tpcw_cbo):
    """Each operator node's estimate adds exactly what
    ``charge_operator_work`` charges, at jitter 0, for its estimated
    input rows: BROADCAST for a hash join's build side, SORT and
    GROUP_BY for their input, and nothing for DISTINCT, which no
    charge prices."""
    planner, _legacy = tpcw_cbo
    servers = planner.provider.servers

    def charged(kind, rows):
        sim = Simulation()
        charge_operator_work(LatencyCharger(sim, "phoenix"), servers, kind, rows)
        return sim.clock.now_ms

    statements = [
        *JOIN_QUERIES.values(),
        "SELECT DISTINCT i.i_subject FROM Item as i ORDER BY i.i_subject",
    ]
    seen = set()
    for sql in statements:
        root = planner.plan_select(parse_statement(sql)).root
        for node in _nodes(root):
            if isinstance(node, HashJoinNode):
                (_, probe_ms), (build_rows, build_ms) = node.probe._est, node.build._est
                expected = probe_ms + build_ms + charged(BROADCAST, build_rows)
            elif isinstance(node, (SortNode, GroupByNode)):
                kind = SORT if isinstance(node, SortNode) else GROUP_BY
                in_rows, in_ms = node.child._est
                expected = in_ms + charged(kind, in_rows)
            elif isinstance(node, DistinctNode):
                expected = node.child._est[1]
            else:
                continue
            seen.add(type(node))
            assert node._est[1] == expected, (sql, node.describe())
    assert seen == {HashJoinNode, SortNode, GroupByNode, DistinctNode}


def test_a_node_the_planner_never_builds_has_no_estimate(tpcw_cbo):
    planner, _legacy = tpcw_cbo
    with pytest.raises(PlanError, match="cannot price a SourceNode"):
        planner.estimate(SourceNode(list, "FRAGMENT f", (("f", "a"),)))


def test_cost_estimates_annotate_every_node(tpcw_cbo):
    planner, _legacy = tpcw_cbo
    planned = planner.plan_select(parse_statement(JOIN_QUERIES["Q10"]))
    text = planned.root.describe()
    assert all("est rows=" in line for line in text.splitlines())


def test_legacy_schema_only_planner_matches_company_shapes(company_conn):
    """The refactored hook methods (_binding_order/_choose_next) leave
    the legacy planner's company workload plans untouched."""
    legacy = Planner(company_conn.catalog)
    planned = legacy.plan_select(parse_statement(
        "SELECT * FROM Department as d, Employee as e, Works_On as wo "
        "WHERE d.DNo = e.E_DNo and e.EID = wo.WO_EID and d.DNo = ?"
    ))
    text = planned.root.describe()
    assert text.splitlines()[0].startswith("NL JOIN")
    assert "est rows" not in text
