"""Shared fixtures: simulated clusters and small populated systems."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig
from repro.federation import Mediator
from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.hbase.ops import Get, Put
from repro.phoenix.catalog import CF
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.executor import PhoenixConnection
from repro.relational.company import COMPANY_ROOTS, company_schema, company_workload
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sql.parser import parse_statement
from repro.sim.scheduler import DeterministicScheduler, run_transaction
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.writes import WRITE_STATEMENTS
from repro.synergy.locks import LOCK_HELD, LOCK_QUALIFIER, lock_table_name
from repro.systems import (
    BaselineSystem,
    MvccASystem,
    MvccUASystem,
    SynergySystem,
)
from repro.voltdb.system import PartitionScheme, VoltDBSystem
from tests.reference.sql import company_rows, load_company

#: A VoltDB layout that partitions nothing: every table on every site,
#: so any join runs single-partition.
ALL_REPLICATED = (PartitionScheme("all-replicated", {}),)


@pytest.fixture
def sim() -> Simulation:
    return Simulation(seed=42)


@pytest.fixture
def cluster(sim: Simulation) -> HBaseCluster:
    return HBaseCluster(sim, ClusterConfig())


@pytest.fixture
def client(cluster: HBaseCluster) -> HBaseClient:
    return HBaseClient(cluster)


def build_company_system(name: str, sim: Simulation | None = None):
    """One of the five evaluated systems (by its Fig. 13 name) on the
    Company schema, populated by :func:`~tests.reference.sql.load_company`."""
    system = empty_company_system(name, sim)
    load_company(system)
    system.finish_load()
    return system


def empty_company_system(name: str, sim: Simulation | None = None):
    """:func:`build_company_system` before anything is loaded."""
    schema, workload = company_schema(), company_workload()
    if name == "Synergy":
        return SynergySystem(schema, workload, COMPANY_ROOTS, sim=sim)
    if name == "MVCC-A":
        return MvccASystem(schema, workload, COMPANY_ROOTS, sim=sim)
    if name == "MVCC-UA":
        estimates = {table: len(rows) for table, rows in company_rows().items()}
        return MvccUASystem(schema, workload, estimates, sim=sim)
    if name == "Baseline":
        return BaselineSystem(schema, workload, sim=sim)
    system = VoltDBSystem(schema, workload, sim=sim)
    system.schemes = ALL_REPLICATED
    return system


def build_company_federation(mode: str, pin: str | None = None):
    """A mediator over a rule-planned and a cost-planned Baseline plus an
    all-replicated VoltDB, routing in ``mode``, populated."""
    schema = company_schema()
    backends = {
        name: BaselineSystem(schema, Workload()) for name in ("rule", "cost-based")
    }
    backends["voltdb"] = VoltDBSystem(schema, Workload())
    backends["voltdb"].schemes = ALL_REPLICATED
    backends["cost-based"].conn.configure_engine(cost_based=True)
    mediator = build_mediator(backends, schema, seed=7, mode=mode, pin=pin)
    load_company(mediator)
    mediator.finish_load()
    return mediator


def build_mediator(backends, schema, workload=None, **kwargs) -> Mediator:
    """A :class:`Mediator` over a mapping or ordered ``(name, system)``
    pairs (order is the routing tie-break)."""
    return Mediator(dict(backends), schema, workload, **kwargs)


def lock_held(locks, root: str, key_values) -> bool:
    """Whether the lock row of ``root`` at ``key_values`` reads held (one
    Get of the lock table, charged like any other)."""
    table = locks.client.table(lock_table_name(root))
    result = table.get(Get(locks._encode(root, key_values)))
    return result is not None and result.value(CF, LOCK_QUALIFIER) == LOCK_HELD


def wal_pending(wal, region_name: str | None = None) -> int:
    """Entries ``wal`` still holds for one region, or for all of them."""
    if region_name is not None:
        return len(wal._entries.get(region_name, ()))
    return sum(len(v) for v in wal._entries.values())


def build_cluster(servers=2, replica_count=1, rows=40, splits=None):
    """A cluster with one table ``t`` of ``rows`` one-cell rows (family
    ``cf``), pre-split at ``splits``."""
    config = ClusterConfig(
        num_region_servers=servers, seed=42, replica_count=replica_count
    )
    cluster = HBaseCluster(Simulation(seed=42), config)
    client = HBaseClient(cluster)
    table = client.create_table("t", families=(b"cf",), split_keys=splits)
    for i in range(rows):
        table.put(Put(b"%05d" % i).add(b"cf", b"q", b"v%05d" % i))
    return cluster, client


def build_tpcw_systems(lab, names) -> dict:
    """``names`` built and populated by a ``TpcwLab``, in order."""
    systems = {}
    for name in names:
        systems[name] = lab.build_system(name)
        lab.populate(systems[name])
    return systems


def tpcw_battery(lab, system, reps: int = 1) -> list[tuple[str, tuple]]:
    """Q1-Q11 plus the writes, ``reps`` times, as the lab measures them
    (statements a system does not support are left out)."""
    statements = []
    for rep in range(reps):
        for qid in JOIN_QUERIES:
            if system.supports(qid):
                params = lab.generator.params_for_query(qid, rep)
                statements.append((system.statement(qid), params))
        for wid in WRITE_STATEMENTS:
            if system.supports(wid):
                params = lab.generator.params_for_write(wid, rep)
                statements.append((system.statement(wid), params))
    return statements


def run_four_client_schedule(system, per_client):
    """Run one session per client of ``per_client`` (lists of
    transactions) on ``system`` through the deterministic scheduler."""
    scheduler = DeterministicScheduler(system.sim)
    for i, txns in enumerate(per_client):
        session = system.open_session(f"c{i}")

        def program(client, session=session, txns=txns):
            for txn in txns:
                yield from run_transaction(client, session, txn)

        scheduler.add_client(f"c{i}", program)
    return scheduler.run()


def build_company_conn(sim: Simulation, schema=None) -> PhoenixConnection:
    """Phoenix over base Company tables (no views), populated and
    analyzed; ``schema`` defaults to ``company_schema()``."""
    client = HBaseClient(HBaseCluster(sim, ClusterConfig()))
    catalog = create_baseline_schema(client, schema or company_schema())
    conn = PhoenixConnection(client, catalog)
    load_company(conn.writer)
    conn.analyze()
    return conn


def execute_write(conn: PhoenixConnection, stmt, params=()) -> int:
    """Run one INSERT/UPDATE/DELETE through ``conn``'s writer; returns
    the rows it wrote."""
    writer = conn.writer
    if isinstance(stmt, str):
        stmt = parse_statement(stmt)
    plan = writer.compile(stmt, tuple(params))
    if plan.kind == "insert":
        writer.insert_row(plan.relation, plan.row)
        return 1
    if plan.kind == "update":
        new = writer.update_row(plan.relation, plan.key, plan.changes)
    else:
        new = writer.delete_row(plan.relation, plan.key)
    return 0 if new is None else 1


def plan_nodes(node):
    """Every node of a plan tree, derived tables' subplans included."""
    yield node
    for child in node.children():
        yield from plan_nodes(child)


@pytest.fixture
def company_conn(sim: Simulation) -> PhoenixConnection:
    return build_company_conn(sim)


@pytest.fixture
def company_synergy() -> SynergySystem:
    """A fully wired, populated Synergy deployment on the Company schema."""
    return build_company_system("Synergy")
