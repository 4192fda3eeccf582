"""Shared fixtures: simulated clusters and small populated systems."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig
from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.phoenix.ddl import create_baseline_schema
from repro.phoenix.executor import PhoenixConnection
from repro.relational.company import COMPANY_ROOTS, company_schema, company_workload
from repro.sim.clock import Simulation
from repro.systems import (
    BaselineSystem,
    MvccASystem,
    MvccUASystem,
    SynergySystem,
    VoltDBEvaluatedSystem,
)
from repro.voltdb.system import PartitionScheme


@pytest.fixture
def sim() -> Simulation:
    return Simulation(seed=42)


@pytest.fixture
def cluster(sim: Simulation) -> HBaseCluster:
    return HBaseCluster(sim, ClusterConfig())


@pytest.fixture
def client(cluster: HBaseCluster) -> HBaseClient:
    return HBaseClient(cluster)


def load_company_data(target) -> None:
    """Populate a small, deterministic Company database.

    ``target`` is anything exposing ``load_row`` (SynergySystem) or an
    object with ``insert_row`` (WriteExecutor-like)."""
    add = getattr(target, "load_row", None) or getattr(target, "insert_row")
    for aid in range(1, 6):
        add("Address", {"AID": aid, "Street": f"{aid} Main St",
                        "City": "Nashville", "Zip": "37201"})
    for dno in (1, 2):
        add("Department", {"DNo": dno, "DName": f"Dept{dno}"})
    for eid in range(1, 11):
        add("Employee", {"EID": eid, "EName": f"emp{eid}",
                         "EHome_AID": (eid % 5) + 1, "EOffice_AID": 1,
                         "E_DNo": (eid % 2) + 1})
    for pno in (1, 2, 3):
        add("Project", {"PNo": pno, "PName": f"proj{pno}",
                        "P_DNo": (pno % 2) + 1})
    for eid in range(1, 11):
        for pno in (1, 2, 3):
            if (eid + pno) % 2 == 0:
                add("Works_On", {"WO_EID": eid, "WO_PNo": pno,
                                 "Hours": 10 * pno})
    for eid in (1, 2):
        add("Dependent", {"DP_EID": eid, "DPName": f"dep{eid}",
                          "DPHome_AID": eid + 1})


COMPANY_ROW_ESTIMATES = {
    "Address": 5, "Department": 2, "Employee": 10,
    "Project": 3, "Works_On": 15, "Dependent": 2,
}


def build_company_system(name: str, sim: Simulation | None = None):
    """One of the five evaluated systems (by its Fig. 13 name) on the
    Company schema, populated by :func:`load_company_data`."""
    schema, workload = company_schema(), company_workload()
    if name == "Synergy":
        system = SynergySystem(schema, workload, COMPANY_ROOTS, sim=sim)
    elif name == "MVCC-A":
        system = MvccASystem(schema, workload, COMPANY_ROOTS, sim=sim)
    elif name == "MVCC-UA":
        system = MvccUASystem(schema, workload, COMPANY_ROW_ESTIMATES, sim=sim)
    elif name == "Baseline":
        system = BaselineSystem(schema, workload, sim=sim)
    else:
        system = VoltDBEvaluatedSystem(
            schema, workload, sim=sim,
            schemes=(PartitionScheme("all-replicated", {}),),
        )
    load_company_data(system)
    system.finish_load()
    return system


@pytest.fixture
def company_conn(client: HBaseClient) -> PhoenixConnection:
    """Phoenix over base Company tables (no views), populated."""
    catalog = create_baseline_schema(client, company_schema())
    conn = PhoenixConnection(client, catalog)
    load_company_data(conn.writer)
    conn.analyze()
    return conn


@pytest.fixture
def company_synergy() -> SynergySystem:
    """A fully wired, populated Synergy deployment on the Company schema."""
    system = SynergySystem(company_schema(), company_workload(), COMPANY_ROOTS)
    load_company_data(system)
    system.finish_load()
    return system
