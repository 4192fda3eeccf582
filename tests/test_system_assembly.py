"""Assembly oracle for the four HBase-backed systems.

Region placement is round-robin on a cursor, so the *order* in which a
system creates its tables (baseline tables -> views -> view-indexes ->
Synergy's lock tables) is its layout, and every contended figure
depends on it. The digests below pin, per system and schema: the
cluster's layout fingerprint after load (hosts included), the catalog's
entry names in creation order and the executable text of every workload
statement. They were recorded before the systems were re-assembled from
a view design x a concurrency control and must not move."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.tpcw_lab import TpcwLab
from repro.relational.company import company_workload
from tests.conftest import build_company_system

HBASE_SYSTEMS = ("Baseline", "MVCC-A", "MVCC-UA", "Synergy")

DIGESTS = {
    ("company", "Baseline"): "0524590edc164da5",
    ("company", "MVCC-A"): "99142557ed00590d",
    ("company", "MVCC-UA"): "c209151938fd1eea",
    ("company", "Synergy"): "24f601cdd98304e5",
    ("tpcw", "Baseline"): "3a605490fb08fc53",
    ("tpcw", "MVCC-A"): "c91a5b3cf5d7a021",
    ("tpcw", "MVCC-UA"): "88b00e2f8d8894a1",
    ("tpcw", "Synergy"): "376575b64bddf9d4",
}


def build_company(name: str):
    return build_company_system(name), company_workload()


def build_tpcw(name: str):
    lab = TpcwLab(num_customers=10, repetitions=1, seed=11)
    system = lab.build_system(name)
    lab.populate(system)
    return system, lab.workload


BUILDERS = {"company": build_company, "tpcw": build_tpcw}


def assembly(system, workload) -> dict:
    return {
        "layout": system.cluster.layout_fingerprint(),
        "catalog": [e.name for e in system.catalog.entries()],
        "statements": {
            s.statement_id: system.statement(s.statement_id) for s in workload
        },
    }


def digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def assemblies(request):
    build = BUILDERS[request.param]
    return request.param, {
        name: assembly(*build(name)) for name in HBASE_SYSTEMS
    }


def test_assembly_digests_are_pinned(assemblies):
    case, built = assemblies
    got = {(case, name): digest(a) for name, a in built.items()}
    assert got == {k: v for k, v in DIGESTS.items() if k[0] == case}


def test_mvcc_a_is_synergy_minus_the_lock_tables(assemblies):
    """The paper defines MVCC-A as Synergy's views and view-indexes under
    MVCC: same tables in the same order, same statement texts; Synergy
    adds only its lock tables, created last."""
    _, built = assemblies
    mvcc_a, synergy = built["MVCC-A"], built["Synergy"]
    assert mvcc_a["statements"] == synergy["statements"]
    assert mvcc_a["catalog"] == synergy["catalog"]
    assert any(n.startswith("MV_") for n in mvcc_a["catalog"])
    shared = sorted(mvcc_a["layout"]["tables"])
    extra = sorted(set(synergy["layout"]["tables"]) - set(shared))
    assert extra and all(name.startswith("LOCK_") for name in extra)
    for table in shared:
        assert synergy["layout"]["tables"][table] == mvcc_a["layout"]["tables"][table]
