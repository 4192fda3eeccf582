"""Smoke test of the benchmark itself, collected by tier-1.

Every workload runs at toy size: it must emit exactly the metric names
``BENCHMARK.json`` declares, repeat its virtual-clock metrics to the
last digit, and pass its own oracles. A source scan keeps the benchmark
on the public surface of ``repro``.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.compare import verdict
from perfbench.layers import PACKAGES
from perfbench.manifest import manifest
from perfbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MANIFEST = manifest()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in MANIFEST["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_at_toy_size(name):
    plain = harness.run(WORKLOADS[name], seed=7, seconds=1, trace=False, size="toy")
    assert plain["correct"], plain["failures"]
    assert plain["attempted"] >= 1 and plain["failed"] == 0
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
    }
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    # a second in-process run (the traced one: a reference round plus one
    # traced round) repeats the virtual clock and the results exactly:
    # every virtual metric is a pure function of these per-round records
    traced = harness.run(WORKLOADS[name], seed=7, seconds=1, trace=True, size="toy")
    assert traced["correct"], traced["failures"]
    assert len(traced["round_digests"]) == 2
    assert traced["round_digests"] == plain["round_digests"][:2]
    assert all(r["virtual_ms"] > 0 for r in plain["round_digests"])
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["per_layer"]
    }
    shares = sum(
        traced["metrics"][f"{p}.self_share"]["value"] for p in (*PACKAGES, "other")
    )
    assert shares == pytest.approx(1.0, abs=0.01)
    assert traced["metrics"]["trace_overhead_ratio"]["value"] > 0
    spans = (harness.OUT_DIR / f"trace-{name}.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["name"] for line in spans}
    assert {"setup", "warmup", "round", "op"} <= kinds


def test_compare_verdicts():
    quiet = [100.0, 101.0, 99.0]
    assert verdict(quiet, [104.0, 105.0, 103.0], "lower", 0.10, False, True) == "ok"
    assert verdict(quiet, [120.0, 121.0, 119.0], "lower", 0.10, False, True) == "worse"
    assert verdict(quiet, [100.0, 150.0, 125.0], "lower", 0.10, False, True) == "unresolved"
    assert verdict(quiet, [80.0, 81.0, 79.0], "higher", 0.10, False, True) == "worse"
    assert verdict([5.0, 5.0], [5.0, 5.0], "lower", 0.10, True, True) == "ok"
    assert verdict([5.0, 5.0], [5.0, 5.000001], "lower", 0.10, True, True) == "differs"


FORBIDDEN_KEYWORDS = {"query_engine", "engine", "cost_based", "ready_queue"}


@pytest.mark.parametrize(
    "path", sorted(HERE.rglob("*.py")), ids=lambda p: str(p.relative_to(HERE))
)
def test_benchmark_stays_on_the_public_surface(path):
    """No underscore-prefixed ``repro`` import, no import of
    ``repro.bench.experiments``, none of the engine/queue selectors: the
    benchmark measures what a default user gets, so the parallel paths
    can be deleted without touching it."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            modules = [node.module]
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names if a.name.startswith("repro")]
            imported = []
        elif isinstance(node, ast.Call):
            used = {kw.arg for kw in node.keywords} & FORBIDDEN_KEYWORDS
            assert not used, f"{path.name}:{node.lineno} passes {sorted(used)}"
            continue
        else:
            continue
        for module in modules:
            assert not module.startswith("repro.bench.experiments"), (
                f"{path.name}:{node.lineno} imports {module}"
            )
            private = [part for part in module.split(".") if part.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {module}"
        private = [n for n in imported if n.startswith("_")]
        assert not private, f"{path.name}:{node.lineno} imports {private}"
