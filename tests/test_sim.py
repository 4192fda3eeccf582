"""Unit tests for the virtual-time substrate."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.config import CostModel
from repro.sim.clock import SimClock, Simulation
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import derive_rng, derive_seed


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now_ms == pytest.approx(7.5)

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_monotonic_under_any_charge_sequence(self, deltas):
        clock = SimClock()
        last = 0.0
        for d in deltas:
            clock.advance(d)
            assert clock.now_ms >= last
            last = clock.now_ms


UNIT = CostModel(rpc_base_ms=1.0)
P = "rpc_base_ms"


class TestSimulation:
    def test_charge_advances_clock(self):
        sim = Simulation(UNIT)
        sim.charge("x", P, 3)
        assert sim.clock.now_ms == pytest.approx(3.0)

    def test_charge_appends_to_an_attached_trace(self):
        sim = Simulation(UNIT)
        sim.charge("untraced", P, 1)
        sim.trace = []
        sim.charge("x", P, 3)
        assert sim.trace == [("x", P, 3, 3.0)]

    def test_jittered_charge_traces_the_ms_it_added(self):
        sim = Simulation(UNIT, seed=7, jitter_fraction=0.1)
        sim.trace = []
        sim.charge("x", P, 3)
        ((label, _, _, ms),) = sim.trace
        assert label == "x" and ms != 3.0
        assert ms == sim.clock.now_ms

    def test_charge_requires_a_label(self):
        with pytest.raises(TypeError):
            Simulation(UNIT).charge(price=P, quantity=1)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Simulation(UNIT).charge("x", P, -1)

    def test_zero_charge_is_not_a_clock_move(self):
        """Like ``wait(0)``: no ms, no draw, no leaf."""
        sim = Simulation(UNIT, seed=7, jitter_fraction=0.1)
        sim.trace = []
        rng_before = sim._rng.bit_generator.state
        sim.charge("x", P, 0)
        assert sim.clock.now_ms == 0.0
        assert sim.trace == []
        assert sim._rng.bit_generator.state == rng_before

    def test_compound_charge_sums_its_terms_under_one_draw(self):
        sim = Simulation(UNIT)
        sim.trace = []
        sim.charge("x", (P, "seek_ms"), (1, 2))
        ms = 1.0 + UNIT.seek_ms * 2
        assert sim.trace == [("x", (P, "seek_ms"), (1, 2), ms)]
        assert sim.clock.now_ms == ms

    def test_stopwatch_measures_delta(self):
        sim = Simulation(UNIT)
        sw = sim.stopwatch()
        sim.charge("x", P, 10)
        assert sw.stop() == pytest.approx(10.0)

    def test_reset_clock_keeps_metrics(self):
        sim = Simulation(UNIT)
        sim.trace = trace = []
        sim.charge("op", P, 4)
        sim.metrics.counter("c").inc()
        sim.reset_clock()
        assert sim.clock.now_ms == 0.0
        assert sim.trace is trace and trace == [("op", P, 4, 4.0)]
        assert sim.metrics.counters()["c"] == 1
        sw = sim.stopwatch()
        sim.charge("op", P, 2)
        assert sw.stop() == pytest.approx(2.0)

    def test_jitter_is_deterministic_per_seed(self):
        a = Simulation(UNIT, seed=7, jitter_fraction=0.1)
        b = Simulation(UNIT, seed=7, jitter_fraction=0.1)
        for _ in range(10):
            a.charge("x", P, 1)
            b.charge("x", P, 1)
        assert a.clock.now_ms == pytest.approx(b.clock.now_ms)

    def test_jitter_changes_with_seed(self):
        a = Simulation(UNIT, seed=7, jitter_fraction=0.1)
        b = Simulation(UNIT, seed=8, jitter_fraction=0.1)
        for _ in range(10):
            a.charge("x", P, 1)
            b.charge("x", P, 1)
        assert a.clock.now_ms != b.clock.now_ms

    def test_zero_jitter_is_exact(self):
        sim = Simulation(UNIT, seed=7, jitter_fraction=0.0)
        for _ in range(10):
            sim.charge("x", P, 1)
        assert sim.clock.now_ms == pytest.approx(10.0)

    def test_reset_clock_preserves_the_trace(self):
        sim = Simulation(UNIT)
        sim.trace = []
        sim.charge("op", P, 5)
        sim.reset_clock()
        assert sim.clock.now_ms == 0.0
        sim.charge("op", P, 1)
        assert sim.trace == [("op", P, 5, 5.0), ("op", P, 1, 1.0)]


class TestWait:
    def test_wait_is_exact_records_once_and_never_draws(self):
        sim = Simulation(jitter_fraction=0.5)
        sim.trace = []
        rng_before = sim._rng.bit_generator.state
        sim.wait(5.0, "x")
        assert sim.clock.now_ms == 5.0
        assert sim.trace == [("x", None, None, 5.0)]
        assert sim._rng.bit_generator.state == rng_before

    def test_wait_zero_is_a_noop(self):
        sim = Simulation()
        sim.trace = []
        sim.wait(0, "x")
        assert sim.clock.now_ms == 0.0
        assert sim.trace == []

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            Simulation().wait(-1, "x")

    def test_only_the_running_client_may_wait(self):
        from repro.sim.scheduler import DeterministicScheduler

        sim = Simulation()
        scheduler = DeterministicScheduler(sim)
        seen = []

        def first(vc):
            vc.wait(2.0, "x")
            seen.append(vc.clock.now_ms)
            with pytest.raises(RuntimeError):
                other.wait(1.0, "x")
            yield "done"

        def idle(vc):
            yield "done"

        scheduler.add_client("first", first)
        other = scheduler.add_client("other", idle)
        with pytest.raises(RuntimeError):
            other.wait(1.0, "x")  # no client is running yet
        scheduler.run()
        assert seen == [2.0] and other.clock.now_ms == 0.0


SRC = Path(__file__).parents[1] / "src" / "repro"


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _attribute_calls(tree, names):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            yield node


class TestOneWriterOfTheClock:
    """Virtual time moves through ``charge`` and ``wait`` only."""

    # ``Simulation.charge`` and the per-row fast paths of ``LatencyCharger``
    WRITERS = ("sim/clock.py", "sim/latency.py")

    def test_no_clock_is_written_outside_sim(self):
        offenders = []
        writers = set()
        for rel, tree in _sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr == "_now_ms":
                    if rel not in self.WRITERS:
                        offenders.append(f"{rel}:{node.lineno} _now_ms")
                    elif isinstance(node.ctx, ast.Store):
                        writers.add(rel)
            if rel in ("sim/clock.py", "sql/parser.py"):
                continue  # SimClock itself; the token cursor's advance()
            for call in _attribute_calls(tree, {"advance"}):
                offenders.append(f"{rel}:{call.lineno} .advance(")
        assert offenders == []
        assert writers == set(self.WRITERS)  # each listed file still writes it

    def test_architecture_table_lists_exactly_the_wait_labels(self):
        labels = set()
        for rel, tree in _sources():
            for call in _attribute_calls(tree, {"wait", "serial_enter"}):
                label = call.args[-1]
                if isinstance(label, ast.Name) and rel == "sim/scheduler.py":
                    continue  # vc.wait / serial_enter hand theirs through
                if isinstance(label, ast.JoinedStr):
                    labels.add(ast.unparse(label)[2:-1])
                else:
                    assert isinstance(label, ast.Constant), f"{rel}:{call.lineno}"
                    labels.add(label.value)
        doc = (SRC.parents[1] / "docs" / "ARCHITECTURE.md").read_text()
        section = doc.split("## How virtual time moves")[1].split("\n## ")[0]
        rows = [r for r in section.splitlines() if r.startswith("| `")]
        documented = {
            label
            for row in rows
            for label in re.findall(r"`([^`]+)`", row.split("|")[2])
        }
        assert documented == labels
        assert len(section.splitlines()) <= 25


class TestMetrics:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counters()["a"] == 5


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_derive_seed_label_sensitive(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_derive_rng_streams_independent(self):
        a = derive_rng(1, "a")
        b = derive_rng(1, "b")
        assert list(a.integers(0, 100, 5)) != list(b.integers(0, 100, 5))

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_derive_seed_in_range(self, seed, label):
        s = derive_seed(seed, label)
        assert 0 <= s < 2**64


SIM = SRC / "sim"


def _repro_imports(path: Path) -> list[str]:
    """The ``repro`` modules a file imports, relative imports resolved
    against ``repro.sim``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(
                "repro.sim" + ("." + node.module if node.module else "")
                if node.level else node.module
            )
    return [m for m in found if m.split(".")[0] == "repro"]


class TestLayering:
    """``repro.sim`` is the clock and the scheduler. Nothing in it
    imports ``repro.hbase``, ``repro.bench`` or any layer above them:
    it may lean on the config and the error types only. The one
    exception is ``sim/faults.py``, a four-name re-export that
    perfbench imports, and it imports the cluster cell's module only."""

    BELOW = ("repro.sim", "repro.config", "repro.errors")

    def test_sim_imports_nothing_above_it(self):
        above = [
            f"{path.name}: {module}"
            for path in sorted(SIM.glob("*.py"))
            if path.name != "faults.py"
            for module in _repro_imports(path)
            if ".".join(module.split(".")[:2]) not in self.BELOW
        ]
        assert not above, "\n".join(above)

    def test_faults_is_only_the_perfbench_re_export(self):
        path = SIM / "faults.py"
        assert _repro_imports(path) == ["repro.hbase.chaos"]
        tree = ast.parse(path.read_text())
        assert not [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        from repro.sim import faults

        assert sorted(faults.__all__) == sorted(
            ["FAMILY", "QUALIFIER", "ChaosHistory", "check_invariants"]
        )
