"""Benchmark harness: statistics, result rendering, the static tables,
the CLI derived from the suite registry (errors, ``--smoke``), and the
paper's shape claims: every check of the figure suites' smoke gates."""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.bench import __main__ as cli
from repro.bench.suite import Flag, IntList, Smoke, Suite
from repro.bench.suites import SUITES
from repro.bench.suites import paper
from repro.bench.suites.paper import run_fig13, run_table1
from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.bench.harness import (
    ExperimentResult,
    Stat,
    ratio_of_means,
    render_table,
    summarize,
)
from tests.conftest import build_tpcw_systems


class TestStats:
    def test_summarize_mean_and_stderr(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.stderr == pytest.approx(math.sqrt(1.0 / 3.0))
        assert s.n == 3

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.stderr == 0.0

    def test_empty(self):
        assert math.isnan(summarize([]).mean)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=50))
    def test_mean_within_range(self, xs):
        s = summarize(xs)
        assert min(xs) - 1e-9 <= s.mean <= max(xs) + 1e-9


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_experiment_result_text(self):
        r = ExperimentResult("F", "title", "x")
        r.x_values = [1, 2]
        s = r.add_series("sys")
        s.set(1, Stat(10.0, 0.5, 3))
        s.set(2, None)
        text = r.to_text()
        assert "10.0" in text and "X" in text

    def test_ratio_of_means(self):
        r = ExperimentResult("F", "t", "x")
        r.x_values = ["a"]
        r.add_series("n").set("a", Stat(10.0, 0, 1))
        r.add_series("d").set("a", Stat(5.0, 0, 1))
        assert ratio_of_means(r, "n", "d") == pytest.approx(2.0)


class TestFastExperiments:
    def test_fig13_matrix(self):
        text = run_fig13()
        for name in ("VoltDB", "Synergy", "MVCC-A", "MVCC-UA", "Baseline"):
            assert name in text

    def test_table1_static(self):
        text = run_table1()
        assert "read committed" in text


class TestTpcwLab:
    def test_planner_mode_reaches_every_phoenix_backed_system(self):
        """Synergy used to keep its connection where the lab did not
        look, and silently stayed on the rule-based planner."""
        lab = TpcwLab(num_customers=10, repetitions=1, cost_based_planner=True)
        for name, system in build_tpcw_systems(lab, SYSTEM_NAMES).items():
            if name == "VoltDB":
                assert not hasattr(system, "conn")
            else:
                assert system.conn.cost_based is True, name


class TestCliErrors:
    """The bench CLI must refuse nonsense loudly, not run nothing or
    silently drop flags."""

    def _error(self, argv):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return exc

    def test_unknown_suite_exits_nonzero_listing_valid(self, capsys):
        self._error(["--only", "nosuchsuite"])
        err = capsys.readouterr().err
        assert "unknown experiments" in err
        assert "nosuchsuite" in err
        # the valid suites are listed so the caller can self-correct
        for suite in ("query", "federation", "concurrency"):
            assert suite in err

    def test_empty_selection_exits_nonzero(self, capsys):
        self._error(["--only", " , "])
        err = capsys.readouterr().err
        assert "no experiments" in err
        assert "federation" in err

    def test_suite_flag_with_other_only_is_rejected(self, capsys):
        self._error(["--only", "query", "--federation-scale", "99"])
        err = capsys.readouterr().err
        assert "--federation-scale" in err
        assert "federation" in err

    def test_multiple_contradictory_flags_all_reported(self, capsys):
        self._error([
            "--only", "table1",
            "--query-reps", "9", "--serving-ops", "1",
        ])
        err = capsys.readouterr().err
        assert "--query-reps" in err
        assert "--serving-ops" in err

    def test_suite_flag_with_matching_only_is_accepted(self, capsys):
        # table1 is static; adding its own suite's flag must not error
        from repro.bench.__main__ import main

        assert main(["--only", "table1", "--quiet"]) == 0
        capsys.readouterr()

    def test_default_flags_with_only_are_fine(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--only", "fig13", "--quiet"]) == 0
        capsys.readouterr()


# ------------------------------------------------------------ suite registry
OWNED_FLAGS = [(suite, flag) for suite in SUITES for flag in suite.flags]
INT_LIST_FLAGS = [
    flag for _suite, flag in OWNED_FLAGS if isinstance(flag.kind, IntList)
]


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def _non_default(flag: Flag) -> str:
    if isinstance(flag.kind, IntList):
        return "7"  # a one-element sweep no default uses
    return str(flag.default + 1)


class TestSuiteRegistry:
    """``SUITES`` is the only suite table: the CLI is derived from it,
    and these checks hold for every record in it."""

    def test_names_unique(self):
        names = [s.name for s in SUITES]
        assert len(names) == len(set(names)) == 13

    def test_every_flag_dest_owned_by_exactly_one_suite(self):
        dests = [flag.dest for _suite, flag in OWNED_FLAGS]
        assert len(dests) == len(set(dests))
        shared = {"scale", "reps", "only", "smoke", "out", "emit_json", "quiet"}
        assert not shared & set(dests)

    def test_help_lists_every_flag_under_its_suite(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for suite, flag in OWNED_FLAGS:
            assert flag.option in text
            assert f"[{suite.name}]" in text

    @pytest.mark.parametrize(
        "suite,flag", OWNED_FLAGS, ids=[f.dest for _s, f in OWNED_FLAGS]
    )
    def test_flag_with_only_excluding_its_suite_is_rejected(
        self, suite, flag, capsys
    ):
        other = "table1" if suite.name != "table1" else "fig13"
        err = _usage_error(
            ["--only", other, flag.option, _non_default(flag)], capsys
        )
        assert flag.option in err
        assert repr(suite.name) in err

    @pytest.mark.parametrize(
        "flag", INT_LIST_FLAGS, ids=[f.dest for f in INT_LIST_FLAGS]
    )
    def test_int_list_flags_reject_bad_lists(self, flag, capsys):
        below = str(flag.kind.minimum - 1)
        at_min = str(flag.kind.minimum)
        repeated = f"{at_min},{at_min}"
        for bad in (below, f"3,{below}", "-1", "x", "1,x", "", "1,,2", repeated):
            # `--flag=value` so a leading '-' is not read as an option
            err = _usage_error([f"{flag.option}={bad}"], capsys)
            assert f"argument {flag.option}" in err, bad
        # the boundary itself parses (no sweep is run here)
        parsed = cli.build_parser().parse_args([flag.option, at_min + ",9"])
        assert getattr(parsed, flag.dest) == (flag.kind.minimum, 9)

    def test_ci_smoke_matrix_is_the_suites_with_a_smoke(self):
        ci = (
            Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
        ).read_text()
        matrix = re.search(r"suite: \[([^\]]*)\]", ci).group(1)
        assert [name.strip() for name in matrix.split(",")] == [
            s.name for s in SUITES if s.smoke is not None
        ]

    def test_ci_perfbench_matrix_is_the_declared_workloads(self):
        root = Path(__file__).parents[1]
        ci = (root / ".github" / "workflows" / "ci.yml").read_text()
        matrix = re.search(r"workload: \[([^\]]*)\]", ci).group(1)
        declared = json.loads((root / "BENCHMARK.json").read_text())
        assert [name.strip() for name in matrix.split(",")] == [
            w["name"] for w in declared["workloads"]
        ]


class TestSmokeMode:
    """``--smoke`` plumbing, on the cheapest real suite (fig11) and on
    fakes that force each failure mode."""

    @staticmethod
    def _fake(run, **smoke) -> Suite:
        return Suite("fake", run, smoke=Smoke(flags="", **smoke))

    @staticmethod
    def _steady(opts, say):
        return [ExperimentResult("Fake", "a deterministic result", "x")]

    def test_passing_gate_exits_zero_and_emits_report(self, tmp_path, capsys):
        out = tmp_path / "smoke.json"
        assert cli.main(
            ["--smoke", "fig11", "--emit-json", str(out), "--quiet"]
        ) == 0
        assert "smoke[fig11]" in capsys.readouterr().out
        sweep = json.loads(out.read_text())["fig11"]["sweep"]
        assert "Fig11" in sweep["experiments"]
        assert "--reps 2" in sweep["generated_by"]

    def test_failed_checks_exit_one_and_print_every_message(
        self, monkeypatch, capsys
    ):
        fake = self._fake(
            self._steady,
            fn=lambda: {"n": 1},
            checks=(("n is not 2", lambda o: o["n"] == 2),
                    ("n is not 1", lambda o: o["n"] == 1)),
            sweep_checks=(("Fake went missing", lambda e: "Nope" in e),),
        )
        monkeypatch.setattr(cli, "SUITES", SUITES + (fake,))
        assert cli.main(["--smoke", "fake", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "fake: n is not 2" in captured.err
        assert "fake: Fake went missing" in captured.err
        assert "n is not 1" not in captured.err
        assert "FAILED" in captured.out

    def test_rerun_mismatch_is_reported(self, monkeypatch, capsys):
        # a fake suite exists only in this process, so its drifted
        # rerun is handed in instead of run in a child interpreter
        monkeypatch.setattr(cli, "SUITES", SUITES + (self._fake(self._steady),))
        monkeypatch.setattr(cli, "fresh_rerun", lambda argv: "{}\n")
        assert cli.main(["--smoke", "fake", "--quiet"]) == 1
        assert "not byte-identical" in capsys.readouterr().err

    def test_rerun_is_a_child_interpreter_under_another_hash_seed(
        self, monkeypatch
    ):
        """A sweep that leaned on set or str-hash order would agree
        with itself in one process; the rerun runs in a child process
        whose ``PYTHONHASHSEED`` differs from this one's."""
        children = []
        run = subprocess.run

        def spy(cmd, **kwargs):
            children.append((cmd, kwargs["env"]))
            return run(cmd, **kwargs)

        monkeypatch.setattr(subprocess, "run", spy)
        _report, failures = cli.smoke_suite(
            cli.build_parser(), paper.FIG11, lambda _m: None
        )
        assert failures == []
        [(cmd, env)] = children
        assert cmd[:5] == [sys.executable, "-m", "repro.bench", "--only", "fig11"]
        assert env["PYTHONHASHSEED"] != os.environ.get("PYTHONHASHSEED")

    def test_config_is_scale_reps_and_the_selected_suites_flags(self, monkeypatch):
        fake = Suite("fake", self._steady,
                     flags=(Flag("fake_sweep", IntList(1), (1, 2), "a sweep"),))
        monkeypatch.setattr(cli, "SUITES", SUITES + (fake,))
        parser = cli.build_parser()
        argv = ["--only", "fake"]
        opts = parser.parse_args(argv)
        _text, payload = cli.run_suites(
            cli._selected(parser, opts), opts, argv, lambda _m: None
        )
        assert payload["config"] == {"scale": 200, "reps": 10, "fake_sweep": "1,2"}

    def test_smoke_refuses_unknown_suites_and_stray_flags(self, capsys):
        assert "valid: all, fig10" in _usage_error(["--smoke", "fig13"], capsys)
        err = _usage_error(["--smoke", "faults", "--clients", "3"], capsys)
        assert "--clients" in err
        assert "--only" in _usage_error(
            ["--smoke", "faults", "--only", "faults"], capsys
        )


FIGURE_SUITES = (paper.FIG10, paper.FIG11, paper.TPCW)
FIGURE_CHECKS = [
    (suite, check) for suite in FIGURE_SUITES for check in suite.smoke.sweep_checks
]


@pytest.fixture(scope="module")
def figure_gate():
    """``suite -> (its smoke report, its failures)``; each suite's gate
    runs once."""
    parser = cli.build_parser()
    return functools.cache(
        lambda suite: cli.smoke_suite(parser, suite, lambda _m: None)
    )


class TestFigureGates:
    """The paper's shape claims are the ``--smoke`` checks of ``fig10``,
    ``fig11`` and ``tpcw``; one node per check, each held against its
    suite's smoke sweep, and one per suite for its whole gate."""

    @pytest.mark.parametrize(
        "suite,check", FIGURE_CHECKS,
        ids=[f"{suite.name}: {message}" for suite, (message, _) in FIGURE_CHECKS],
    )
    def test_check_holds(self, figure_gate, suite, check):
        message, holds = check
        report, _failures = figure_gate(suite)
        assert holds(report["sweep"]["experiments"]), message

    @pytest.mark.parametrize(
        "suite", FIGURE_SUITES, ids=[suite.name for suite in FIGURE_SUITES]
    )
    def test_gate_passes(self, figure_gate, suite):
        # every check above plus the byte-identical rerun of the sweep
        _report, failures = figure_gate(suite)
        assert failures == []


class TestBenchTrajectory:
    """``BENCH_TRAJECTORY.jsonl`` gets one hand-appended row per PR that
    touches ``src/`` and nothing else reads it: every row must still be
    the shape ``tools/bench_trajectory.py`` prints for the benchmark
    ``BENCHMARK.json`` declares."""

    ROOT = Path(__file__).parents[1]
    SHAPE = {"commit", "seeds", "runs", "workloads"}

    def declared(self) -> dict:
        return json.loads((self.ROOT / "BENCHMARK.json").read_text())

    def packages(self) -> set[str]:
        """The layers a traced run splits self time into (``other`` too)."""
        names = {
            m["name"].removesuffix(".self_share")
            for m in self.declared()["per_layer"]
            if m["name"].endswith(".self_share")
        }
        return {name for name in names if "." not in name}

    def test_every_row_is_a_summary_of_the_declared_benchmark(self):
        declared = self.declared()
        workloads = {w["name"] for w in declared["workloads"]}
        metrics = {m["name"] for m in declared["end_to_end"]}
        packages = self.packages()
        # a pure function of the seed: one seed, no spread
        exact = {m for m in metrics if m.startswith("virtual_")}
        exact.add("db_bytes_per_user_byte")
        assert len(exact) == 5
        lines = (self.ROOT / "BENCH_TRAJECTORY.jsonl").read_text().splitlines()
        commits = []
        layered = 0
        for number, line in enumerate(lines, 1):
            row = json.loads(line)
            where = f"line {number} ({row.get('commit')})"
            assert set(row) - {"layers"} == self.SHAPE, where
            for name, shares in row.get("layers", {}).items():
                layered += 1
                assert name in workloads, f"{where} layers.{name}"
                assert set(shares) <= packages and "other" in shares, where
                assert all(s >= 0 for s in shares.values()), where
                assert sum(shares.values()) == pytest.approx(1, abs=1e-3), (
                    f"{where} layers.{name} sum to {sum(shares.values())}"
                )
            commits.append(row["commit"])
            assert row["seeds"] and row["runs"] >= 1, where
            assert set(row["workloads"]) == workloads, where
            for name, summary in row["workloads"].items():
                assert set(summary) == metrics, f"{where} {name}"
                for metric, pair in summary.items():
                    at = f"{where} {name}.{metric}"
                    assert isinstance(pair, list) and len(pair) == 2, at
                    median, iqr = pair
                    assert math.isfinite(median) and iqr >= 0, at
                    if metric in exact and len(row["seeds"]) == 1:
                        assert iqr == 0, at
        assert lines and len(set(commits)) == len(commits)
        assert layered >= 6, "fewer layer splits than the three traced rows hold"

    def test_a_traced_record_adds_the_layer_split(self, tmp_path, capsys):
        tool = _tool("bench_trajectory")
        shares = {"phoenix": 0.5, "voltdb": 0.25, "other": 0.25}
        metrics = {
            **{f"{p}.self_share": {"value": v} for p, v in shares.items()},
            "phoenix.plans.self_share": {"value": 0.125},  # a file sub-total
            "sql.parse_us_per_stmt": {"value": 3.0},
        }
        run = {"seed": 1, "metrics": {"setup_s": {"value": 1.0}}}
        record = {"workloads": {"fed-route": {"runs": [run, run]}}}
        assert set(tool.row(record, "c")) == self.SHAPE
        # one run.py --trace 1 result, or a battery record with traced runs
        traced = {"workload": "fed-route", "trace": True, "metrics": metrics}
        assert tool.row(record, "c", (traced,))["layers"] == {"fed-route": shares}
        record["workloads"]["fed-route"]["traced"] = traced
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        assert tool.main([str(path), "c"]) == 0
        assert json.loads(capsys.readouterr().out)["layers"] == {"fed-route": shares}
        assert set(shares) <= self.packages()


def _tool(name: str):
    """Import ``tools/<name>.py`` (a script directory, not a package)."""
    path = Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSettableSurface:
    """A setting is something a workload sets. ``tools/config_table.py``
    derives the settable surface from the config dataclasses; every
    field needs a setter outside tests and examples (or is a
    ``CostModel`` price, or a declared behaviour selector), and the
    table in ``docs/ARCHITECTURE.md`` is generated from the same walk."""

    def test_every_field_is_earned_and_the_doc_table_is_current(self, capsys):
        code = _tool("config_table").main(["--check"])
        assert code == 0, capsys.readouterr().err

    def test_surface_is_counted(self):
        tool = _tool("config_table")
        counts = {
            cls.__name__: len(dataclasses.fields(cls))
            for cls in tool.config_classes()
        }
        assert counts == {
            "CostModel": 21,
            "ReplicationConfig": 3,
            "ServingConfig": 4,
            "ClusterConfig": 7,
            "FaultConfig": 5,
        }

    def test_no_policy_argument_survives(self):
        """One balancer, one failover protocol, one rollout pacing: the
        ``policy`` parameters (and the classes that only carried them)
        are gone, and ``ClusterPlan.balance`` is on or off."""
        from repro.hbase.cluster import RegionBalancer
        from repro.orchestration import ClusterPlan, Orchestrator, Rebalance
        from repro.bench.suites.faults import chaos_cell
        from repro.hbase import chaos
        from repro.orchestration import orchestrator

        for fn in (
            RegionBalancer, Rebalance, Orchestrator, chaos_cell, chaos.run_cell,
            chaos.chaos_put, chaos.chaos_get, chaos.chaos_scan, chaos._client,
        ):
            assert "policy" not in inspect.signature(fn).parameters, fn
        assert not hasattr(chaos, "FailoverPolicy")
        assert not hasattr(orchestrator, "RolloutPolicy")
        assert ClusterPlan(servers=1).balance is True


def _imported(node: ast.AST) -> list[str]:
    """The modules an import statement names (``from m import n`` names
    ``m.n``: ``n`` may be a module)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [f"{base}.{alias.name}" for alias in node.names]
    return []


def _stray(module: str) -> bool:
    """Another test module, or shared test code by a relative or bare name."""
    parts = module.split(".")
    return parts[0] in ("", "reference", "conftest") or any(
        part.startswith("test_") for part in parts
    )


class TestImportGraph:
    """Shared test code is ``tests.reference`` (the executable
    specifications) and ``tests.conftest`` (builders and fixtures): no
    test module imports another, and nothing imports either by a bare
    name, which would load a second copy under another module name."""

    def test_no_test_module_imports_another(self):
        root = Path(__file__).parents[1]
        stray = [
            f"{path.relative_to(root)}:{node.lineno} {module}"
            for path in sorted((root / "tests").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (module := next(filter(_stray, _imported(node)), None))
        ]
        assert not stray, "\n".join(stray)


class TestCheckAnchors:
    """``tools/check_anchors.py`` on synthetic runs: exit 0 only when
    every baseline series is present and every shared point is equal."""

    BASELINE = {
        "A": {"50": {"mean": 1.0}, "500": {"mean": 2.0}},
        "B": {"50": {"mean": 3.0}},
    }

    def run(self, current_series):
        def wrap(series):
            return {"experiments": {"Fig11": {"series": series}}}

        return _tool("check_anchors").compare(
            wrap(current_series), wrap(self.BASELINE)
        )

    def test_equal_runs_pass(self):
        code, report = self.run(self.BASELINE)
        assert code == 0 and report["ok"] and report["checked"] == 3

    def test_one_drifted_stat_fails_and_is_named(self):
        code, report = self.run(
            {"A": {"50": {"mean": 1.0}, "500": {"mean": 2.5}},
             "B": {"50": {"mean": 3.0}}}
        )
        assert code == 1 and report["drifted"] == 1
        assert report["failures"][0]["series"] == "A"
        assert "mean" in report["failures"][0]["detail"]

    def test_a_subset_sweep_is_legal(self):
        # --micro-scales 50 against a 50/500 baseline
        code, report = self.run({"A": {"50": {"mean": 1.0}},
                                 "B": {"50": {"mean": 3.0}}})
        assert code == 0 and report["ok"] and report["checked"] == 2

    def test_a_vanished_series_fails(self):
        # a renamed system: every remaining point is still bit-identical
        code, report = self.run(
            {"A": {"50": {"mean": 1.0}, "500": {"mean": 2.0}},
             "B-renamed": {"50": {"mean": 3.0}}}
        )
        assert code == 1 and not report["ok"]
        assert [f["series"] for f in report["failures"]] == ["B"]

    @pytest.mark.parametrize(
        "before,after", [(None, {"mean": 9.0}), ({"mean": 1.0}, None)],
        ids=["X cell measured", "measured cell became X"],
    )
    def test_a_null_cell_is_compared_not_skipped(self, before, after):
        # Fig. 12's VoltDB cells the system cannot run are null
        baseline = {"experiments": {"Fig12": {"series": {"A": {"50": before}}}}}
        current = {"experiments": {"Fig12": {"series": {"A": {"50": after}}}}}
        code, report = _tool("check_anchors").compare(current, baseline)
        assert code == 1 and report["checked"] == 1 and report["skipped"] == 0

    def test_no_overlap_is_a_usage_error(self):
        code, report = self.run({"A": {"5000": {"mean": 9.0}},
                                 "B": {"5000": {"mean": 9.0}}})
        assert code == 2 and report["checked"] == 0


class TestReach:
    """``tools/reach.py``: the census names exactly the functions
    ``src/repro`` defines, and every one no workload reaches is allowed
    with a reason that is not "a test calls it"."""

    def test_every_function_is_reached_or_allowed(self, capsys):
        code = _tool("reach").main(["--check"])
        assert code == 0, capsys.readouterr().err

    SAMPLE = '''\
import abc


def outer():
    def inner():
        return 1

    return inner


class Box(abc.ABC):
    @property
    def size(self):
        return self._size

    @size.setter
    def size(self, value):
        self._size = value

    @staticmethod
    def made(
        x,
    ):
        return x

    @abc.abstractmethod
    def shape(self):
        """What it is."""
'''

    @pytest.fixture
    def found(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text(self.SAMPLE)
        return {d.key: d for d in _tool("reach").definitions(path, "sample")}

    LINES = SAMPLE.splitlines()

    def test_definitions_are_keyed_as_their_code_objects(self, found):
        assert sorted(found) == [
            "sample:Box.made",
            "sample:Box.shape",
            "sample:Box.size",
            "sample:Box.size#2",
            "sample:outer",
            "sample:outer.<locals>.inner",
        ]
        code_lines: dict[str, set[int]] = {}

        def collect(code):
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    code_lines.setdefault(const.co_qualname, set()).add(
                        const.co_firstlineno
                    )
                    collect(const)

        collect(compile(self.SAMPLE, "sample.py", "exec"))
        for key, definition in found.items():
            qualname = key.partition(":")[2].partition("#")[0]
            assert definition.first in code_lines[qualname], key

    def test_nested_function_lines_are_its_own(self, found):
        assert found["sample:outer.<locals>.inner"].lines == 2
        assert found["sample:outer"].lines == 5 - 2

    def test_property_pair_is_one_qualname_two_code_objects(self, found):
        getter, setter = found["sample:Box.size"], found["sample:Box.size#2"]
        assert self.LINES[getter.first - 1].strip() == "@property"
        assert self.LINES[setter.first - 1].strip() == "@size.setter"

    def test_decorated_function_starts_at_its_decorator(self, found):
        made = found["sample:Box.made"]
        assert self.LINES[made.first - 1].strip() == "@staticmethod"
        assert made.lines == 5

    def test_abstract_stub_is_a_declaration(self, found):
        assert found["sample:Box.shape"].declaration
        assert not any(
            d.declaration for k, d in found.items() if k != "sample:Box.shape"
        )
