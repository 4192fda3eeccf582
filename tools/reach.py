"""What the workloads run: a reachability census of ``src/repro``.

Usage::

    python tools/reach.py            # print the census and the allowlist
    python tools/reach.py --run      # run TRAFFIC under a hook, write reach.json
    python tools/reach.py --check    # AST only: reach.json is current, misses allowed

A function is anything ``def`` defines under ``src/repro``, keyed
``module:qualname`` (its code object's ``co_qualname``; a second
definition of one name in a module, such as a property setter, gets
``#2``). ``--run`` runs every command of ``TRAFFIC`` (what CI runs, the
examples and every benchmark workload) with a ``sitecustomize`` that
records the code object of every Python call, and writes each
function's status to ``tools/reach.json``: ``reached``, ``declaration``
(an abstract method or a ``...``/``pass``/``raise NotImplementedError``
stub no call reached) or ``unreached``. The rule ``--check`` enforces
is the one ``tools/config_table.py`` holds for config fields: a
function no workload reaches is named in ``ALLOW`` with the reason it
stays, and "a test calls it" is not a reason. Code only tests need
lives under ``tests/``. ``--check`` is what ``tests/test_bench.py`` runs.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CENSUS = ROOT / "tools" / "reach.json"


def _table(text: str) -> dict[str, str]:
    """``key`` lines, each followed by one indented value line."""
    lines = [line for line in text.splitlines() if line.strip()]
    keys = [line for line in lines if not line.startswith(" ")]
    values = [line.strip() for line in lines if line.startswith(" ")]
    if len(keys) != len(values):
        raise ValueError("every key line takes one indented value line")
    return dict(zip(keys, values))


TRAFFIC = _table(
    """
anchors
    -m repro.bench --only fig10,fig11,tpcw --micro-scales 50,500
      --scale 200 --reps 10 --emit-json {out}/anchors.json --quiet
smoke
    -m repro.bench --smoke all --emit-json {out}/smoke.json
benchmarks
    -m pytest -q -p no:cacheprovider perfbench/test_smoke.py
perfbench tpcw-serial
    perfbench/run.py --workload tpcw-serial --trace 1
perfbench scan-join
    perfbench/run.py --workload scan-join --trace 1
perfbench contended-txn
    perfbench/run.py --workload contended-txn --trace 1
perfbench serving-zipf
    perfbench/run.py --workload serving-zipf --trace 1
perfbench fed-route
    perfbench/run.py --workload fed-route --trace 1
example quickstart
    examples/quickstart.py
example custom_schema
    examples/custom_schema.py
""".replace("\n      ", " ")
)
"""What a workload runs: the arguments of one ``python`` process per
command, started from the repo root with ``src`` on the path. ``anchors``
and ``smoke`` are CI's jobs of those names (``{out}`` is a scratch
directory); ``benchmarks`` is the benchmark half of tier-1; a
``--trace 1`` perfbench run is CI's perfbench job plus the traced
rounds, which reach the per-layer metrics."""

REASONS = _table(
    """
safety
    a recovery, rollback, refusal or contention path no fault plan triggers
sql
    a statement form, plan shape or EXPLAIN text no workload statement uses
storage
    a write, read or column type of the HBase model no workload table uses
contract
    an abstract method its base class requires that no workload calls
cli
    a bench suite or option that only a full manual run exercises
"""
)
"""The reasons a function may stay unreached."""

ALLOW = _table(
    """
repro.synergy.txlayer:SynergyTransactionLayer.recover_slave
    safety: a stand-in replays a crashed slave's WAL; no plan crashes a slave
repro.synergy.txlayer:TransactionManagerSlave.crash
    safety: the slave crash that recover_slave starts from
repro.synergy.txlayer:TransactionManagerSlave.pending_entries
    safety: the WAL entries recover_slave replays
repro.errors:SqlSyntaxError.__init__
    safety: places a parse error in its text; every workload statement parses
repro.federation.session:FederatedSession.abort
    safety: unwinds a federated transaction; no workload session aborts
repro.federation.estimate:fallback_estimate
    safety: prices a backend that is neither HBase-backed nor VoltDB
repro.hbase.cache:RowCache.clear
    safety: a crashed server loses its cache; no workload crashes a server that runs one
repro.hbase.cache:RowCache.invalidate_region
    safety: a region leaving a server drops its cached rows; see clear
repro.sim.scheduler:ConcurrencyContext._owner_clock
    safety: a lock held across a yield; Synergy locks within one segment
repro.orchestration.steps:Dereplicate.describe
    safety: a rollback-only step names itself only if its own unwind fails
repro.orchestration.steps:RemoveServers.describe
    safety: a rollback-only step names itself only if its own unwind fails
repro.orchestration.steps:RestoreFollowers.describe
    safety: a rollback-only step names itself only if its own unwind fails
repro.orchestration.steps:RestoreMoves.describe
    safety: a rollback-only step names itself only if its own unwind fails
repro.orchestration.steps:UndrainServer.describe
    safety: a rollback-only step names itself only if its own unwind fails
repro.orchestration.steps:Dereplicate.inverse
    safety: the inverse of a rollback-only step; no rollback is rolled back
repro.orchestration.steps:RemoveServers.inverse
    safety: the inverse of a rollback-only step; no rollback is rolled back
repro.orchestration.steps:RestoreFollowers.inverse
    safety: the inverse of a rollback-only step; no rollback is rolled back
repro.orchestration.steps:RestoreMoves.inverse
    safety: the inverse of a rollback-only step; no rollback is rolled back
repro.orchestration.steps:UndrainServer.inverse
    safety: the inverse of a rollback-only step; no rollback is rolled back
repro.sql.ast:Literal.__str__
    sql: prints a constant; workload statements carry parameters
repro.sql.ast:Select.__str__
    sql: a statement prints as the text it parses from
repro.sql.ast:Insert.__str__
    sql: a statement prints as the text it parses from
repro.sql.ast:Update.__str__
    sql: a statement prints as the text it parses from
repro.sql.ast:Delete.__str__
    sql: a statement prints as the text it parses from
repro.sql.ast:DerivedTable.__str__
    sql: a statement prints as the text it parses from
repro.sql.analyzer:_flip_op
    sql: a filter written constant-first
repro.federation.decompose:_contains_param.<locals>.expr_has
    sql: a parameter inside a split fragment's conditions
repro.hbase.filters:AndFilter.accept
    sql: a scan with more than one pushed-down filter
repro.phoenix.operators:_aggregate.<locals>.update#2
    sql: COUNT(column)
repro.phoenix.operators:_aggregate.<locals>.update#3
    sql: MIN and MAX
repro.phoenix.operators:_constant
    sql: an aggregate other than COUNT over *
repro.phoenix.plans:ValuePredicate.bind
    sql: a residual filter on a constant that no scan could take
repro.phoenix.plans:ValuePredicate.bind.<locals>.test
    sql: the row predicate of a residual constant filter
repro.phoenix.plans:ValuePredicate.sources
    sql: the slot a residual constant filter reads
repro.phoenix.planner:PlannedQuery.explain
    sql: EXPLAIN text of a plan
repro.phoenix.plans:PlanNode.describe
    sql: EXPLAIN text of a plan
repro.phoenix.plans:PlanNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:ScanNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:SourceNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:SubqueryNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:FilterNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:HashJoinNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:NestedLoopJoinNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:SymmetricJoinNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:GroupByNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:SortNode._label
    sql: one EXPLAIN line
repro.phoenix.plans:LimitNode._label
    sql: one EXPLAIN line
repro.hbase.store:RowEntry.__init__
    storage: a delete of a row the memstore holds no entry for
repro.hbase.store:RowEntry.delete_column
    storage: a column delete
repro.hbase.store:RowEntry.from_sorted_cells
    storage: a major compaction that merges (a tombstone, extra versions, several components)
repro.hbase.store:_sort_newest_first
    storage: a write stamped older than its column's newest version
repro.hbase.store:HFile.keys_in_range
    storage: the row keys of flushed files
repro.hbase.cell:Result.versions
    storage: a multi-version read
repro.relational.datatypes:_encode_bool
    storage: a BOOL column
repro.relational.datatypes:_decode_bool
    storage: a BOOL column
repro.relational.datatypes:_encode_datetime
    storage: a DATETIME column
repro.federation.mediator:Mediator.load_row
    contract: a mediator is built over loaded backends
repro.federation.mediator:Mediator.finish_load
    contract: a mediator is built over loaded backends
repro.bench.suites.paper:run_fig13
    cli: --only fig13
repro.bench.suites.paper:run_table1
    cli: --only table1
"""
)
"""Unreached functions that stay, each as ``<reason>: <why>``."""

HOOK = """\
import atexit, cProfile, os, sys, threading

_out = os.environ.get("REACH_OUT")
if _out:
    _codes = {}

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _codes[id(code)] = code

    def _harvest(profile):
        for entry in profile.getstats():
            if not isinstance(entry.code, str):
                _codes[id(entry.code)] = entry.code

    _disable = cProfile.Profile.disable

    class _Profile(cProfile.Profile):
        # a profiler replaces the hook while it is enabled: keep what it
        # saw and put the hook back when it stops
        def disable(self):
            _disable(self)
            _harvest(self)
            sys.setprofile(_hook)

    cProfile.Profile = _Profile

    @atexit.register
    def _dump():
        sys.setprofile(None)
        seen = {f"{c.co_filename}\\t{c.co_firstlineno}" for c in _codes.values()}
        with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as f:
            f.write("\\n".join(sorted(seen)))

    sys.setprofile(_hook)
    threading.setprofile(_hook)
"""
"""The ``sitecustomize`` each traffic process starts with: the code
object of every Python call it makes, dumped at exit as
``filename<TAB>co_firstlineno`` lines."""


@dataclass(frozen=True)
class Definition:
    key: str
    path: Path
    first: int
    """``co_firstlineno``: the first decorator's line, else the ``def``'s."""
    lines: int
    """Lines the function spans from ``first``, nested definitions excluded."""
    declaration: bool


def _first_line(node: ast.AST) -> int:
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _span(node: ast.AST) -> int:
    return node.end_lineno - _first_line(node) + 1


def _nested(node: ast.AST) -> list[ast.AST]:
    """The definitions directly inside ``node``'s code."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(child)
        else:
            found += _nested(child)
    return found


def _is_declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = getattr(decorator, "id", None) or getattr(decorator, "attr", None)
        if name == "abstractmethod":
            return True
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring, or a bare ``...`` checked below
        if not body:
            return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return False


def definitions(path: Path, module: str) -> list[Definition]:
    """Every function ``path`` defines, keyed as its code object names
    it."""
    found: list[Definition] = []
    seen: Counter[str] = Counter()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in _nested(node):
            qualname = prefix + child.name
            if isinstance(child, ast.ClassDef):
                visit(child, qualname + ".")
                continue
            seen[qualname] += 1
            key = f"{module}:{qualname}"
            if seen[qualname] > 1:
                key += f"#{seen[qualname]}"
            own = _span(child) - sum(_span(inner) for inner in _nested(child))
            first = _first_line(child)
            found.append(Definition(key, path, first, own, _is_declaration(child)))
            visit(child, qualname + ".<locals>.")

    visit(ast.parse(path.read_text()), "")
    return found


def source_definitions() -> dict[str, Definition]:
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found.update((d.key, d) for d in definitions(path, module))
    return found


def _run_one(name: str, args: str, hook: Path, out: Path) -> set[tuple[Path, int]]:
    calls = out / name.replace(" ", "-")
    calls.mkdir()
    path = os.pathsep.join([str(hook), str(SRC), str(ROOT)])
    env = dict(os.environ, PYTHONPATH=path, REACH_OUT=str(calls))
    argv = [sys.executable, *args.format(out=out).split()]
    started = time.perf_counter()
    done = subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    if done.returncode:
        tail = done.stderr.decode(errors="replace")[-2000:]
        raise RuntimeError(f"{name} exited {done.returncode}:\n{tail}")
    print(f"{name}: {time.perf_counter() - started:.0f} s", file=sys.stderr)
    seen = set()
    for dump in calls.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.split("\t")
            seen.add(((ROOT / filename).resolve(), int(first)))
    return seen


def run(workers: int = 2) -> dict[str, str]:
    """Run ``TRAFFIC`` under the hook: each function's status."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        (out / "hook").mkdir()
        (out / "hook" / "sitecustomize.py").write_text(HOOK)
        with ThreadPoolExecutor(workers) as pool:
            jobs = [
                pool.submit(_run_one, name, args, out / "hook", out)
                for name, args in TRAFFIC.items()
            ]
            reached = set().union(*(job.result() for job in jobs))
    census = {}
    for key, d in source_definitions().items():
        if (d.path.resolve(), d.first) in reached:
            census[key] = "reached"
        else:
            census[key] = "declaration" if d.declaration else "unreached"
    return census


def problems(census: dict[str, str], defs: dict[str, Definition]) -> list[str]:
    found = []
    rerun = "rerun `tools/reach.py --run`"
    for key in sorted(defs.keys() - census.keys()):
        found.append(f"{key} is not in the census: {rerun}")
    for key in sorted(census.keys() - defs.keys()):
        found.append(f"{key} is in the census but defined nowhere: {rerun}")
    for key, status in sorted(census.items()):
        if key not in defs:
            continue
        stub = defs[key].declaration
        if status != "reached" and (status == "declaration") != stub:
            found.append(f"{key} is counted {status}, its body differs: {rerun}")
        if status == "unreached" and key not in ALLOW:
            found.append(
                f"{key} ({defs[key].lines} lines) is reached by no workload: "
                "drive it from a smoke, move it under tests/, delete it, "
                "or name it in ALLOW with its reason"
            )
    for key, why in ALLOW.items():
        if census.get(key) != "unreached":
            found.append(f"ALLOW names {key}, which is not an unreached function")
        reason, _, text = why.partition(": ")
        if reason not in REASONS or not text:
            found.append(f"ALLOW[{key!r}] must read '<one of {sorted(REASONS)}>: why'")
        elif re.search(r"\btest", text, re.IGNORECASE):
            found.append(f"ALLOW[{key!r}]: that a test uses it is not a reason")
    return found


def report(census: dict[str, str], defs: dict[str, Definition]) -> str:
    lines: Counter[str] = Counter()
    count: Counter[str] = Counter()
    for key, status in census.items():
        if key in defs:
            lines[status] += defs[key].lines
            count[status] += 1
    statuses = ("reached", "declaration", "unreached")
    summary = ", ".join(f"{s} {count[s]} ({lines[s]} lines)" for s in statuses)
    total = sum(lines.values())
    out = [f"{len(census)} functions, {total} lines under src/repro: {summary}"]
    for reason, meaning in REASONS.items():
        keys = [k for k, why in ALLOW.items() if why.startswith(reason + ":")]
        size = sum(defs[k].lines for k in keys if k in defs)
        out.append(f"\n{reason} ({meaning}): {len(keys)} functions, {size} lines")
        for key in keys:
            size = defs[key].lines if key in defs else "?"
            out.append(f"  {key} ({size}): {ALLOW[key].partition(': ')[2]}")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if argv == ["--run"]:
        CENSUS.write_text(json.dumps(run(), indent=1, sort_keys=True) + "\n")
    elif argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    census = json.loads(CENSUS.read_text())
    defs = source_definitions()
    found = problems(census, defs)
    if argv != ["--check"]:
        print(report(census, defs))
    for problem in found:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
