"""The settable surface of the simulator, as a table.

Usage::

    python tools/config_table.py            # print the table
    python tools/config_table.py --write    # regenerate it in docs/ARCHITECTURE.md
    python tools/config_table.py --check    # exit 1 on an unearned field or a stale doc

A *setting* is a field of one of the config dataclasses (everything in
``repro/config.py`` plus ``FaultConfig``). The rule each one must meet:
some caller that is not a test or an example passes it a value — found
here as a keyword (or positional) argument of a call to the class under
``SETTER_ROOTS`` — or it is one of ``CostModel``'s prices (the
calibration, one value by design) or a ``KEPT`` behaviour selector. A
field that meets none of these belongs beside the code that reads it,
as a module constant. ``--check`` is what ``tests/test_bench.py`` runs.
"""

import ast
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import config  # noqa: E402
from repro.hbase.chaos import FaultConfig  # noqa: E402

DOC = ROOT / "docs" / "ARCHITECTURE.md"
BEGIN = "<!-- config-table:begin (tools/config_table.py --write; do not edit) -->"
END = "<!-- config-table:end -->"

SETTER_ROOTS = ("src", "perfbench")

CALIBRATION = config.CostModel

KEPT = {
    "ReplicationConfig.ack_mode": "`tests/test_replication.py` (sync-ship acks)",
    "ReplicationConfig.staleness_bound_entries": "`tests/test_replication.py`",
    "ClusterConfig.max_versions": "`tests/test_orchestration.py` (refuses < 1)",
}
"""Fields no non-test caller sets that stay anyway, with the test that
pins them: removing one removes function (sync acks, follower reads,
multi-version tables), which is not what a knob diet is for."""

INDIRECT = {
    "src/repro/bench/suites/faults.py": "the `chaos_cell` suites",
    "src/repro/bench/tpcw_lab.py": "every `TpcwLab` suite",
    "src/repro/bench/suites/paper.py": "the paper figures",
}
"""Setter files that are not themselves a suite or a workload."""


def config_classes() -> list[type]:
    classes = [
        cls
        for cls in vars(config).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == config.__name__
    ]
    return [*classes, FaultConfig]


def setters() -> dict[str, set[str]]:
    """``Class.field`` -> the files under ``SETTER_ROOTS`` that pass it;
    ``Class`` -> the files that construct it at all."""
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in config_classes()
    }
    found: dict[str, set[str]] = {}
    for root in SETTER_ROOTS:
        for path in sorted((ROOT / root).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name not in fields:
                    continue
                passed = fields[name][: len(node.args)]
                passed += [kw.arg for kw in node.keywords if kw.arg]
                if passed:  # a bare ``Class()`` is the default, not a caller
                    found.setdefault(name, set()).add(where)
                for field in passed:
                    found.setdefault(f"{name}.{field}", set()).add(where)
    return found


def exercised_by(path: str) -> str:
    if path in INDIRECT:
        return INDIRECT[path]
    stem = Path(path).stem
    if path.startswith("src/repro/bench/suites/"):
        return f"`--only {stem}`"
    if path.startswith("perfbench/workloads/"):
        return f"perfbench `{stem.replace('_', '-')}`"
    return f"`{path}`"


def default_of(field: dataclasses.Field) -> str:
    if field.default_factory is not dataclasses.MISSING:
        return f"`{field.default_factory.__name__}()`"
    return f"`{field.default!r}`"


def _names(files: list[str]) -> str:
    return ", ".join(f"`{f.removeprefix('src/repro/')}`" for f in files)


def build() -> tuple[str, list[str]]:
    """The table, and one complaint per field that has not earned its
    place (or per ``KEPT`` entry that no longer needs to be one)."""
    found = setters()
    rows, problems = [], []
    settable = 0
    not_a_field = set(KEPT)
    for cls in config_classes():
        fields = dataclasses.fields(cls)
        if cls is CALIBRATION:
            rows.append(
                f"| `{cls.__name__}.*` ({len(fields)} prices) | `config.py` "
                "| — (the calibration: one value by design) | every suite |"
            )
            continue
        for field in fields:
            settable += 1
            key = f"{cls.__name__}.{field.name}"
            not_a_field.discard(key)
            files = sorted(found.get(key, ()))
            if files and key in KEPT:
                problems.append(f"{key} has a setter now: drop it from KEPT")
            if files:
                who = _names(files)
                others = sorted(found.get(cls.__name__, set()) - set(files))
                if others:
                    who += f"; default taken by {_names(others)}"
                what = "; ".join(dict.fromkeys(exercised_by(f) for f in files))
            elif key in KEPT:
                who, what = "— (kept: selects behaviour)", KEPT[key]
            else:
                who = what = "—"
                problems.append(
                    f"{key} is set by nothing under {'/, '.join(SETTER_ROOTS)}/: "
                    "make it a module constant beside the code that reads it"
                )
            rows.append(f"| `{key}` | {default_of(field)} | {who} | {what} |")
    problems += [f"KEPT names {key}, not a field" for key in sorted(not_a_field)]
    calibration = len(dataclasses.fields(CALIBRATION))
    table = "\n".join(
        [
            BEGIN,
            "| field | default | set outside tests by | set value exercised by |",
            "|---|---|---|---|",
            *rows,
            "",
            f"{settable} settable fields + {calibration} calibration prices "
            f"= {settable + calibration}.",
            END,
        ]
    )
    return table, problems


def main(argv: list[str]) -> int:
    table, problems = build()
    text = DOC.read_text()
    if BEGIN not in text or END not in text:
        print(f"error: {DOC} has no config-table block", file=sys.stderr)
        return 2
    start, stop = text.index(BEGIN), text.index(END) + len(END)
    if argv == ["--write"]:
        DOC.write_text(text[:start] + table + text[stop:])
    elif argv == ["--check"]:
        if text[start:stop] != table:
            problems.append(
                f"{DOC.relative_to(ROOT)} is stale: run tools/config_table.py --write"
            )
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    else:
        print(table)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
