"""The settable surface of the simulator, as a table.

Usage::

    python tools/config_table.py            # print the table
    python tools/config_table.py --write    # regenerate it in docs/ARCHITECTURE.md
    python tools/config_table.py --check    # exit 1 on an unearned setting

The settable surface is every defaulted parameter a caller may pass: a
field of one of the config dataclasses (everything in ``repro/config.py``
plus ``FaultConfig``) and a defaulted parameter of any function, method
or ``__init__`` under ``src/repro``. The rule each one must meet: some
call under ``SETTER_ROOTS`` (the library, the perfbench workloads and
the examples, never a test) passes it a value. A ``CostModel`` price is
exempt (the calibration, one value by design), and so is a keyword
``KEEP`` names with its reason; "a test uses it" is not a reason. What
meets no part of the rule belongs beside the code that reads it, as a
module constant, or goes.

One walk reads every call (:func:`setters`). A call resolves by name to
the functions, methods and classes of that name; a class to its
``__init__``, else its dataclass fields, else its first base's
constructor; ``super().__init__`` to the enclosing class's bases. Two
shapes of a call through a value resolve to what the value holds: a
subscripted module-level literal (``_OPS[op](…)``) and a name bound by
a loop over a literal tuple (``for run in (run_fig12, …): run(…)``). A
positional argument sets the parameter it fills, and ``*args`` or
``**kwargs`` sets every one. A parameter whose default is its own name
(``def program(session=session)``) captures a value and is not checked.
``--check`` is what ``tests/test_bench.py`` runs.
"""

import ast
import dataclasses
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tools"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from reach import _table  # noqa: E402
from repro import config  # noqa: E402
from repro.hbase.chaos import FaultConfig  # noqa: E402

DOC = ROOT / "docs" / "ARCHITECTURE.md"
BEGIN = "<!-- config-table:begin (tools/config_table.py --write; do not edit) -->"
END = "<!-- config-table:end -->"

SETTER_ROOTS = ("src", "perfbench", "examples")

CALIBRATION = config.CostModel

INDIRECT = {
    "src/repro/bench/suites/faults.py": "the `chaos_cell` suites",
}
"""Setter files that are not themselves a suite or a workload."""

REASONS = _table(
    """
entry
    a process entry point: the command line fills it
storage
    a write or read option of the HBase model that ROADMAP item 23 decides
paper
    the size of one of the paper's evaluated systems, which no workload varies
indirect
    its callers reach it through a value the walk does not resolve
"""
)
"""The reasons a keyword no caller sets may stay."""

KEEP = _table(
    """
repro.bench.__main__:main(argv)
    entry: `python -m repro.bench` parses sys.argv
repro.hbase.ops:Put(timestamp)
    storage: a put stamped by its caller rather than by the region server
repro.hbase.ops:Put.add(timestamp)
    storage: a cell stamped by its caller rather than by the region server
repro.hbase.ops:Get(max_versions)
    storage: a read of more than the newest version
repro.hbase.ops:Get(time_range)
    storage: a read of the versions in a time range
repro.systems.synergy_sys:SynergySystem(num_tx_slaves)
    paper: the transaction layer's slave pool (Sec. VIII); Fig. 13 runs one slave
"""
)
"""Keywords no caller sets that stay, each as ``<reason>: <why>``."""


def config_classes() -> list[type]:
    classes = [
        cls
        for cls in vars(config).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == config.__name__
    ]
    return [*classes, FaultConfig]


@dataclasses.dataclass(frozen=True)
class Signature:
    """What a call can set. ``key`` is ``module:qualname`` of a function
    or ``module:Class`` of a constructor."""

    key: str
    positional: tuple[str, ...]
    """The parameters positional arguments fill, in order."""
    defaulted: tuple[str, ...]


@dataclasses.dataclass
class Class:
    bases: list[str]
    init: Signature | None = None
    """``__init__``, or a dataclass's fields; None for another class."""


def _name(node: ast.AST) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _signature(key: str, node: ast.FunctionDef, method: bool) -> Signature:
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    if method and "staticmethod" not in map(_name, node.decorator_list):
        ordered = ordered[1:]  # self or cls
    pairs = list(zip(ordered[len(ordered) - len(args.defaults) :], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    defaulted = tuple(a.arg for a, d in pairs if _name(d) != a.arg)
    return Signature(key, tuple(a.arg for a in ordered), defaulted)


def _dataclass(key: str, node: ast.ClassDef) -> Signature | None:
    """A dataclass's generated ``__init__``: one parameter per field."""
    decorators = [_name(getattr(d, "func", d)) for d in node.decorator_list]
    if "dataclass" not in decorators:
        return None
    fields = [
        (stmt.target.id, stmt.value is not None)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]
    return Signature(
        key, tuple(f for f, _ in fields), tuple(f for f, default in fields if default)
    )


class Index:
    """Every function, method and class of ``modules`` (dotted name ->
    parsed source), by its bare name."""

    def __init__(self, modules: dict[str, ast.Module]) -> None:
        self.functions: dict[str, list[Signature]] = {}
        self.methods: dict[str, list[Signature]] = {}
        self.classes: dict[str, list[Class]] = {}
        self.inits: list[Signature] = []
        for module, tree in modules.items():
            self._visit(tree, module + ":", None)

    def _visit(self, node: ast.AST, prefix: str, cls: Class | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                key = prefix + child.name
                info = Class([_name(b) for b in child.bases], _dataclass(key, child))
                self.classes.setdefault(child.name, []).append(info)
                self._visit(child, key + ".", info)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = prefix + child.name
                if cls is not None and child.name == "__init__":
                    cls.init = _signature(prefix[:-1], child, method=True)
                    self.inits.append(cls.init)
                else:
                    where = self.functions if cls is None else self.methods
                    sig = _signature(key, child, method=cls is not None)
                    where.setdefault(child.name, []).append(sig)
                self._visit(child, key + ".<locals>.", None)
            else:
                self._visit(child, prefix, cls)

    def constructors(self, name: str) -> list[Signature]:
        """What ``name(...)`` may set: each class of that name's own
        constructor, else its first base's that resolves."""
        found = []
        for cls in self.classes.get(name, ()):
            if cls.init is not None:
                found.append(cls.init)
                continue
            for base in cls.bases:
                if inherited := self.constructors(base):
                    found += inherited
                    break
        return found


def _literal_names(node: ast.AST) -> list[str] | None:
    """The names a literal tuple, list or dict (its values) holds."""
    if isinstance(node, ast.Dict):
        items = node.values
    elif isinstance(node, (ast.Tuple, ast.List)):
        items = node.elts
    else:
        return None
    names = [item.id for item in items if isinstance(item, ast.Name)]
    return names if len(names) == len(items) else None


class _Calls(ast.NodeVisitor):
    """Records, in ``found``, what each call of one file sets."""

    def __init__(
        self, index: Index, tree: ast.Module, where: str, found: dict[str, set[str]]
    ) -> None:
        self.index, self.where, self.found = index, where, found
        self.containers = {
            target.id: names
            for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and (names := _literal_names(stmt.value)) is not None
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        self.loops = {
            node.target.id: names
            for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.target, ast.Name)
            and (names := _literal_names(node.iter))
        }
        self.bases: list[list[str]] = []
        self.visit(tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bases.append([_name(b) for b in node.bases])
        self.generic_visit(node)
        self.bases.pop()

    def by_name(self, name: str) -> list[Signature]:
        if name in self.loops:
            return [s for n in self.loops[name] for s in self.by_name(n)]
        return self.index.functions.get(name, []) + self.index.constructors(name)

    def targets(self, func: ast.AST) -> list[Signature]:
        if isinstance(func, ast.Name):
            return self.by_name(func.id)
        if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            names = self.containers.get(func.value.id, ())
            return [s for n in names for s in self.by_name(n)]
        if not isinstance(func, ast.Attribute):
            return []
        called = getattr(func.value, "func", None)
        if func.attr == "__init__" and _name(called) == "super":
            bases = self.bases[-1] if self.bases else []
            return [s for b in bases for s in self.index.constructors(b)]
        index = self.index
        return (
            index.methods.get(func.attr, [])
            + index.functions.get(func.attr, [])
            + index.constructors(func.attr)
        )

    def visit_Call(self, node: ast.Call) -> None:
        spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        named = {kw.arg for kw in node.keywords}
        for sig in self.targets(node.func):
            if spread:
                passed = {*sig.positional, *sig.defaulted}
            else:
                passed = {*sig.positional[: len(node.args)], *named}
            if passed:  # a bare ``Class()`` is the default, not a caller
                self.found.setdefault(sig.key, set()).add(self.where)
            for param in passed & set(sig.defaulted):
                self.found.setdefault(f"{sig.key}({param})", set()).add(self.where)
        self.generic_visit(node)


def callers() -> dict[str, ast.Module]:
    """Every file under ``SETTER_ROOTS``, parsed, by repo path."""
    return {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
        for root in SETTER_ROOTS
        for path in sorted((ROOT / root).rglob("*.py"))
    }


def package(files: dict[str, ast.Module]) -> dict[str, ast.Module]:
    """The ``src/repro`` modules among ``files``, by dotted name."""
    modules = {}
    for where, tree in files.items():
        if where.startswith("src/repro/"):
            parts = Path(where).relative_to("src").with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            modules[module] = tree
    return modules


def setters(index: Index, files: dict[str, ast.Module]) -> dict[str, set[str]]:
    """``module:Callee(param)`` -> the ``files`` (repo path -> parsed
    source) that pass it; ``module:Callee`` -> those that pass it
    anything."""
    found: dict[str, set[str]] = {}
    for where, tree in files.items():
        _Calls(index, tree, where, found)
    return found


def keywords(index: Index) -> list[str]:
    """Every defaulted parameter a ``def`` in ``index`` declares, as
    ``module:Callee(param)`` (an ``__init__``'s under its class)."""
    sigs = [*index.inits]
    for group in (*index.functions.values(), *index.methods.values()):
        sigs += group
    return sorted({f"{s.key}({p})" for s in sigs for p in s.defaulted})


def keyword_problems(
    checked: list[str], found: dict[str, set[str]], keep: dict[str, str] = KEEP
) -> list[str]:
    """One complaint per ``checked`` keyword that nothing sets and ``keep``
    does not name, and per ``keep`` entry that is stale or has no
    reason."""
    problems = [
        f"{key} is set by nothing under {'/, '.join(SETTER_ROOTS)}/: make it a "
        "module constant beside the code that reads it, delete it, or name it "
        "in KEEP with its reason"
        for key in checked
        if key not in found and key not in keep
    ]
    for key, why in keep.items():
        if key not in checked or key in found:
            problems.append(f"KEEP names {key}, which is not an unset keyword")
        reason, _, text = why.partition(": ")
        if reason not in REASONS or not text:
            problems.append(
                f"KEEP[{key!r}] must read '<one of {sorted(REASONS)}>: why'"
            )
        elif re.search(r"\btest", text, re.IGNORECASE):
            problems.append(f"KEEP[{key!r}]: that a test uses it is not a reason")
    return problems


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
    """The table, and one complaint per setting that has not earned its
    place."""
    sources = callers()
    index = Index(package(sources))
    found = setters(index, sources)
    rows, problems = [], []
    settable = 0
    for cls in config_classes():
        fields = dataclasses.fields(cls)
        if cls is CALIBRATION:
            rows.append(
                f"| `{cls.__name__}.*` ({len(fields)} prices) | `config.py` "
                "| — (the calibration: one value by design) | every suite |"
            )
            continue
        constructor = f"{cls.__module__}:{cls.__name__}"
        for field in fields:
            settable += 1
            key = f"{cls.__name__}.{field.name}"
            files = sorted(found.get(f"{constructor}({field.name})", ()))
            if files:
                who = _names(files)
                others = sorted(found.get(constructor, set()) - set(files))
                if others:
                    who += f"; default taken by {_names(others)}"
                what = "; ".join(dict.fromkeys(exercised_by(f) for f in files))
            else:
                who = what = "—"
                problems.append(
                    f"{key} is set by nothing under {'/, '.join(SETTER_ROOTS)}/: "
                    "make it a module constant beside the code that reads it"
                )
            rows.append(f"| `{key}` | {default_of(field)} | {who} | {what} |")
    checked = keywords(index)
    problems += keyword_problems(checked, found)
    passed = sum(key in found for key in checked)
    calibration = len(dataclasses.fields(CALIBRATION))
    table = "\n".join(
        [
            BEGIN,
            "| field | default | set outside tests by | set value exercised by |",
            "|---|---|---|---|",
            *rows,
            "",
            f"{settable} settable fields + {calibration} calibration prices "
            f"= {settable + calibration}. {len(checked)} defaulted keywords: "
            f"{passed} set by a caller, the rest kept in `KEEP`.",
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
