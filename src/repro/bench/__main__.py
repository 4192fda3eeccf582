"""CLI: regenerate every table and figure, or hold a suite to its gate.

    python -m repro.bench --scale 200 --reps 10 --out results.txt
    python -m repro.bench --only faults,replication --emit-json out.json
    python -m repro.bench --smoke all

Everything suite-specific here — the flags, the ``--only`` names, the
run loop, the smoke gates — is derived from
:data:`repro.bench.suites.SUITES`; ``--help`` lists each flag under the
suite that owns it. An unknown or empty ``--only`` exits nonzero with
the valid list, and a suite flag combined with an ``--only`` that does
not select its suite is rejected instead of silently ignored.

``--emit-json PATH`` writes a trajectory file: the run's ``config``
(``--scale``, ``--reps`` and the selected suites' own flags) and, per
experiment, the simulated-latency statistics (the paper's metric). It
holds virtual time only — host time is ``perfbench``'s — so reruns with
the same flags are byte-identical.

``--smoke <suite|all>`` runs a suite's CI gate locally: its small
``--only`` sweep through this same CLI path, here and in a fresh
interpreter under another ``PYTHONHASHSEED`` (byte-compared), with its
checks held against the JSON it emits. It exits 1 listing every failed
check; with ``--emit-json`` it writes each gate's sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile

from repro.bench.suite import IntList, Suite, failed
from repro.bench.suites import SUITES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate every table and figure of the paper.",
    )
    parser.add_argument("--scale", type=int, default=200,
                        help="TPC-W customers (paper: 1,000,000)")
    parser.add_argument("--reps", type=int, default=10,
                        help="repetitions per measurement (paper: 10)")
    for suite in SUITES:
        for flag in suite.flags:
            parser.add_argument(
                flag.option, dest=flag.dest, type=flag.kind,
                default=flag.default, help=f"[{suite.name}] {flag.help}",
            )
    parser.add_argument("--only", help="comma-separated subset of "
                        "experiments to run: " + ",".join(s.name for s in SUITES))
    parser.add_argument("--smoke", metavar="SUITE", help="run one suite's CI "
                        "smoke gate (or 'all') instead of a report")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument("--emit-json", help="write simulated-latency "
                        "trajectory JSON (with --smoke: the smoke report) "
                        "to this file")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _stray_flags(parser, args, selected: list[Suite]) -> list[str]:
    """Non-default flags owned by suites that will not run."""
    return sorted(
        f"{flag.option} (belongs to {suite.name!r})"
        for suite in SUITES
        if suite not in selected
        for flag in suite.flags
        if getattr(args, flag.dest) != parser.get_default(flag.dest)
    )


def _selected(parser, args) -> list[Suite]:
    """The suites ``--only`` asks for, in ``SUITES`` order."""
    if args.only is None:
        return list(SUITES)
    valid = ", ".join(s.name for s in SUITES)
    wanted = {s.strip() for s in args.only.split(",") if s.strip()}
    unknown = wanted - {s.name for s in SUITES}
    if unknown:
        parser.error(f"unknown experiments: {sorted(unknown)} (valid: {valid})")
    if not wanted:
        parser.error(f"--only selected no experiments (valid: {valid})")
    selected = [s for s in SUITES if s.name in wanted]
    stray = _stray_flags(parser, args, selected)
    if stray:
        parser.error(
            "flags for experiments not selected by --only would be "
            "silently ignored: " + ", ".join(stray)
        )
    return selected


def run_suites(selected: list[Suite], args, argv: list[str], say):
    """Run ``selected`` in order; returns ``(text report, JSON payload)``."""
    sections: list[str] = []
    experiments: dict[str, dict] = {}
    for suite in selected:
        out = suite.run(args, say)
        if isinstance(out, str):
            sections.append(out)
            continue
        for result in out:
            experiments[result.experiment_id] = result.to_dict()
            sections.append(result.to_text())
    payload = {
        # the output path is stripped so two runs of the same
        # experiment emit byte-identical files wherever they land
        "generated_by": "python -m repro.bench "
        + " ".join(_without_output_paths(argv)),
        "config": _config(selected, args),
        "experiments": experiments,
    }
    return "\n\n".join(sections), payload


def _config(selected: list[Suite], args) -> dict:
    """``scale``, ``reps`` and every flag the selected suites own; an
    :class:`IntList` sweep is recorded comma-joined, as typed."""
    config = {"scale": args.scale, "reps": args.reps}
    for suite in selected:
        for flag in suite.flags:
            value = getattr(args, flag.dest)
            if isinstance(flag.kind, IntList):
                value = ",".join(map(str, value))
            config[flag.dest] = value
    return config


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def smoke_suite(parser, suite: Suite, say) -> tuple[dict, list[str]]:
    """Hold one suite to its smoke gate; returns ``(report, failures)``."""
    argv = ["--only", suite.name, *shlex.split(suite.smoke.flags), "--quiet"]
    say(f"[smoke:{suite.name}] python -m repro.bench {' '.join(argv)}")
    opts = parser.parse_args(argv)
    first = _dump(run_suites(_selected(parser, opts), opts, argv, say)[1])
    sweep = json.loads(first)
    failures: list[str] = []
    rerun = f"rerun of `{' '.join(argv)}` in a fresh interpreter"
    try:
        if fresh_rerun(argv) != first:
            failures.append(f"{rerun} (another hash seed) is not byte-identical")
    except subprocess.CalledProcessError as exc:
        failures.append(f"{rerun} exited {exc.returncode}")
    failures += failed(suite.smoke.checks, sweep["experiments"])
    return {"sweep": sweep}, failures


def fresh_rerun(argv: list[str]) -> str:
    """``python -m repro.bench argv`` in a child interpreter whose
    ``PYTHONHASHSEED`` differs from this one's; returns its JSON, so a
    result that leans on set or dict-of-str order shows as a diff."""
    seed = os.environ.get("PYTHONHASHSEED", "")
    other = (int(seed) + 1) % 2**32 if seed.isdigit() else 1
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rerun.json")
        subprocess.run(
            [sys.executable, "-m", "repro.bench", *argv, "--emit-json", out],
            env={**os.environ, "PYTHONHASHSEED": str(other)},
            stdout=subprocess.DEVNULL,
            check=True,
        )
        with open(out) as f:
            return f.read()


def _smoke(parser, args, say) -> int:
    gated = [s for s in SUITES if s.smoke is not None]
    wanted = [s for s in gated if args.smoke in ("all", s.name)]
    if not wanted:
        parser.error(
            f"no smoke gate named {args.smoke!r} "
            f"(valid: all, {', '.join(s.name for s in gated)})"
        )
    stray = _stray_flags(parser, args, [])
    if args.only is not None:
        stray.insert(0, "--only")
    if stray:
        parser.error("--smoke runs each suite's own fixed configuration; drop "
                     + ", ".join(stray))
    reports: dict[str, dict] = {}
    failures: list[str] = []
    for suite in wanted:
        reports[suite.name], bad = smoke_suite(parser, suite, say)
        print(f"smoke[{suite.name}]: {len(suite.smoke.checks)} checks on "
              f"`{reports[suite.name]['sweep']['generated_by']}` "
              f"-> {'FAILED' if bad else 'ok'}")
        failures += [f"{suite.name}: {message}" for message in bad]
    if args.emit_json:
        with open(args.emit_json, "w") as f:
            f.write(_dump(reports))
    for failure in failures:
        print(f"smoke check failed — {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    say = (lambda _m: None) if args.quiet else (
        lambda m: print(f"  .. {m}", file=sys.stderr)
    )
    if args.smoke is not None:
        return _smoke(parser, args, say)
    report, payload = run_suites(_selected(parser, args), args, argv, say)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")
    if args.emit_json:
        with open(args.emit_json, "w") as f:
            f.write(_dump(payload))
    return 0


def _without_output_paths(argv: list[str]) -> list[str]:
    out: list[str] = []
    skip = False
    for arg in argv:
        if skip or arg in ("--emit-json", "--out"):
            skip = not skip  # the bare flag's value follows it
        elif not arg.startswith(("--emit-json=", "--out=")):
            out.append(arg)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
