"""What a bench suite *is*: the records ``repro.bench.suites.SUITES`` is
made of.

A :class:`Suite` declares, in one place, everything the entry points
used to hand-list separately: its ``--only`` name, the CLI flags it
owns, how to run it, and the smoke gate CI holds it to. Every suite
reports virtual time only (host time is ``perfbench``'s), so a rerun
with the same flags emits byte-identical JSON. The CLI
(``repro.bench.__main__``) derives its argparse flags, ``--only``
validation, stray-flag rejection, run loop and ``--smoke`` mode from
these records; nothing else knows which flag or gate belongs to which
suite.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: ``(message, predicate)`` — the message is what a *failed* check prints.
Check = tuple[str, Callable[[Mapping[str, Any]], bool]]


@dataclass(frozen=True)
class IntList:
    """argparse ``type=`` for comma-separated integer sweeps.

    Out-of-range, non-integer, repeated and empty lists are usage errors
    (argparse names the flag and exits 2) — never silently filtered into
    a smaller, possibly empty, sweep, nor measured twice."""

    minimum: int

    def __call__(self, text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated integers, got {text!r}"
            ) from None
        if min(values) < self.minimum:
            raise argparse.ArgumentTypeError(
                f"every value must be >= {self.minimum}, got {text!r}"
            )
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return values


@dataclass(frozen=True)
class Flag:
    """One suite-owned CLI flag; ``--dest-with-dashes`` on the command
    line. ``kind`` is ``int``, ``float`` or an :class:`IntList`."""

    dest: str
    kind: Callable[[str], Any]
    default: Any
    help: str

    @property
    def option(self) -> str:
        return "--" + self.dest.replace("_", "-")


@dataclass(frozen=True)
class Smoke:
    """A suite's CI gate, run by ``python -m repro.bench --smoke <suite>``.

    ``fn()`` (optional) runs one fixed high-signal cell — its defaults
    *are* the gate's configuration — and returns a counter dict that
    ``checks`` are evaluated against. ``flags`` is the ``--only
    <suite>`` flag string of a small sweep: it is run through the real
    CLI path — here, then in a fresh interpreter under another
    ``PYTHONHASHSEED``, and the two emitted JSON documents must be
    byte-identical — and ``sweep_checks`` are evaluated against its
    ``experiments`` block."""

    flags: str
    fn: Callable[[], Mapping[str, Any]] | None = None
    checks: tuple[Check, ...] = ()
    sweep_checks: tuple[Check, ...] = ()


def failed(checks: tuple[Check, ...], out: Mapping[str, Any]) -> list[str]:
    """Messages of every check ``out`` does not satisfy."""
    return [message for message, holds in checks if not holds(out)]


@dataclass(frozen=True)
class Suite:
    """One ``--only`` name.

    ``run(opts, say)`` receives the per-invocation namespace (every
    parsed flag by dest) and a progress callback, and returns either a
    list of ``ExperimentResult`` or a finished text section."""

    name: str
    run: Callable[[argparse.Namespace, Callable[[str], None]], Any]
    flags: tuple[Flag, ...] = ()
    smoke: Smoke | None = None
