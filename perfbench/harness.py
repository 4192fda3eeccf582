"""Shared measuring code: recorder, run loop, metric assembly.

One run = set-up (repeated ``sizes["setups"]`` times, median reported),
one untimed warm-up, one ``gc.collect()``, then a *fixed* number of
rounds derived from ``--seconds``. The work is fixed, not the time, so
the virtual-clock metrics of two runs with the same seed are identical
to the last digit on any host; ``Workload.round_seconds`` is calibrated
so ``--seconds N`` measures for about N host seconds on the reference
box.

Host times are *calibrated*. The box this was built on flips between a
quiet and a ~1.7x slower state every 0.1 s to several seconds
(identical statements slow down together; process CPU time tracks wall
time), and stays mostly slow for minutes at a time: ten raw runs of one
workload spread by 15-40 % (IQR/median), which no repetition inside a
run averages out. So every timed stretch is cut into *segments* of
about ``SEGMENT_S``, a fixed pure-python kernel
(:func:`calibration_kernel`) runs at every cut, and the times inside a
segment are scaled by ``KERNEL_NOMINAL_S / mean kernel time at its two
ends``: a host metric reads as "time on the reference box in its quiet
state". The kernel uses nothing from ``src/``, so a change to the
program cannot move it. Raw, unscaled values are kept in the result
record under ``raw``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.sim.scheduler import percentile

from perfbench.manifest import DEFAULT_SEED, manifest

OUT_DIR = Path(__file__).resolve().parent / "out"
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
MIN_ROUNDS = 3
SPIN_ITERATIONS = 4_400_000
"""Fixed pure-python spin; about 200 ms on the reference box when idle."""
KERNEL_NOMINAL_S = 0.0025
"""What :func:`calibration_kernel` takes on the reference box when quiet."""
SEGMENT_S = 0.15
"""The box flips between a quiet and a ~1.7x slower state on a 0.1 s to
seconds timescale, so the kernel runs about this often."""
KERNEL_KEYS = [b"%010d" % ((i * 7919) % 12_000) for i in range(12_000)]
KERNEL_TABLE = {key: len(key) for key in KERNEL_KEYS}


def calibration_kernel() -> float:
    """Seconds a fixed piece of pure-python work takes right now. It is
    shaped like the simulator's inner loops — bytes keys looked up in a
    dict, a sort, slices — because a tight arithmetic loop feels the
    box's slow phases differently from object-heavy code. It allocates
    nothing the garbage collector tracks, so the size of the program's
    heap cannot move it."""
    started = time.perf_counter()
    table = KERNEL_TABLE
    total = 0
    for key in KERNEL_KEYS:
        total += table[key]
    for key in sorted(KERNEL_KEYS)[::3]:
        total += len(key[2:8])
    return time.perf_counter() - started


def environment() -> dict[str, Any]:
    """Host facts recorded beside every result, so a noisy neighbour is
    visible next to the numbers it polluted."""
    started = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i & 7
    spin_ms = (time.perf_counter() - started) * 1000.0
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "calib_spin_ms": spin_ms,
    }


class Recorder:
    """What one run observed: host samples, virtual samples, rounds,
    failures and (traced runs only) spans."""

    def __init__(self, trace: bool) -> None:
        self.host_us: list[float] = []
        """Host µs of every bracketed call into the program (calibrated
        once its segment has closed)."""
        self.raw_host_us: list[float] = []
        self.rounds: list[tuple[int, float, float]] = []
        """(bracketed calls, calibrated host seconds, raw host seconds)
        per round."""
        self.read_vms: list[float] = []
        self.write_vms: list[float] = []
        """Virtual ms per logical op, by kind."""
        self.makespan_ms = 0.0
        """Virtual time the committed ops took (sum over serial clients,
        scheduler makespan on multi-client workloads)."""
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.statements: set[str] = set()
        """Every distinct statement text issued (drives the sql drives)."""
        self.setup_s: list[tuple[float, float]] = []
        """(calibrated, raw) seconds per set-up."""
        self.setup_by_part: dict[str, float] = {}
        """Calibrated seconds of the latest set-up, per system."""
        self.cold_us: list[float] = []
        """Host µs per call of the warm-up (cold plan caches)."""
        self.spans: list[tuple] | None = [] if trace else None
        self.parent = -1
        self.segments: list[tuple[int, float, float]] = []
        """(bracketed calls, raw host seconds, speed factor) per segment."""
        self.profile: cProfile.Profile | None = None
        """Switched off around the calibration kernel while tracing."""
        self.next_cut = float("inf")
        """Host time of the next calibration cut (never, outside a
        timed stretch)."""
        self.kernel_s = 0.0  # kernel time at the running segment's start
        self.first = 0  # index in host_us where the running segment starts
        self.started = 0.0  # host time the running segment started

    # -- failures -----------------------------------------------------------------
    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(message)

    # -- calibrated segments ------------------------------------------------------
    def calibrate(self) -> float:
        """Median of three kernel runs (the profiler, if any, paused)."""
        if self.profile is not None:
            self.profile.disable()
        seconds = statistics.median(calibration_kernel() for _ in range(3))
        if self.profile is not None:
            self.profile.enable()
        return seconds

    def begin(self) -> None:
        """Start a timed stretch. From here to :meth:`end` the time is
        cut into segments of about ``SEGMENT_S`` with the kernel run at
        every cut; callers :meth:`tick` after each bracketed call."""
        self.kernel_s = self.calibrate()
        self.first = len(self.host_us)
        self.started = time.perf_counter()
        self.next_cut = self.started + SEGMENT_S

    def tick(self, now: float) -> None:
        if now >= self.next_cut:
            self.cut()

    def cut(self) -> None:
        """Close the running segment — scale the host samples taken in
        it to the reference box — and open the next one."""
        wall = time.perf_counter() - self.started
        kernel_s = self.calibrate()
        factor = KERNEL_NOMINAL_S / ((self.kernel_s + kernel_s) / 2.0)
        first = self.first
        self.raw_host_us.extend(self.host_us[first:])
        self.host_us[first:] = [us * factor for us in self.host_us[first:]]
        self.segments.append((len(self.host_us) - first, wall, factor))
        self.kernel_s = kernel_s
        self.first = len(self.host_us)
        self.started = time.perf_counter()
        self.next_cut = self.started + SEGMENT_S

    def end(self) -> None:
        self.cut()
        self.next_cut = float("inf")

    def since(self, mark: int) -> tuple[int, float, float]:
        """(calls, calibrated seconds, raw seconds) of the segments
        closed since ``mark = len(rec.segments)``."""
        segments = self.segments[mark:]
        return (
            sum(calls for calls, _, _ in segments),
            sum(wall * factor for _, wall, factor in segments),
            sum(wall for _, wall, _ in segments),
        )

    # -- spans --------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """A coarse span (setup / build / load / round ...); a no-op on
        untraced runs. Op spans are appended by the workloads directly
        with ``self.parent`` as their parent."""
        spans = self.spans
        if spans is None:
            yield
            return
        outer = self.parent
        index = self.parent = len(spans)
        spans.append(None)  # placeholder keeps parent ids ordered
        started = time.perf_counter()
        try:
            yield
        finally:
            spans[index] = (name, started, time.perf_counter(), outer, attrs)
            self.parent = outer

    def write_spans(self, path: Path) -> None:
        if not self.spans:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(s[1] for s in self.spans)
        with path.open("w") as out:
            for index, (name, started, ended, parent, attrs) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "parent": parent if parent >= 0 else None,
                    "name": name,
                    "start_us": round((started - origin) * 1e6, 1),
                    "end_us": round((ended - origin) * 1e6, 1),
                    **attrs,
                }) + "\n")


class Workload:
    """One benchmark workload. Subclasses fill in the phases; the run
    loop in :func:`run` is the same for all five."""

    name = ""
    round_seconds = 1.0
    """Host seconds one round costs on the reference box."""
    SIZES: dict[str, dict[str, Any]] = {}
    """Per size (``full`` / ``toy``) the workload's dimensions;
    ``setups`` is the number of set-ups per untraced run (``setup_s``
    is their median)."""

    def __init__(self, seed: int, size: str, rec: Recorder) -> None:
        self.seed = seed
        self.size = size
        self.rec = rec
        self.sizes: dict[str, Any] = dict(self.SIZES[size])
        self.digests: list[dict[str, Any]] = []
        """Per finished round: op count, row count, virtual ms spent and
        a digest of the results — compared with
        ``expected/<workload>.json`` on the default seed, and equal
        between any two runs of one seed."""

    def set_up(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed pass so plan caches and lazy state are warm."""

    def prepare_round(self, index: int) -> None:
        """Generate the round's inputs from the seed (untimed)."""

    def run_round(self, index: int) -> None:
        """The timed part: nothing but calls into the program and
        appends to the recorder."""
        raise NotImplementedError

    def finish_round(self, index: int) -> None:
        """Digest and judge the round's results (untimed)."""

    def check(self) -> None:
        """Result oracles; every rejection goes to ``rec.fail``."""

    def db_bytes(self) -> int:
        raise NotImplementedError

    def user_bytes(self) -> int:
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        """Counters and ratios this workload can observe per layer."""
        return {}


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / workload.round_seconds))


def _timed_round(
    workload: Workload,
    rec: Recorder,
    index: int,
    profile: cProfile.Profile | None = None,
) -> None:
    workload.prepare_round(index)
    mark = len(rec.segments)
    with rec.span("round", index=index):
        rec.begin()
        if profile is not None:
            rec.profile = profile
            profile.enable()
        workload.run_round(index)
        if profile is not None:
            profile.disable()
            rec.profile = None
        rec.end()
    rec.rounds.append(rec.since(mark))
    workload.finish_round(index)


def _check_expected(workload: Workload, rec: Recorder) -> None:
    path = EXPECTED_DIR / f"{workload.name}.json"
    if (
        workload.seed != DEFAULT_SEED
        or workload.size != "full"
        or not path.exists()
    ):
        return
    expected = json.loads(path.read_text())["rounds"]
    for index, (want, got) in enumerate(zip(expected, workload.digests)):
        if want != got:
            rec.fail(f"round {index}: results {got} differ from expected {want}")


def end_to_end(workload: Workload, rec: Recorder) -> dict[str, float]:
    every_vms = rec.read_vms + rec.write_vms
    return {
        "setup_s": statistics.median(s for s, _ in rec.setup_s),
        "host_ops_per_s": statistics.median(
            calls / wall for calls, wall, _ in rec.rounds
        ),
        "host_op_p50_us": percentile(rec.host_us, 0.50),
        "host_op_p95_us": percentile(rec.host_us, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual_read_ms_per_op": statistics.fmean(rec.read_vms),
        "virtual_write_ms_per_op": statistics.fmean(rec.write_vms),
        "virtual_p95_ms": percentile(every_vms, 0.95),
        "virtual_ops_per_s": len(every_vms) / (rec.makespan_ms / 1000.0),
        "db_bytes_per_user_byte": workload.db_bytes() / workload.user_bytes(),
    }


def run(
    workload_cls: type[Workload],
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    write_expected: bool = False,
) -> dict[str, Any]:
    """Run one workload once and return its full result record."""
    from perfbench import layers  # late: layers imports this module

    declared = manifest()
    rec = Recorder(trace)
    workload = workload_cls(seed, size, rec)
    rounds = rounds_for(workload, seconds)
    # the workload-independent drives run first, on a heap the
    # workload's systems have not filled yet
    drives = layers.independent_drives(size) if trace else {}

    for attempt in range(1 if trace else workload.sizes["setups"]):
        gc.collect()
        mark = len(rec.segments)
        with rec.span("setup", attempt=attempt):
            rec.begin()
            workload.set_up()
            rec.end()
        rec.setup_s.append(rec.since(mark)[1:])
    with rec.span("warmup"):
        workload.warm_up()
    gc.collect()

    profile = None
    traced_us_per_call = untraced_us_per_call = 0.0
    if trace:
        # one plain reference round, then a third of the rounds under
        # cProfile + spans; their per-call ratio is the tracing overhead
        _timed_round(workload, rec, 0)
        untraced_us_per_call = statistics.fmean(rec.host_us)
        mark = len(rec.host_us)
        profile = cProfile.Profile()
        for index in range(1, 1 + max(1, rounds // 3)):
            _timed_round(workload, rec, index, profile)
        traced_us_per_call = statistics.fmean(rec.host_us[mark:])
    else:
        for index in range(rounds):
            _timed_round(workload, rec, index)

    workload.check()
    if write_expected:
        EXPECTED_DIR.mkdir(exist_ok=True)
        (EXPECTED_DIR / f"{workload.name}.json").write_text(json.dumps(
            {"seed": seed, "rounds": workload.digests}, indent=1
        ) + "\n")
    else:
        _check_expected(workload, rec)

    section = declared["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if trace:
        values = {
            **dict.fromkeys(units, 0.0),  # what this workload cannot observe
            **layers.self_shares(profile),
            **drives,
            **layers.sql_drives(rec, workload),
            **workload.layer_metrics(),
            "trace_overhead_ratio": traced_us_per_call / untraced_us_per_call,
        }
        rec.write_spans(OUT_DIR / f"trace-{workload.name}.jsonl")
    else:
        values = end_to_end(workload, rec)
    if set(values) != set(units):
        raise KeyError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "sizes": workload.sizes,
        "rounds": len(rec.rounds),
        "timed_calls": len(rec.host_us),
        "round_digests": workload.digests,
        "raw": {
            "setup_s": statistics.median(s for _, s in rec.setup_s),
            "host_ops_per_s": statistics.median(
                calls / raw for calls, _, raw in rec.rounds
            ),
            "host_op_p50_us": percentile(rec.raw_host_us, 0.50),
            "host_op_p95_us": percentile(rec.raw_host_us, 0.95),
            "speed_factors": [round(f, 4) for _, _, f in rec.segments],
        },
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }


def print_result(result: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's one-line
    JSON object as the last line of standard output."""
    print(
        f"# {result['workload']} seed={result['seed']} rounds={result['rounds']} "
        f"timed_calls={result['timed_calls']} trace={int(result['trace'])}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6f} {metric['unit']}")
    for message in result["failures"]:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
