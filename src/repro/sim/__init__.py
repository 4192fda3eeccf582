"""Virtual-time simulation substrate.

Everything latency-related in the simulated cluster flows through a
:class:`~repro.sim.clock.SimClock` owned by a
:class:`~repro.sim.clock.Simulation`. Engines *charge* the work they
do as a named price times an integer quantity (RPCs, rows scanned,
bytes moved), priced from :func:`repro.config.price_list`; experiments
measure elapsed virtual time, which plays the role of the paper's
measured response time.

Multi-client runs go through the
:class:`~repro.sim.scheduler.DeterministicScheduler`: N virtual clients
with their own clocks, cooperatively interleaved by smallest virtual
timestamp (see ``docs/CONCURRENCY.md``).

Fault injection and the cluster cell sit above the HBase layer they
drive, in :mod:`repro.hbase.chaos` (see ``docs/FAULTS.md``).
"""

from repro.sim.clock import SimClock, Simulation, Stopwatch
from repro.sim.latency import LatencyCharger
from repro.sim.metrics import Counter, MetricsRegistry, percentile
from repro.sim.rng import derive_rng
from repro.sim.scheduler import (
    ClientStats,
    ConcurrencyContext,
    DeterministicScheduler,
    SchedulerReport,
    VirtualClient,
    run_transaction,
)

__all__ = [
    "SimClock",
    "Simulation",
    "Stopwatch",
    "LatencyCharger",
    "Counter",
    "MetricsRegistry",
    "derive_rng",
    "ClientStats",
    "ConcurrencyContext",
    "DeterministicScheduler",
    "SchedulerReport",
    "VirtualClient",
    "percentile",
    "run_transaction",
]
