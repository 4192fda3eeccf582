"""Latency-charging helpers shared by the storage and SQL engines.

A :class:`LatencyCharger` wraps a :class:`~repro.sim.clock.Simulation`
and exposes semantically named charge methods (one per physical effect),
so call sites read like the mechanism they model::

    charger.rpc()                    # one round trip
    charger.rows_read(n)             # server-side row materialization
    charger.transfer(num_bytes)      # result bytes over the wire

Each charges under a ``{component}.{effect}`` label, its counter's name
where it has one. Counters and labels are resolved once per charger —
the read/write paths call these methods per row, so the per-call work
is kept to a counter increment plus one ``Simulation.charge``. This is
the only module besides ``sim/clock.py`` that writes the clock
directly: the per-row read/write charges skip ``charge`` when the
simulation is jitter-free and untraced (same number, two calls fewer
per row).
"""

from __future__ import annotations

from repro.sim.clock import Simulation


class LatencyCharger:
    """Semantic layer over :meth:`Simulation.charge`."""

    def __init__(self, sim: Simulation, component: str) -> None:
        self.sim = sim
        self.component = component
        self.cost = sim.cost
        # cost model is frozen: snapshot the per-row constants
        self._read_row_ms = sim.cost.read_row_ms
        self._write_row_ms = sim.cost.write_row_ms
        metrics = sim.metrics
        self._rpc_name = f"{component}.rpc"
        self._transfer_name = f"{component}.transfer"
        self._version_name = f"{component}.version_checks"
        self._rpc_counter = metrics.counter(self._rpc_name)
        self._bytes_counter = metrics.counter(f"{component}.bytes")
        self._seek_counter = metrics.counter(f"{component}.seek")
        self._rows_read_counter = metrics.counter(f"{component}.rows_read")
        self._rows_written_counter = metrics.counter(f"{component}.rows_written")
        self._wal_counter = metrics.counter(f"{component}.wal_append")
        self._cap_counter = metrics.counter(f"{component}.check_and_put")

    # -- generic ------------------------------------------------------------------
    def rpc(self, count: int = 1) -> None:
        self._rpc_counter.inc(count)
        self.sim.charge(self.cost.rpc_base_ms * count, self._rpc_name)

    def transfer(self, num_bytes: int) -> None:
        if num_bytes <= 0:
            return
        kib = num_bytes / 1024.0
        self._bytes_counter.inc(num_bytes)
        self.sim.charge(self.cost.network_ms_per_kb * kib, self._transfer_name)

    # -- storage-side work -----------------------------------------------------------
    # the per-row charges run once per row on scan/load paths; when the
    # simulation is jitter-free and untraced the charge is a plain clock
    # bump (numerically identical to Simulation.charge, minus two calls)
    def seek(self, count: int = 1) -> None:
        self._seek_counter.inc(count)
        self.sim.charge(self.cost.seek_ms * count, self._seek_counter.name)

    def row_read(self) -> None:
        """``rows_read(1)`` specialized for the per-row scan loop."""
        self._rows_read_counter.value += 1
        sim = self.sim
        if sim.jitter_fraction or sim.trace is not None:
            sim.charge(self._read_row_ms, self._rows_read_counter.name)
        else:
            sim.clock._now_ms += self._read_row_ms

    def rows_read(self, n: int) -> None:
        if n <= 0:
            return
        self._rows_read_counter.value += n
        sim = self.sim
        if sim.jitter_fraction or sim.trace is not None:
            sim.charge(self._read_row_ms * n, self._rows_read_counter.name)
        else:
            sim.clock._now_ms += self._read_row_ms * n

    def rows_written_each(self, n: int) -> None:
        """``n`` separate one-row write charges, in row order: one
        jitter draw per row, and jitter-free the same left-to-right
        float sum (which ``rows_written(n)``'s single product is not)."""
        self._rows_written_counter.value += n
        sim = self.sim
        write_row_ms = self._write_row_ms
        if sim.jitter_fraction or sim.trace is not None:
            charge, what = sim.charge, self._rows_written_counter.name
            for _ in range(n):
                charge(write_row_ms, what)
        else:
            clock = sim.clock
            now_ms = clock._now_ms
            for _ in range(n):
                now_ms += write_row_ms
            clock._now_ms = now_ms

    def rows_written(self, n: int) -> None:
        if n <= 0:
            return
        self._rows_written_counter.value += n
        sim = self.sim
        if sim.jitter_fraction or sim.trace is not None:
            sim.charge(self._write_row_ms * n, self._rows_written_counter.name)
        else:
            sim.clock._now_ms += self._write_row_ms * n

    def wal_append(self, count: int = 1) -> None:
        self._wal_counter.inc(count)
        self.sim.charge(self.cost.wal_append_ms * count, self._wal_counter.name)

    def check_and_put(self, count: int = 1) -> None:
        self._cap_counter.inc(count)
        self.sim.charge(
            (self.cost.rpc_base_ms + self.cost.check_and_put_ms) * count,
            self._cap_counter.name,
        )

    def version_checks(self, n_cells: int) -> None:
        if n_cells <= 0:
            return
        self.sim.charge(self.cost.mvcc_version_check_ms * n_cells, self._version_name)
