"""Latency-charging helpers shared by the storage and SQL engines.

A :class:`LatencyCharger` wraps a :class:`~repro.sim.clock.Simulation`
and exposes semantically named charge methods (one per physical effect),
so call sites read like the mechanism they model::

    charger.rpc()                    # one round trip
    charger.row_read()               # server-side row materialization
    charger.transfer(num_bytes)      # result bytes over the wire

Each names its price and counts the quantity it charges on a
``{component}.{effect}`` counter, under the counter's name as the label.
Counters are resolved once per charger — the read/write paths call
these methods per row, so the per-call work is kept to a counter
increment plus one ``Simulation.charge``. This is the only module
besides ``sim/clock.py`` that writes the clock directly: the two per-row
charges (``row_read``, ``rows_written``) skip ``charge`` when the
simulation is jitter-free and untraced (same number, two calls fewer
per row).
"""

from __future__ import annotations

from repro.sim.clock import Simulation


class LatencyCharger:
    """Semantic layer over :meth:`Simulation.charge`."""

    def __init__(self, sim: Simulation, component: str) -> None:
        self.sim = sim
        # the per-row fast paths bump the clock by these prices themselves
        self._read_row_ms = sim.prices["read_row_ms"]
        self._write_row_ms = sim.prices["write_row_ms"]
        counter = sim.metrics.counter
        self._rpc = counter(f"{component}.rpc")
        self._bytes = counter(f"{component}.bytes")
        self._seek = counter(f"{component}.seek")
        self._rows_read = counter(f"{component}.rows_read")
        self._rows_written = counter(f"{component}.rows_written")
        self._wal = counter(f"{component}.wal_append")
        self._cap = counter(f"{component}.check_and_put")
        self._versions = counter(f"{component}.version_checks")

    # -- generic ------------------------------------------------------------------
    def rpc(self) -> None:
        self._rpc.value += 1
        self.sim.charge(self._rpc.name, "rpc_base_ms", 1)

    def transfer(self, num_bytes: int) -> None:
        self._bytes.value += num_bytes
        self.sim.charge(self._bytes.name, "network_ms_per_kb", num_bytes)

    # -- storage-side work -----------------------------------------------------------
    def seek(self) -> None:
        self._seek.value += 1
        self.sim.charge(self._seek.name, "seek_ms", 1)

    def row_read(self) -> None:
        """One row materialized, once per row in the scan loop."""
        self._rows_read.value += 1
        sim = self.sim
        if sim.jitter_fraction or sim.trace is not None:
            sim.charge(self._rows_read.name, "read_row_ms", 1)
        else:
            sim.clock._now_ms += self._read_row_ms

    def rows_written(self, n: int) -> None:
        """``n`` separate one-row write charges, in row order: one
        jitter draw per row, and jitter-free the same left-to-right
        float sum (which one ``write_row_ms × n`` product is not)."""
        self._rows_written.value += n
        sim = self.sim
        if sim.jitter_fraction or sim.trace is not None:
            charge, what = sim.charge, self._rows_written.name
            for _ in range(n):
                charge(what, "write_row_ms", 1)
        else:
            write_row_ms = self._write_row_ms
            clock = sim.clock
            now_ms = clock._now_ms
            for _ in range(n):
                now_ms += write_row_ms
            clock._now_ms = now_ms

    def wal_append(self) -> None:
        self._wal.value += 1
        self.sim.charge(self._wal.name, "wal_append_ms", 1)

    def check_and_put(self) -> None:
        """The round trip and the server-side compare-and-swap, one draw."""
        self._cap.value += 1
        self.sim.charge(self._cap.name, ("rpc_base_ms", "check_and_put_ms"), (1, 1))

    def version_checks(self, n_cells: int) -> None:
        self._versions.value += n_cells
        self.sim.charge(self._versions.name, "mvcc_version_check_ms", n_cells)
