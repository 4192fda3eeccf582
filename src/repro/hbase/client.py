"""Client API: connection + HTable with the five primitives.

The client charges what a real HBase client pays: one RPC round trip
per addressed region, result bytes over the wire, and scanner batches
(``Scan`` streams ``scan_batch_rows`` rows per ``next()`` round trip).
Server-side work (seeks, per-row materialization, WAL syncs) is charged
by the region server it lands on.

Region locations are cached client-side (mirroring real HBase meta
caching): point ops consult the last-hit region first and fall back to
the table descriptor's binary search only on a range miss or when the
descriptor's region layout version moved (split/drop/recovery). A
cached location can still go stale *mid-operation* — a region can split
or fail over between resolution and execution — in which case the op
observes the offline region, pays one extra meta round trip,
re-resolves, and retries against the live successor (real HBase's
NotServingRegionException dance). Scans do the same: a split or a
completed recovery under an open scanner makes the client reopen at
the next undelivered row on whichever region now owns it, so one
logical scan seamlessly crosses split and failover boundaries. A
region that is down with no successor yet (crashed, master recovery
pending) propagates `RegionUnavailableError` to the caller — under a
scheduled chaos run the client program backs off, yields and retries
(see ``repro.hbase.chaos``) — and the per-operation relocation budget
is bounded by ``MAX_LOCATION_RETRIES``, surfacing a typed
`RegionRetriesExhaustedError` instead of an unbounded meta-retry loop.

Under a multi-client scheduler (``sim.concurrency`` installed) every
operation additionally queues on the region server that hosts the
addressed region — per-partition work routes to its owning server, so
scale-out genuinely parallelizes. Single-client runs skip all of it and
stay bit-identical.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import RegionRetriesExhaustedError, RegionUnavailableError
from repro.hbase.cell import Result
from repro.hbase.cluster import HBaseCluster
from repro.hbase.ops import Delete, Get, Put, Scan
from repro.hbase.region import Region
from repro.sim.latency import LatencyCharger


MAX_LOCATION_RETRIES = 16
"""Relocations one operation may pay before giving up with a
:class:`~repro.errors.RegionRetriesExhaustedError` — bounds the
meta-retry loop when a key range keeps resolving to regions that turn
out to be unavailable (deep split chains, repeated failover)."""

_FOLLOWER_MISS = object()
"""Sentinel: no eligible follower served the read — use the primary."""


class HTable:
    """Client-side view of one table."""

    def __init__(
        self,
        cluster: HBaseCluster,
        name: str,
        follower_reads: bool = False,
    ) -> None:
        self.cluster = cluster
        self.name = name
        self.desc = cluster.descriptor(name)
        self.charge = LatencyCharger(cluster.sim, "client")
        self._cached_region: Region | None = None
        self._cached_version = -1
        self.follower_reads = follower_reads
        """Opt-in bounded-staleness reads: gets and scan windows are
        served by the most-caught-up region replica within the
        configured staleness bound, falling back to the primary when no
        follower qualifies. Reads are pinned to the follower's
        applied-WAL watermark — a prefix of acknowledged writes — so a
        follower can never return a never-acked value."""
        self.last_follower_lag: tuple[int, int] | None = None
        """After a follower-served :meth:`get`: ``(row_lag,
        entry_lag)`` — edits to the read row, and log entries overall,
        the serving follower had not yet applied. None when the primary
        served (reset at the start of every get). The chaos harness
        records this so the staleness oracle can check the exact value
        a bounded-lag read must have returned."""
        self.follower_scan_lag: list[tuple[int, dict[bytes, int]]] = []
        """One ``(entry_lag, missing_rows)`` record per follower-served
        scan window: the follower's total lag and, per row in the
        window's range, how many acked edits its watermark had not yet
        applied when the window opened."""

    # -- region-location cache --------------------------------------------------------
    def _locate(self, row: bytes) -> Region:
        """Resolve the region for ``row`` via the client-side location
        cache; invalidated whenever the descriptor's layout version moves."""
        region = self._cached_region
        if (
            region is not None
            and self._cached_version == self.desc.version
            and region.contains(row)
        ):
            return region
        region = self.desc.region_for(row)
        self._cached_region = region
        self._cached_version = self.desc.version
        return region

    def _relocate(self, region: Region, row: bytes) -> None:
        """A located region turned out to be offline mid-operation.

        When the meta table already knows a live successor for ``row``
        — the region split (daughters own the range) or master failover
        reopened it elsewhere (recovery swapped a fresh incarnation into
        the descriptor) — drop the cached location and pay one meta
        round trip so the caller retries against the successor. A region
        that is down with *no* successor yet propagates unchanged:
        recovery is the master's job, and waiting it out is the caller's
        (a chaos client program backs off, yields to the scheduler and
        retries — see ``repro.hbase.chaos``)."""
        if region.split_daughters is None:
            fresh = (
                self.desc.region_for(row) if self.desc.regions else None
            )
            if fresh is None or fresh is region or not fresh.online:
                # still down: nothing to relocate to yet
                raise  # noqa: PLE0704 - re-raise the active RegionUnavailableError
        self._cached_region = None
        self.charge.rpc()  # meta lookup to refresh the location

    # -- scheduled-run routing ----------------------------------------------------------
    def _enter_server(self, server, admission: bool = True):
        """Queue on the owning region server when a scheduler is
        driving multiple clients; no-op (and no cost) otherwise.

        When the server runs an admission controller, the request is
        offered to it *before* it queues: a request arriving past the
        queue bound is shed with a typed retryable
        :class:`~repro.errors.ServerOverloadedError` without consuming
        any server capacity. Returns ``(ctx, token)``; the token (the
        admission timestamp) must be handed back to
        :meth:`_exit_server` so the controller can observe the
        request's completed latency for its p99 estimate."""
        ctx = self.cluster.sim.concurrency
        token = None
        if ctx is not None:
            sim = self.cluster.sim
            if admission and server.admission is not None:
                now = sim.clock.now_ms
                token = server.admission.admit(
                    self.name, now, ctx.backlog_ms(server, now)
                )
            ctx.serial_enter((server,), sim, "hbase.queue_wait")
        return ctx, token

    def _exit_server(self, server, ctx, token) -> None:
        """Settle one server window opened by :meth:`_enter_server`."""
        if ctx is not None:
            sim = self.cluster.sim
            ctx.serial_exit((server,), sim)
            if token is not None:
                server.admission.complete(token, sim.clock.now_ms)

    def _routed(self, row: bytes, op_at):
        """Run ``op_at(region)`` against the located region, retrying
        through :meth:`_relocate` whenever the location was stale. The
        retry budget is bounded: an operation that keeps resolving to
        unavailable regions surfaces a typed
        :class:`~repro.errors.RegionRetriesExhaustedError` instead of
        looping on meta lookups forever."""
        for _ in range(MAX_LOCATION_RETRIES):
            region = self._locate(row)
            try:
                return op_at(region)
            except RegionUnavailableError:
                self._relocate(region, row)
        raise RegionRetriesExhaustedError(
            f"operation on row {row!r} of table {self.name} gave up "
            f"after {MAX_LOCATION_RETRIES} relocation attempts"
        )

    # -- point ops --------------------------------------------------------------------
    def get(self, op: Get) -> Result | None:
        if self.follower_reads:
            self.last_follower_lag = None
            rep = self.cluster.replication
            if rep is not None:
                result = self._follower_get(rep, op)
                if result is not _FOLLOWER_MISS:
                    return result
        return self._routed(op.row, lambda region: self._get_at(region, op))

    def _follower_get(self, rep, op: Get):
        """Serve ``op`` from the most-caught-up in-bound follower of the
        addressed region, or return the miss sentinel (no group, no
        follower within the staleness bound, or the follower died under
        the read) so the caller takes the primary path. Charges mirror
        :meth:`_get_at`, landed on the follower's server — which keeps
        serving while the primary's server is down: the whole point."""
        region = self._locate(op.row)
        follower = rep.follower_for_read(region)
        if follower is None:
            return _FOLLOWER_MISS
        self.charge.rpc()
        server = follower.server
        # no admission on the follower path: a shed would be raised
        # before the try below and so escape instead of falling back to
        # the primary — and bounding follower staleness, not follower
        # load, is this path's contract
        ctx, token = self._enter_server(server, admission=False)
        try:
            result = server.read_point(
                follower.region, op.row, op.columns, op.max_versions,
                op.time_range,
            )
            if result is not None:
                self.charge.transfer(result.size_bytes)
            # pin the observation: nothing yields between the read and
            # these counters, so they describe exactly the prefix read
            group = rep.groups[region.name]
            self.last_follower_lag = (
                rep.row_lag(region, follower, op.row),
                len(group.log) - follower.applied,
            )
            return result
        except RegionUnavailableError:
            return _FOLLOWER_MISS
        finally:
            self._exit_server(server, ctx, token)

    def _get_at(self, region: Region, op: Get) -> Result | None:
        # the round trip is charged before resolving the host: a stale
        # location still pays the wasted RPC that discovers it is stale
        self.charge.rpc()
        server = self.cluster.server_for(region)
        ctx, token = self._enter_server(server)
        try:
            result = server.serve_get(
                region, op.row, op.columns, op.max_versions, op.time_range
            )
            if result is not None:
                self.charge.transfer(result.size_bytes)
            return result
        finally:
            self._exit_server(server, ctx, token)

    def put(self, op: Put) -> None:
        self._routed(op.row, lambda region: self._put_at(region, op))

    def _put_at(self, region: Region, op: Put) -> None:
        self.charge.rpc()
        server = self.cluster.server_for(region)
        ctx, token = self._enter_server(server)
        try:
            ts = self.cluster.next_timestamp()
            server.apply_put(region, op.row, op.cells, ts)
            rep = self.cluster.replication
            if rep is not None:
                rep.after_write(region)  # ack_mode="all": sync ship
        finally:
            self._exit_server(server, ctx, token)

    def put_batch(self, ops: list[Put], _depth: int = 0) -> None:
        """Buffered multi-put: one RPC per addressed region, WAL batched.

        Relocation retries (a group's region splitting or failing over
        under the batch) share the bounded budget point ops have:
        re-dispatch depth past ``MAX_LOCATION_RETRIES`` surfaces a
        typed :class:`~repro.errors.RegionRetriesExhaustedError`."""
        if not ops:
            return
        if _depth >= MAX_LOCATION_RETRIES:
            raise RegionRetriesExhaustedError(
                f"put_batch on table {self.name} gave up after {_depth} "
                "relocation attempts"
            )
        regions = self.desc.regions
        if len(regions) == 1:
            # single-region table: every row lands there by definition
            grouped: list[tuple[Region, list[Put]]] = [(regions[0], ops)]
        else:
            # group by region in first-appearance order; consecutive
            # puts usually hit the same region, so test bounds inline
            groups: dict[int, tuple[Region, list[Put]]] = {}
            cur_region: Region | None = None
            cur_start: bytes = b""
            cur_end: bytes | None = None
            cur_append = None
            for op in ops:
                row = op.row
                if (
                    cur_append is None
                    or row < cur_start
                    or (cur_end is not None and row >= cur_end)
                ):
                    cur_region = self._locate(row)
                    cur_start = cur_region.start_key
                    cur_end = cur_region.end_key
                    group = groups.get(id(cur_region))
                    if group is None:
                        cur_list: list[Put] = []
                        groups[id(cur_region)] = (cur_region, cur_list)
                    else:
                        cur_list = group[1]
                    cur_append = cur_list.append
                cur_append(op)
            grouped = list(groups.values())
        for region, puts in grouped:
            try:
                self.charge.rpc()
                server = self.cluster.server_for(region)
                ctx, token = self._enter_server(server)
                try:
                    server.charge.wal_append()  # one group sync per batch
                    first_ts = self.cluster.reserve_timestamps(len(puts))
                    server.apply_puts(region, puts, first_ts)
                    rep = self.cluster.replication
                    if rep is not None:
                        rep.after_write(region)  # ack_mode="all"
                finally:
                    self._exit_server(server, ctx, token)
            except RegionUnavailableError:
                # the group's region split (or failed over) under the
                # batch: re-dispatch just these puts, regrouped against
                # the fresh layout
                self._relocate(region, puts[0].row)
                self.put_batch(puts, _depth + 1)

    def delete(self, op: Delete) -> None:
        self._routed(op.row, lambda region: self._delete_at(region, op))

    def _delete_at(self, region: Region, op: Delete) -> None:
        self.charge.rpc()
        server = self.cluster.server_for(region)
        ctx, token = self._enter_server(server)
        try:
            ts = self.cluster.next_timestamp()
            server.apply_delete(region, op.row, op.columns, ts)
            rep = self.cluster.replication
            if rep is not None:
                rep.after_write(region)  # ack_mode="all": sync ship
        finally:
            self._exit_server(server, ctx, token)

    def check_and_put(
        self,
        row: bytes,
        family: bytes,
        qualifier: bytes,
        expected: bytes | None,
        put: Put,
    ) -> bool:
        """Atomically: if current value of (family, qualifier) == expected
        (None = column absent), apply ``put`` and return True."""
        return self._routed(
            row,
            lambda region: self._check_and_put_at(
                region, row, family, qualifier, expected, put
            ),
        )

    def _check_and_put_at(
        self,
        region: Region,
        row: bytes,
        family: bytes,
        qualifier: bytes,
        expected: bytes | None,
        put: Put,
    ) -> bool:
        self.charge.check_and_put()
        server = self.cluster.server_for(region)
        ctx, token = self._enter_server(server)
        try:
            # the read half of the RMW pays what a Get pays: a server-
            # side seek plus, when the row exists, row materialization
            # and the compared bytes over the wire
            result = server.read_point(region, row, [(family, qualifier)])
            current = None
            if result is not None:
                self.charge.transfer(result.size_bytes)
                current = result.value(family, qualifier)
            if current != expected:
                return False
            ts = self.cluster.next_timestamp()
            server.apply_put(region, put.row, put.cells, ts)
            rep = self.cluster.replication
            if rep is not None:
                rep.after_write(region)  # ack_mode="all": sync ship
            return True
        finally:
            self._exit_server(server, ctx, token)

    # -- scans -------------------------------------------------------------------------
    def scan(self, op: Scan | None = None) -> Iterator[Result]:
        """Stream rows in key order across all overlapping regions.

        One streaming merged cursor per region (memstore + HFiles heap-
        merged), with the requested column set pushed down into the
        merge. Charges: per region one open RPC + seek; one RPC per
        ``scan_batch_rows`` rows transferred; server-side per-row read
        work for every row *examined* (filtered and deleted rows still
        cost reads).

        The region to read next is resolved lazily against the live
        layout, and the cursor tracks the next undelivered row key: when
        a region splits under the open scanner the client pays one meta
        round trip and reopens on the daughter that owns the cursor, so
        the merged stream crosses split boundaries without dropping or
        repeating rows.
        """
        op = op or Scan()
        if op.limit == 0:
            return  # nothing asked for: no RPC, no seek, no row read
        batch_size = self.cluster.config.cost.scan_batch_rows
        emitted = 0
        wanted = frozenset(op.columns) if op.columns else None
        scan_filter = op.filter
        limit = op.limit
        unlimited = limit is None
        charge_rpc = self.charge.rpc
        charge_transfer = self.charge.transfer
        size_bytes_of = Result.size_bytes.fget  # skip descriptor per row
        cursor = op.start_row  # next row key still to be examined
        stop_row = op.stop_row or None
        rep = self.cluster.replication if self.follower_reads else None
        skip_follower = False  # set when a follower died under a window
        while True:
            if not self.desc.regions:  # dropped table, stale handle
                return
            # regions tile the key space, so the next region to read is
            # a single O(log R) lookup, not a pass over the region list
            region = self.desc.region_for(cursor)
            if stop_row is not None and region.start_key >= stop_row:
                return
            start = max(cursor, region.start_key)
            stop = _min_stop(stop_row, region.end_key)
            follower = None
            if rep is not None and not skip_follower:
                follower = rep.follower_for_read(region)
            skip_follower = False
            if follower is not None:
                # serve this window from the follower, pinned to its
                # applied watermark; record the pinning (total lag +
                # per-row un-applied edit counts inside the window) so
                # the staleness oracle knows which rows the window was
                # allowed to be missing or behind on
                source = follower.region
                server = follower.server
                group = rep.groups[region.name]
                self.follower_scan_lag.append(
                    (
                        len(group.log) - follower.applied,
                        rep.missing_rows(region, follower, start, stop),
                    )
                )
            else:
                source = region
                server = self.cluster.server_for(region)
            ctx, token = self._enter_server(server)
            charge_rpc()  # open scanner on this region
            server.charge.seek()
            row_read = server.charge.row_read
            batch_rows = 0
            batch_bytes = 0
            relocate = False
            # the finally settles this region window on every exit —
            # normal completion, limit reached, split relocation, crash,
            # and a consumer abandoning the generator mid-iteration
            try:
                for key, result in source.scan(
                    start, stop, wanted, op.max_versions, op.time_range
                ):
                    cursor = key + b"\x00"  # resume point past this row
                    row_read()
                    if result is None:
                        continue
                    if scan_filter is not None and not scan_filter.accept(result):
                        continue
                    batch_rows += 1
                    batch_bytes += size_bytes_of(result)
                    if batch_rows >= batch_size:
                        charge_rpc()
                        charge_transfer(batch_bytes)
                        batch_rows = 0
                        batch_bytes = 0
                    emitted += 1
                    yield result
                    if not unlimited and emitted >= limit:
                        return
            except RegionUnavailableError:
                if follower is not None:
                    # the follower died under its window: retry the
                    # window (from the cursor) on the primary, without
                    # paying a meta relocation — the primary's location
                    # was never stale
                    skip_follower = True
                else:
                    # re-raises an unrecovered crash; on a split or a
                    # completed recovery: drops the cached location and
                    # pays the meta round trip, after which we reopen at
                    # the cursor on the region now owning it — one
                    # logical scan crosses split *and* failover
                    # boundaries seamlessly
                    self._relocate(region, cursor)
                    relocate = True
            finally:
                if batch_rows:  # rows yielded so far were delivered
                    charge_rpc()
                    charge_transfer(batch_bytes)
                self._exit_server(server, ctx, token)
            if relocate or skip_follower:
                continue
            if region.end_key is None or (
                stop_row is not None and region.end_key >= stop_row
            ):
                return
            cursor = region.end_key

    # -- stats -------------------------------------------------------------------------

def _min_stop(a: bytes | None, b: bytes | None) -> bytes | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class HBaseClient:
    """Connection façade: table handles + DDL passthrough."""

    def __init__(self, cluster: HBaseCluster) -> None:
        self.cluster = cluster
        self._tables: dict[str, HTable] = {}

    def table(self, name: str) -> HTable:
        if name not in self._tables:
            self._tables[name] = HTable(self.cluster, name)
        return self._tables[name]

    def create_table(
        self,
        name: str,
        families: tuple[bytes, ...] = (b"cf",),
        split_keys: list[bytes] | None = None,
        max_versions: int | None = None,
    ) -> HTable:
        self.cluster.create_table(name, families, split_keys, max_versions)
        return self.table(name)

    def has_table(self, name: str) -> bool:
        return self.cluster.has_table(name)
