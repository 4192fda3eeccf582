"""Cost-model and cluster configuration.

``CostModel`` is the calibration: every price a figure depends on, in
one dataclass, so that every experiment is reproducible from a single
calibration point. The other classes hold what some suite or perfbench
workload actually sets; a tunable that nothing varies is a module
constant beside the code that reads it, and ``tools/config_table.py``
(run by ``tests/test_bench.py``) keeps it that way.

Calibration anchors (from the paper, Sections IX-B..IX-D):

* Tephra-style MVCC adds **800-900 ms** to every statement (begin +
  commit round trips through the transaction server) — we split this
  into ``mvcc_begin_ms`` + ``mvcc_commit_ms``.
* Acquiring and releasing 100 HBase row locks costs ~571 ms, with a
  sub-linear start (342 ms at 10 locks) attributable to fixed client
  setup cost, and near-linear growth after (2182 ms at 1000 locks).
  We model this as ``lock_client_setup_ms`` once per batch plus two
  ``checkAndPut`` round trips per lock.
* HBase joins are RPC-bound: Phoenix's index nested-loop join issues one
  Get round-trip per probe, a server-side scan streams rows in batches.
* VoltDB executes a single-partition stored procedure in ~1 ms.

The defaults were chosen so that the *relative* results of the paper's
figures emerge from operation counts; the measured figures are pinned in
``BENCH_PR1.json`` (``tools/check_anchors.py`` diffs a fresh
``python -m repro.bench`` run against it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.errors import ClusterConfigError


@dataclass(frozen=True)
class CostModel:
    """Virtual-time cost constants, all in milliseconds unless noted."""

    # --- generic RPC / network -------------------------------------------------
    rpc_base_ms: float = 0.8
    """One client <-> region-server round trip (request + response headers)."""

    network_ms_per_kb: float = 0.012
    """Marginal transfer cost per KiB moved between nodes."""

    # --- HBase server-side work ------------------------------------------------
    seek_ms: float = 0.05
    """Positioning a scanner / point lookup inside a region (memstore+HFiles)."""

    read_row_ms: float = 0.004
    """Server-side cost of materializing one row out of the store."""

    write_row_ms: float = 0.01
    """Server-side cost of applying one mutation to the memstore."""

    wal_append_ms: float = 0.35
    """Synchronous WAL append (HDFS pipeline hsync)."""

    phoenix_statement_ms: float = 18.0
    """Client-side per-statement overhead of the Phoenix JDBC driver
    (parse, plan, meta lookups). Calibrated so the cheapest Synergy
    statements land in the tens of milliseconds, as in the paper's
    Figs. 12/14; charged once per statement on every HBase-backed
    system (VoltDB has its own stored-procedure base cost)."""

    scan_batch_rows: int = 1000
    """Rows returned per scanner ``next()`` round trip."""

    # --- MVCC (Tephra-like) ----------------------------------------------------
    mvcc_begin_ms: float = 410.0
    """Start-transaction round trip to the transaction server."""

    mvcc_commit_ms: float = 440.0
    """canCommit + conflict detection + commit round trips."""

    mvcc_read_snapshot_ms: float = 2.0
    """Read-only snapshot handout (Tephra startShort round trip); far
    cheaper than a write transaction but not free."""

    mvcc_version_check_ms: float = 0.0008
    """Per-cell visibility check against the snapshot's exclusion list;
    roughly doubles the server-side cost of a scanned row."""

    # --- Synergy transaction layer ----------------------------------------------
    txlayer_dispatch_ms: float = 1.2
    """Client -> transaction-layer-slave hop for a write request."""

    lock_client_setup_ms: float = 310.0
    """Fixed client-side cost of the stand-alone locking *experiment* batch
    (connection + meta warm-up); charged once per ``LockBatch``, mirrors the
    sub-linear growth of Fig. 11. Not charged on the Synergy write path,
    which holds a warm connection."""

    check_and_put_ms: float = 0.096
    """Server-side compare-and-swap logic on the lock table row, on top
    of the separately charged read half (seek + row materialization,
    0.05 + 0.004 ms — together the original 0.15 ms calibration, so the
    Fig. 11 anchors are preserved now that ``check_and_put`` charges its
    read like a ``get``)."""

    mark_row_ms: float = 0.01
    """Marking/unmarking one view row dirty (update procedure steps 3/5)."""

    # --- VoltDB ------------------------------------------------------------------
    voltdb_proc_base_ms: float = 8.0
    """Client-observed single-partition stored-procedure round trip
    (the paper measures tau at the client over the EC2 network)."""

    voltdb_row_ms: float = 0.0006
    """Per-row in-memory processing cost inside a partition executor."""

    voltdb_multipart_ms: float = 4.0
    """Extra coordination cost of a multi-partition transaction."""

    # --- storage accounting (bytes, not ms) ---------------------------------------
    kv_overhead_bytes: int = 24
    """Per-cell HBase KeyValue framing (key/value lengths, type, timestamp)."""

    voltdb_row_overhead_bytes: int = 8
    """Per-row overhead of the in-memory NewSQL engine."""


DEFAULT_COST_MODEL = CostModel()

CACHE_HIT_MS = 0.01
"""Server-side cost of serving a point read out of the row cache —
replaces the ``seek_ms + read_row_ms`` store lookup on a hit."""

HASH_CPU_MS_PER_ROW = 0.0005
"""Client-side per-row hash/sort work."""

SHIP_ENTRY_MS = 0.02
"""Virtual cost of applying one shipped WAL entry on a follower, waited
out on the shipper daemon's timeline."""


def price_list(cost: CostModel) -> dict[str, float]:
    """Every price a charge may name, in ms per unit of the quantity it
    states: the fields of ``cost`` and the three constants above.
    ``network_ms_per_kb`` is priced per byte (the field ÷ 1024, exact),
    so a transfer states the bytes it moves."""
    return {
        **asdict(cost),
        "network_ms_per_kb": cost.network_ms_per_kb / 1024.0,
        "CACHE_HIT_MS": CACHE_HIT_MS,
        "HASH_CPU_MS_PER_ROW": HASH_CPU_MS_PER_ROW,
        "SHIP_ENTRY_MS": SHIP_ENTRY_MS,
    }


@dataclass(frozen=True)
class ServingConfig:
    """Serving-layer knobs: the region-server row cache and the
    per-server admission controller with p99-targeted load shedding,
    three settings in all. Every table on a server is admitted against
    the same queue bound.

    Everything defaults *off*: ``row_cache_bytes=0`` installs no cache
    and ``admission_queue_ms=None`` installs no admission controller,
    so every pre-existing code path — and therefore every anchored
    figure latency — stays bit-identical."""

    row_cache_bytes: int = 0
    """Byte budget of the per-server LRU row cache. 0 disables the
    cache entirely (no counters, no lookups, identical charges)."""

    admission_queue_ms: float | None = None
    """Bounded request queue, expressed as the longest virtual backlog
    (ms of queued work) a server accepts before shedding an arriving
    request. ``None`` disables admission control entirely."""

    p99_budget_ms: float | None = None
    """Adaptive shedding target: when the p99 of recently completed
    requests on a server exceeds this budget, the effective queue bound
    shrinks by ``p99 / budget`` until the tail comes back under it.
    ``None`` leaves the queue bound static."""

    def __post_init__(self) -> None:
        if self.row_cache_bytes < 0:
            raise ClusterConfigError(
                f"row_cache_bytes must be >= 0, got {self.row_cache_bytes}"
            )
        if self.admission_queue_ms is not None and self.admission_queue_ms <= 0:
            raise ClusterConfigError(
                f"admission_queue_ms must be positive (or None to disable "
                f"admission control), got {self.admission_queue_ms}"
            )
        if self.p99_budget_ms is not None and self.p99_budget_ms <= 0:
            raise ClusterConfigError(
                f"p99_budget_ms must be positive (or None to disable "
                f"adaptive shedding), got {self.p99_budget_ms}"
            )
        if self.p99_budget_ms is not None and self.admission_queue_ms is None:
            raise ClusterConfigError(
                "p99_budget_ms requires admission_queue_ms (adaptive "
                "shedding scales the queue bound)"
            )

    @property
    def cache_enabled(self) -> bool:
        return self.row_cache_bytes > 0

    @property
    def admission_enabled(self) -> bool:
        return self.admission_queue_ms is not None


DEFAULT_SERVING_CONFIG = ServingConfig()


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster (mirrors the paper's EC2 testbed)."""

    num_region_servers: int = 5

    seed: int = 20170904  # CLUSTER'17 conference date

    region_split_threshold_bytes: int | None = None
    """Size-triggered mid-key region splitting: a region whose
    approximate size reaches this many bytes after a write batch is
    split (recursively, until every daughter is below the threshold or
    down to a single row). ``None`` disables splitting entirely, which
    keeps every pre-existing experiment's region layout — and therefore
    its simulated latency — bit-identical."""

    replica_count: int = 1
    """Region replication: total copies of each region, primary
    included, with primary-push WAL shipping, bounded-staleness follower
    reads and promotion-on-crash. The default 1 means *no* replication:
    no groups, no WAL taps, no shipper daemon, and every code path (and
    its simulated latency) as if replication did not exist."""

    serving: ServingConfig = field(default_factory=ServingConfig)

    def __post_init__(self) -> None:
        if self.num_region_servers < 1:
            raise ClusterConfigError(
                f"num_region_servers must be >= 1, got "
                f"{self.num_region_servers}"
            )
        if self.replica_count < 1:
            raise ClusterConfigError(
                f"replica_count must be >= 1, got {self.replica_count}"
            )
        if (
            self.region_split_threshold_bytes is not None
            and self.region_split_threshold_bytes <= 0
        ):
            raise ClusterConfigError(
                f"region_split_threshold_bytes must be positive (or None "
                f"to disable splitting), got "
                f"{self.region_split_threshold_bytes}"
            )


DEFAULT_CLUSTER_CONFIG = ClusterConfig()
