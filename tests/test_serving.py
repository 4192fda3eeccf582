"""Serving-layer tests: row cache, admission control, Zipfian workload.

Covers the millions-of-users serving stack end to end: the byte-bounded
LRU row cache (deterministic eviction, coherence across every
invalidation path — writes, splits, moves, crash recovery, restart,
flush and compaction), the p99-targeted admission controller (shed
decisions bit-identical across reruns, typed retryable error absorbed
by the client failover path), the Zipfian workload generator, and the
serving bench cells the CI smoke asserts on.
"""

from __future__ import annotations

import pytest

from repro.bench.suite import failed
from repro.bench.suites.serving import (
    SERVING,
    SERVING_MODES,
    _serving_cell,
    run_serving,
)
from repro.config import ClusterConfig, ServingConfig
from repro.errors import (
    ClusterConfigError,
    RegionUnavailableError,
    ServerOverloadedError,
)
from repro.hbase.cache import ENTRY_OVERHEAD_BYTES, RowCache, missed
from repro.hbase.cell import Result
from repro.hbase.client import HBaseClient
from repro.hbase.cluster import HBaseCluster
from repro.hbase.ops import Delete, Get, Put
from repro.sim.clock import Simulation
from repro.sim.rng import derive_rng
from repro.tpcw.serving import _FOLD_MULTIPLIER, ServingWorkload, ZipfianPopulation

CF = b"cf"
Q = b"v"


def result_for(row: bytes, value: bytes) -> Result:
    return Result.from_sorted(row, {(CF, Q): [(1, value)]})


# --------------------------------------------------------------- ServingConfig
class TestServingConfig:
    def test_defaults_disable_everything(self):
        cfg = ServingConfig()
        assert not cfg.cache_enabled
        assert not cfg.admission_enabled

    def test_enabled_flags(self):
        cfg = ServingConfig(row_cache_bytes=1024, admission_queue_ms=4.0)
        assert cfg.cache_enabled
        assert cfg.admission_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(row_cache_bytes=-1),
            dict(admission_queue_ms=0.0),
            dict(admission_queue_ms=-2.0),
            dict(p99_budget_ms=5.0),  # budget without admission control
            dict(admission_queue_ms=4.0, p99_budget_ms=0.0),
            # every malformed qos pair is a config error, never a bare
            # TypeError: zero / negative / non-numeric weight, unnamed
            # table, wrong arity, not a pair at all
            dict(admission_queue_ms=4.0, qos_weights=(("t", 0.0),)),
            dict(admission_queue_ms=4.0, qos_weights=(("t", -1.0),)),
            dict(admission_queue_ms=4.0, qos_weights=(("t", "heavy"),)),
            dict(admission_queue_ms=4.0, qos_weights=(("", 1.0),)),
            dict(admission_queue_ms=4.0, qos_weights=(("t",),)),
            dict(admission_queue_ms=4.0, qos_weights=(5,)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ClusterConfigError):
            ServingConfig(**kwargs)


# ------------------------------------------------------------------- RowCache
class TestRowCache:
    def test_lookup_miss_then_hit(self):
        cache = RowCache(4096)
        assert missed(cache.lookup("r1", b"a", None))
        cache.insert("r1", b"a", None, result_for(b"a", b"x"))
        got = cache.lookup("r1", b"a", None)
        assert not missed(got)
        assert got.value(CF, Q) == b"x"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_negative_caching_distinguishes_none_from_absent(self):
        cache = RowCache(4096)
        cache.insert("r1", b"gone", None, None)
        got = cache.lookup("r1", b"gone", None)
        assert got is None
        assert not missed(got)
        assert cache.hits == 1

    def test_lru_eviction_order_is_strict(self):
        # capacity = exactly three entries (all rows/values equal-sized)
        entry = (
            ENTRY_OVERHEAD_BYTES + 1 + result_for(b"a", b"0123456789").size_bytes
        )
        cache = RowCache(3 * entry)
        log: list = []
        cache.eviction_log = log
        for row in (b"a", b"b", b"c"):
            cache.insert("r", row, None, result_for(row, b"0123456789"))
        # touch a so b becomes LRU, then insert d -> b evicted, then e -> c
        cache.lookup("r", b"a", None)
        cache.insert("r", b"d", None, result_for(b"d", b"0123456789"))
        cache.insert("r", b"e", None, result_for(b"e", b"0123456789"))
        assert [key[1] for key in log] == [b"b", b"c"]
        assert not missed(cache.lookup("r", b"a", None))

    def test_eviction_sequence_bit_identical_across_reruns(self):
        def run():
            rng = derive_rng(99, "cache-evict")
            cache = RowCache(2048)
            cache.eviction_log = []
            for _ in range(400):
                row = b"%04d" % int(rng.integers(0, 64))
                if missed(cache.lookup("r", row, None)):
                    cache.insert("r", row, None, result_for(row, bytes(24)))
            return cache.eviction_log, cache.stats()

        first_log, first_stats = run()
        second_log, second_stats = run()
        assert first_log == second_log
        assert first_stats == second_stats
        assert first_stats["evictions"] > 0

    def test_oversized_entry_skipped(self):
        cache = RowCache(128)
        cache.insert("r", b"big", None, result_for(b"big", bytes(512)))
        assert not cache._entries
        assert cache.size_bytes == 0

    def test_size_accounting_returns_to_zero(self):
        cache = RowCache(4096)
        for row in (b"a", b"b", b"c"):
            cache.insert("r1", row, None, result_for(row, b"xy"))
            cache.insert("r2", row, None, None)
        cache.invalidate_row("r1", b"a")
        cache.invalidate_region("r2")
        cache.invalidate_region("r1")
        assert not cache._entries
        assert cache.size_bytes == 0
        assert cache.invalidations == 6

    def test_variant_projections_are_separate_entries(self):
        cache = RowCache(4096)
        variant = RowCache.variant([(CF, Q)])
        cache.insert("r", b"a", None, result_for(b"a", b"full"))
        cache.insert("r", b"a", variant, result_for(b"a", b"proj"))
        assert cache.lookup("r", b"a", None).value(CF, Q) == b"full"
        assert cache.lookup("r", b"a", variant).value(CF, Q) == b"proj"
        cache.invalidate_row("r", b"a")  # drops every variant
        assert missed(cache.lookup("r", b"a", None))
        assert missed(cache.lookup("r", b"a", variant))

    def test_reinserting_one_variant_keeps_the_other_invalidatable(self):
        """Re-inserting variant A drops A's old entry first; the row's
        index must keep B, or ``invalidate_row`` after a write leaves B
        served stale."""
        cache = RowCache(4096)
        variant = RowCache.variant([(CF, Q)])
        cache.insert("r", b"a", None, result_for(b"a", b"A"))
        cache.insert("r", b"a", variant, result_for(b"a", b"B"))
        cache.insert("r", b"a", None, result_for(b"a", b"A2"))
        cache.invalidate_row("r", b"a")
        assert missed(cache.lookup("r", b"a", variant))
        assert missed(cache.lookup("r", b"a", None))
        assert not cache._entries and cache.size_bytes == 0


# ------------------------------------------------------- cache coherence (e2e)
def build_cluster(serving: ServingConfig, num_servers: int = 2, seed: int = 5):
    sim = Simulation(seed=seed)
    cluster = HBaseCluster(
        sim,
        ClusterConfig(
            num_region_servers=num_servers, seed=seed, serving=serving
        ),
    )
    client = HBaseClient(cluster)
    table = client.create_table("t", split_keys=[b"%08d" % 50])
    puts = []
    for i in range(100):
        p = Put(b"%08d" % i)
        p.add(CF, Q, b"v0-%08d" % i)
        puts.append(p)
    table.put_batch(puts)
    return cluster, table


class TestCacheCoherence:
    """Run the same mutation/read script with the cache on and off; a
    cached read must never observe anything the uncached cluster would
    not. Each step exercises one invalidation path."""

    def check_mirror(self, step):
        cached_cluster, cached_table = build_cluster(
            ServingConfig(row_cache_bytes=64 * 1024)
        )
        plain_cluster, plain_table = build_cluster(ServingConfig())
        for cluster, table in (
            (cached_cluster, cached_table),
            (plain_cluster, plain_table),
        ):
            # warm (or no-op) pass, then the step, then a full readback
            for i in range(100):
                table.get(Get(b"%08d" % i))
            step(cluster, table)
            values = [
                (r.value(CF, Q) if r is not None else None)
                for i in range(100)
                for r in (table.get(Get(b"%08d" % i)),)
            ]
            if cluster is cached_cluster:
                cached_values = values
                totals = cluster.serving_stats()["totals"]
                assert totals["cache_hits"] > 0
            else:
                assert values == cached_values

    def test_put_invalidates(self):
        def step(cluster, table):
            p = Put(b"%08d" % 7)
            p.add(CF, Q, b"updated")
            table.put(p)

        self.check_mirror(step)

    def test_delete_invalidates(self):
        def step(cluster, table):
            table.delete(Delete(b"%08d" % 7))

        self.check_mirror(step)

    def test_flush_preserves_reads(self):
        def step(cluster, table):
            for region in list(cluster.descriptor("t").regions):
                cluster.server_for(region).flush_region(region)

        self.check_mirror(step)

    def test_cached_result_is_sized_once_and_hands_out_copies(self):
        """A flushed row's Result is lent the HFile entry's head and is what
        the cache keeps: every get of it is charged the same bytes, and a
        caller's edit of what it hands out leaves it and the store alone."""
        cluster, table = build_cluster(ServingConfig(row_cache_bytes=64 * 1024))
        for region in cluster.descriptor("t").regions:
            cluster.server_for(region).flush_region(region)
        row = b"%08d" % 7
        wire = len(row) + 8 + len(CF) + len(Q) + len(b"v0-%08d" % 7)
        counters = cluster.sim.metrics.counters
        charged = []
        for _ in range(3):  # a miss, then two hits
            before = counters()["client.bytes"]
            result = table.get(Get(row))
            charged.append(counters()["client.bytes"] - before)
        region = cluster.descriptor("t").region_for(row)
        assert charged == [wire] * 3
        assert result._head is region.hfiles[0].entry(row).head
        result.cells[(CF, b"extra")] = [(10**9, b"edited by the caller")]
        result.cells[(CF, Q)].append((10**9, b"edited by the caller"))
        assert result.size_bytes == wire and result.column_count == 1
        stored = region.read_row(row)
        assert stored.size_bytes == wire and stored.column_count == 1

    def test_compaction_preserves_reads(self):
        def step(cluster, table):
            p = Put(b"%08d" % 3)
            p.add(CF, Q, b"newest")
            table.put(p)
            cluster.major_compact("t")

        self.check_mirror(step)

    def test_split_invalidates_parent(self):
        def step(cluster, table):
            region = cluster.descriptor("t").regions[0]
            cluster.split_region(region, b"%08d" % 25)
            p = Put(b"%08d" % 10)
            p.add(CF, Q, b"post-split")
            table.put(p)

        self.check_mirror(step)

    def test_move_invalidates(self):
        def step(cluster, table):
            region = cluster.descriptor("t").regions[0]
            source = cluster.server_for(region)
            target = next(s for s in cluster.servers if s is not source)
            assert cluster.move_region(region, target)
            p = Put(b"%08d" % 1)
            p.add(CF, Q, b"post-move")
            table.put(p)

        self.check_mirror(step)

    def test_crash_recovery_invalidates(self):
        def step(cluster, table):
            p = Put(b"%08d" % 60)
            p.add(CF, Q, b"pre-crash")  # unflushed: must survive replay
            table.put(p)
            victim = cluster.servers[0]
            victim.crash()
            cluster.recover_server(victim)

        self.check_mirror(step)

    def test_restart_clears_cache(self):
        def step(cluster, table):
            victim = cluster.servers[0]
            victim.crash()
            cluster.recover_server(victim)
            victim.restart()

        self.check_mirror(step)

    def test_cache_hit_is_cheaper_than_miss(self):
        cluster, table = build_cluster(
            ServingConfig(row_cache_bytes=64 * 1024)
        )
        sim = cluster.sim
        before = sim.clock.now_ms
        table.get(Get(b"%08d" % 4))  # miss, fills
        miss_cost = sim.clock.now_ms - before
        before = sim.clock.now_ms
        table.get(Get(b"%08d" % 4))  # hit
        hit_cost = sim.clock.now_ms - before
        totals = cluster.serving_stats()["totals"]
        assert totals["cache_hits"] == 1
        # a hit pays rpc + transfer + CACHE_HIT_MS, never seek/read_row
        assert hit_cost < miss_cost

    def test_multi_version_reads_bypass_cache(self):
        sim = Simulation(seed=5)
        cluster = HBaseCluster(
            sim,
            ClusterConfig(
                num_region_servers=1,
                seed=5,
                serving=ServingConfig(row_cache_bytes=64 * 1024),
            ),
        )
        client = HBaseClient(cluster)
        table = client.create_table("t", max_versions=3)
        p = Put(b"row")
        p.add(CF, Q, b"x")
        table.put(p)
        g = Get(b"row", max_versions=3)
        table.get(g)
        table.get(g)
        totals = cluster.serving_stats()["totals"]
        assert totals["cache_hits"] == 0
        assert totals["cache_misses"] == 0


# ------------------------------------------------------------------- admission
class TestAdmission:
    def test_shed_error_is_typed_and_retryable(self):
        err = ServerOverloadedError("shed", retry_after_ms=2.5)
        assert isinstance(err, RegionUnavailableError)
        assert err.retry_after_ms == 2.5

    def test_shed_decisions_bit_identical_across_reruns(self):
        first = _serving_cell(192, 4, "cache+shed", num_servers=2, seed=13)
        second = _serving_cell(192, 4, "cache+shed", num_servers=2, seed=13)
        assert first == second
        assert first["shed"] > 0
        assert first["violations"] == 0

    def test_shed_logs_identical_across_reruns(self):
        def run():
            sim = Simulation(seed=5)
            cluster = HBaseCluster(
                sim,
                ClusterConfig(
                    num_region_servers=1,
                    seed=5,
                    serving=ServingConfig(
                        admission_queue_ms=0.5, p99_budget_ms=0.4
                    ),
                ),
            )
            logs = []
            for server in cluster.servers:
                server.admission.shed_log = log = []
                logs.append(log)
            cell_logs = []
            _drive_overload(cluster)
            for log in logs:
                cell_logs.extend(log)
            return cell_logs

        first, second = run(), run()
        assert first == second
        assert first  # shedding actually engaged

    def test_qos_weights_shed_batch_first(self):
        from repro.hbase.admission import AdmissionController

        ctrl = AdmissionController(
            "rs1",
            ServingConfig(
                admission_queue_ms=8.0,
                qos_weights=(("batch", 0.25), ("interactive", 2.0)),
            ),
        )
        assert ctrl.bound_ms("batch") == 2.0
        assert ctrl.bound_ms("interactive") == 16.0
        assert ctrl.bound_ms("other") == 8.0
        backlog = 5.0  # between the batch and interactive bounds
        with pytest.raises(ServerOverloadedError):
            ctrl.admit("batch", 0.0, backlog)
        ctrl.admit("interactive", 0.0, backlog)
        ctrl.admit("other", 0.0, backlog)
        assert ctrl.stats()["shed_by_table"] == {"batch": 1}

    def test_pressure_tightens_bound_until_tail_recovers(self, monkeypatch):
        from repro.hbase import admission
        from repro.hbase.admission import AdmissionController

        monkeypatch.setattr(admission, "P99_WINDOW", 8)
        monkeypatch.setattr(admission, "P99_REFRESH_EVERY", 4)
        ctrl = AdmissionController(
            "rs1", ServingConfig(admission_queue_ms=8.0, p99_budget_ms=2.0)
        )
        for i in range(4):  # completions at 4x the budget
            token = ctrl.admit("t", float(i), 0.0)
            ctrl.complete(token, float(i) + 8.0)
        assert ctrl.pressure == pytest.approx(4.0)
        assert ctrl.bound_ms("t") == pytest.approx(2.0)
        for i in range(8):  # tail back under budget
            token = ctrl.admit("t", float(i), 0.0)
            ctrl.complete(token, float(i) + 1.0)
        assert ctrl.pressure == 1.0
        assert ctrl.bound_ms("t") == 8.0

    def test_client_absorbs_shed_via_retry(self):
        # overload with shedding on: clients retry/drop but every
        # committed op still satisfies the read/durability oracles
        cell = _serving_cell(256, 4, "cache+shed", num_servers=2, seed=3)
        assert cell["shed"] > 0
        assert cell["committed"] > 0
        assert cell["violations"] == 0
        # drops are the ops whose retries were exhausted, never silent
        assert cell["dropped"] <= cell["shed"]

    def test_baseline_mode_never_sheds(self):
        cell = _serving_cell(128, 3, "baseline", num_servers=2, seed=3)
        assert cell["shed"] == 0
        assert cell["hit_ratio"] == 0.0
        assert cell["violations"] == 0


def _drive_overload(cluster):
    """Hammer one region server through the scheduler so its virtual
    backlog exceeds any reasonable bound."""
    from repro.hbase.client import HBaseClient, HTable
    from repro.sim.scheduler import DeterministicScheduler

    client = HBaseClient(cluster)
    table = client.create_table("hot")
    p = Put(b"k")
    p.add(CF, Q, b"v")
    table.put(p)
    cluster.sim.reset_clock()
    scheduler = DeterministicScheduler(cluster.sim)
    for i in range(64):

        def program(vc, i=i):
            handle = HTable(cluster, "hot")
            for _ in range(4):
                yield "op"
                try:
                    handle.get(Get(b"k"))
                except ServerOverloadedError:
                    pass

        scheduler.add_client(f"c{i}", program)
    scheduler.run()


# ------------------------------------------------------------------- workload
class TestZipfianWorkload:
    def test_population_sampling_deterministic(self):
        zipf = ZipfianPopulation(population=10_000, s=1.1)
        a = zipf.sample(derive_rng(1, "z"), 256)
        b = zipf.sample(derive_rng(1, "z"), 256)
        assert (a == b).all()

    def test_skew_concentrates_on_head(self):
        zipf = ZipfianPopulation(population=100_000, s=1.1)
        def head_mass(population, k):
            """Probability mass of the ``k`` hottest users."""
            return float(population._cdf[k - 1])

        assert head_mass(zipf, 100) > 0.3
        assert head_mass(zipf, 100) > head_mass(zipf, 10) > head_mass(zipf, 1) > 0
        flat = ZipfianPopulation(population=100_000, s=0.0)
        assert head_mass(flat, 100) == pytest.approx(100 / 100_000)

    def test_fold_rank_spreads_head(self):
        rows = {(rank * _FOLD_MULTIPLIER) % 2048 for rank in range(32)}
        assert len(rows) == 32  # hot head lands on 32 distinct rows
        assert max(rows) > 1024  # ...spread across the key space

    def test_client_stream_independent_of_peers(self):
        zipf = ZipfianPopulation(population=1000, s=1.1)
        w = ServingWorkload(zipf, 256, seed=42)
        ops = w.ops_for_client(3, 16)
        assert w.ops_for_client(3, 16) == ops  # replayable
        assert w.ops_for_client(4, 16) != ops  # but personal
        kinds = {k for k, _ in ops}
        assert kinds <= {"get", "put"}

    def test_read_fraction_extremes(self):
        zipf = ZipfianPopulation(population=100, s=1.0)
        all_reads = ServingWorkload(zipf, 64, seed=1, read_fraction=1.0)
        assert all(k == "get" for k, _ in all_reads.ops_for_client(0, 64))
        all_writes = ServingWorkload(zipf, 64, seed=1, read_fraction=0.0)
        assert all(k == "put" for k, _ in all_writes.ops_for_client(0, 64))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianPopulation(population=0)
        with pytest.raises(ValueError):
            ZipfianPopulation(s=-1.0)
        zipf = ZipfianPopulation(population=10)
        with pytest.raises(ValueError):
            ServingWorkload(zipf, 0, seed=1)
        with pytest.raises(ValueError):
            ServingWorkload(zipf, 10, seed=1, read_fraction=1.5)


# ------------------------------------------------------------------- bench/CI
def _serving_sweep(clients: int, ops_per_client: int) -> dict:
    """The emitted ``experiments`` block of one serving sweep at a
    single offered load — what the gate's checks read."""
    results = run_serving((clients,), ops_per_client=ops_per_client)
    return {r.experiment_id: r.to_dict() for r in results.values()}


class TestServingBench:
    # each test evaluates the suite's own gate checks — what
    # ``python -m repro.bench --smoke serving`` (and so CI) evaluates

    def test_smoke_satisfies_ci_assertions(self):
        # below overload nothing needs shedding; every other check
        # (cache hits, p99 ordering, goodput) must still hold
        assert failed(SERVING.smoke.checks, _serving_sweep(256, 4)) == [
            "admission control never shed at overload"
        ]

    def test_overload_smoke_sheds_and_improves_tail(self):
        # the gate's overload point: 1024 clients x 4 ops
        assert failed(SERVING.smoke.checks, _serving_sweep(1024, 4)) == []

    def test_smoke_bit_identical_across_reruns(self):
        assert _serving_sweep(128, 3) == _serving_sweep(128, 3)

    def test_modes_cover_grid(self):
        assert SERVING_MODES == ("baseline", "cache", "cache+shed")
