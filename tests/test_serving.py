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
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.bench.suite import failed
from repro.bench.suites import serving as serving_suite
from repro.bench.suites.serving import (
    SERVING,
    SERVING_MODES,
    _serving_cell,
    _serving_config,
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
from tests.reference.cache import ModelRowCache, entry_size

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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ClusterConfigError):
            ServingConfig(**kwargs)


# ------------------------------------------------------ row cache vs its model
MODEL_REGIONS = ("r1", "r2")
MODEL_ROWS = (b"a", b"bb")
MODEL_VALUES = (None, b"", b"0123456789")
"""A cached ``None`` (absent row) and two payload sizes."""


def _model_capacities() -> list[int]:
    """Budgets around every entry size the machine can insert: exactly
    one entry, one byte more, room for two or three, and a budget no
    entry fits."""
    sizes = {
        entry_size(row, None if value is None else result_for(row, value))
        for row in MODEL_ROWS
        for value in MODEL_VALUES
    }
    out = {1}
    for size in sizes:
        out.update((size, size + 1, 2 * size, 3 * size))
    return sorted(out)


class RowCacheMachine(RuleBasedStateMachine):
    """``RowCache`` against ``ModelRowCache``: every answer, every
    counter and the eviction order agree after each step."""

    @initialize(capacity=st.sampled_from(_model_capacities()))
    def build(self, capacity):
        self.cache = RowCache(capacity)
        self.cache.eviction_log = []
        self.model = ModelRowCache(capacity)
        self.read = None
        """What the last ``lookup`` returned."""

    @rule(region=st.sampled_from(MODEL_REGIONS), row=st.sampled_from(MODEL_ROWS))
    def lookup(self, region, row):
        self.read = got = self.cache.lookup(region, row)
        found, want = self.model.lookup((region, row))
        assert missed(got) is not found
        if found:
            assert got is want

    @rule(
        region=st.sampled_from(MODEL_REGIONS),
        row=st.sampled_from(MODEL_ROWS),
        value=st.sampled_from(MODEL_VALUES),
    )
    def insert(self, region, row, value):
        result = None if value is None else result_for(row, value)
        self.cache.insert(region, row, result)
        self.model.insert((region, row), result)

    @rule(region=st.sampled_from(MODEL_REGIONS), row=st.sampled_from(MODEL_ROWS))
    def invalidate_row(self, region, row):
        self.cache.invalidate_row(region, row)
        self.model.invalidate(lambda key: key == (region, row))

    @rule(region=st.sampled_from(MODEL_REGIONS))
    def invalidate_region(self, region):
        self.cache.invalidate_region(region)
        self.model.invalidate(lambda key: key[0] == region)

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.clear()

    @rule(capacity=st.integers(min_value=-2, max_value=2))
    def capacity_must_be_positive(self, capacity):
        if capacity <= 0:
            with pytest.raises(ValueError):
                RowCache(capacity)
        else:
            assert RowCache(capacity).stats() == ModelRowCache(capacity).stats()

    @invariant()
    def agrees(self):
        assert self.cache.stats() == self.model.stats()
        assert self.cache.eviction_log == self.model.eviction_log


TestRowCacheModel = RowCacheMachine.TestCase
TestRowCacheModel.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None, derandomize=True
)


def machine_at(capacity: int) -> RowCacheMachine:
    machine = RowCacheMachine()
    machine.build(capacity)
    machine.agrees()
    return machine


def replay(machine: RowCacheMachine, steps) -> RowCacheMachine:
    """Call each ``(rule, *args)`` step on ``machine`` directly, with
    ``agrees()`` after every one."""
    for name, *args in steps:
        getattr(machine, name)(*args)
        machine.agrees()
    return machine


class TestRowCache:
    """Worked examples, each a step list of ``RowCacheMachine``'s rules
    with its own stated outcome on top of the model's."""

    def test_lookup_miss_then_hit(self):
        machine = replay(machine_at(4096), [("lookup", "r1", b"a")])
        assert missed(machine.read)
        replay(machine, [("insert", "r1", b"a", b"x"), ("lookup", "r1", b"a")])
        assert not missed(machine.read)
        assert machine.read.value(CF, Q) == b"x"
        assert machine.cache.stats()["hits"] == 1
        assert machine.cache.stats()["misses"] == 1

    def test_negative_caching_distinguishes_none_from_absent(self):
        machine = replay(
            machine_at(4096),
            [("insert", "r1", b"gone", None), ("lookup", "r1", b"gone")],
        )
        assert machine.read is None
        assert not missed(machine.read)
        assert machine.cache.hits == 1

    def test_lru_eviction_order_is_strict(self):
        # capacity = exactly three entries (all rows/values equal-sized)
        value = b"0123456789"
        entry = ENTRY_OVERHEAD_BYTES + 1 + result_for(b"a", value).size_bytes
        machine = replay(
            machine_at(3 * entry),
            [("insert", "r", row, value) for row in (b"a", b"b", b"c")]
            # touch a so b becomes LRU, then insert d -> b evicted, then e -> c
            + [
                ("lookup", "r", b"a"),
                ("insert", "r", b"d", value),
                ("insert", "r", b"e", value),
            ],
        )
        assert [row for _, row in machine.cache.eviction_log] == [b"b", b"c"]
        replay(machine, [("lookup", "r", b"a")])
        assert not missed(machine.read)

    def test_eviction_sequence_bit_identical_across_reruns(self):
        def run():
            rng = derive_rng(99, "cache-evict")
            machine = machine_at(2048)
            for _ in range(400):
                row = b"%04d" % int(rng.integers(0, 64))
                replay(machine, [("lookup", "r", row)])
                if missed(machine.read):
                    replay(machine, [("insert", "r", row, bytes(24))])
            return machine.cache.eviction_log, machine.cache.stats()

        first_log, first_stats = run()
        second_log, second_stats = run()
        assert first_log == second_log
        assert first_stats == second_stats
        assert first_stats["evictions"] > 0

    def test_oversized_entry_skipped(self):
        machine = replay(machine_at(128), [("insert", "r", b"big", bytes(512))])
        assert machine.cache.stats()["entries"] == 0
        assert machine.cache.size_bytes == 0

    def test_size_accounting_returns_to_zero(self):
        steps = []
        for row in (b"a", b"b", b"c"):
            steps += [("insert", "r1", row, b"xy"), ("insert", "r2", row, None)]
        machine = replay(
            machine_at(4096),
            steps
            + [
                ("invalidate_row", "r1", b"a"),
                ("invalidate_region", "r2"),
                ("invalidate_region", "r1"),
            ],
        )
        assert machine.cache.stats()["entries"] == 0
        assert machine.cache.size_bytes == 0
        assert machine.cache.invalidations == 6

    def test_reinserting_a_row_replaces_its_one_entry(self):
        """A row holds one entry: a second insert replaces the first and
        is charged alone, and one ``invalidate_row`` empties the cache."""
        machine = replay(
            machine_at(4096),
            [
                ("insert", "r", b"a", b"A"),
                ("insert", "r", b"a", b"A2"),
                ("lookup", "r", b"a"),
            ],
        )
        assert machine.read.value(CF, Q) == b"A2"
        assert machine.cache.stats()["entries"] == 1
        assert machine.cache.size_bytes == entry_size(b"a", result_for(b"a", b"A2"))
        replay(machine, [("invalidate_row", "r", b"a"), ("lookup", "r", b"a")])
        assert missed(machine.read)
        assert machine.cache.size_bytes == 0
        assert machine.cache.invalidations == 1

    def test_invalidating_a_region_keeps_other_regions_rows(self):
        machine = replay(
            machine_at(4096),
            [
                ("insert", "r1", b"a", b"x"),
                ("insert", "r2", b"a", b"y"),
                ("insert", "r1", b"bb", None),
                ("invalidate_region", "r1"),
                ("lookup", "r2", b"a"),
            ],
        )
        assert machine.read.value(CF, Q) == b"y"
        assert machine.cache.stats()["entries"] == 1
        assert machine.cache.invalidations == 2
        replay(machine, [("lookup", "r1", b"a")])
        assert missed(machine.read)


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
            cluster.major_compact()

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

    @pytest.mark.parametrize(
        "get",
        [
            Get(b"row", columns=[(CF, Q)]),
            Get(b"row", max_versions=3),
            Get(b"row", time_range=(0, 2**62)),
        ],
        ids=["projected", "multi-version", "time-ranged"],
    )
    def test_multi_version_reads_bypass_cache(self, get):
        """Only whole-row newest reads are cached: a projected,
        multi-version or time-ranged read neither hits nor misses, and
        answers what the uncached cluster answers."""

        def run(serving):
            sim = Simulation(seed=5)
            cluster = HBaseCluster(
                sim,
                ClusterConfig(num_region_servers=1, seed=5, serving=serving),
            )
            table = HBaseClient(cluster).create_table("t", max_versions=3)
            for value in (b"x", b"y"):
                p = Put(b"row")
                p.add(CF, Q, value)
                p.add(CF, b"w", value)
                table.put(p)
            return cluster, [table.get(get).cells for _ in range(2)]

        cached, cached_reads = run(ServingConfig(row_cache_bytes=64 * 1024))
        _, plain_reads = run(ServingConfig())
        totals = cached.serving_stats()["totals"]
        assert totals["cache_hits"] == 0
        assert totals["cache_misses"] == 0
        assert cached_reads == plain_reads

    def test_projected_reads_around_a_write_serve_the_new_row(self):
        """Projected reads go to the store uncached, so a write between
        them and a whole-row read leaves no stale projection behind."""

        def step(cluster, table):
            row = b"%08d" % 7
            before = table.get(Get(row, columns=[(CF, Q)]))
            assert before.value(CF, Q) == b"v0-%08d" % 7
            p = Put(row)
            p.add(CF, Q, b"updated")
            table.put(p)
            after = table.get(Get(row, columns=[(CF, Q)]))
            assert after.value(CF, Q) == b"updated"

        self.check_mirror(step)


# ------------------------------------------------------------------- admission
class TestAdmission:
    def test_shed_error_is_typed_and_retryable(self):
        err = ServerOverloadedError("shed", retry_after_ms=2.5)
        assert isinstance(err, RegionUnavailableError)
        assert err.retry_after_ms == 2.5

    def test_shed_decisions_bit_identical_across_reruns(self, monkeypatch):
        monkeypatch.setattr(serving_suite, "NUM_SERVERS", 2)
        monkeypatch.setattr(serving_suite, "SEED", 13)
        first = _serving_cell(192, 4, "cache+shed")
        second = _serving_cell(192, 4, "cache+shed")
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

    def test_backlog_at_the_bound_is_admitted_and_every_decision_counted(self):
        from repro.hbase.admission import AdmissionController

        ctrl = AdmissionController("rs1", ServingConfig(admission_queue_ms=8.0))
        assert ctrl.stats() == {
            "admitted": 0, "shed": 0, "shed_rate": 0.0, "pressure": 1.0,
            "shed_by_table": {},
        }
        assert ctrl.admit("a", 3.0, 8.0) == 3.0  # a backlog at the bound queues
        for table in ("a", "b", "a"):
            with pytest.raises(ServerOverloadedError):
                ctrl.admit(table, 4.0, 8.5)
        ctrl.admit("b", 5.0, 0.0)
        assert ctrl.stats() == {
            "admitted": 2, "shed": 3, "shed_rate": 0.6, "pressure": 1.0,
            "shed_by_table": {"a": 2, "b": 1},
        }

    def test_every_table_is_admitted_against_one_bound(self):
        """The bound is ``queue_bound_ms / pressure`` whatever the table:
        a backlog at it is admitted and one just over it is shed."""
        from repro.hbase.admission import AdmissionController

        ctrl = AdmissionController("rs1", ServingConfig(admission_queue_ms=8.0))
        for pressure in (1.0, 2.0, 4.0):
            ctrl.pressure = pressure
            assert ctrl.bound_ms() == 8.0 / pressure
            for table in ("interactive", "batch"):
                ctrl.admit(table, 0.0, 8.0 / pressure)
                with pytest.raises(ServerOverloadedError):
                    ctrl.admit(table, 0.0, 8.0 / pressure + 0.25)
        assert ctrl.shed_by_table == {"interactive": 3, "batch": 3}
        assert ctrl.admitted == 6

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
        assert ctrl.bound_ms() == pytest.approx(2.0)
        for i in range(8):  # tail back under budget
            token = ctrl.admit("t", float(i), 0.0)
            ctrl.complete(token, float(i) + 1.0)
        assert ctrl.pressure == 1.0
        assert ctrl.bound_ms() == 8.0

    def test_client_absorbs_shed_via_retry(self, monkeypatch):
        # overload with shedding on: clients retry/drop but every
        # committed op still satisfies the read/durability oracles
        monkeypatch.setattr(serving_suite, "NUM_SERVERS", 2)
        monkeypatch.setattr(serving_suite, "SEED", 3)
        cell = _serving_cell(256, 4, "cache+shed")
        assert cell["shed"] > 0
        assert cell["committed"] > 0
        assert cell["violations"] == 0
        # drops are the ops whose retries were exhausted, never silent
        assert cell["dropped"] <= cell["shed"]

    def test_baseline_mode_never_sheds(self, monkeypatch):
        monkeypatch.setattr(serving_suite, "NUM_SERVERS", 2)
        monkeypatch.setattr(serving_suite, "SEED", 3)
        cell = _serving_cell(128, 3, "baseline")
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

    @pytest.mark.parametrize(
        "mode, want",
        [
            ("baseline", (0, None, None)),
            ("cache", (64 * 1024, None, None)),
            ("cache+shed", (64 * 1024, 8.0, 6.0)),
        ],
    )
    def test_each_mode_sets_its_serving_config(self, mode, want):
        """Each sweep mode's cache budget, queue bound and p99 budget,
        as the note prints them."""
        config = _serving_config(mode)
        assert (
            config.row_cache_bytes,
            config.admission_queue_ms,
            config.p99_budget_ms,
        ) == want

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown serving mode"):
            _serving_config("shed")
