"""Heap ready-queue equivalence and scale tests.

The ``DeterministicScheduler`` drives 10k+ virtual clients through an
O(log n) heap-based ready queue; the original O(n) min-scan survives
here as ``ScanScheduler``, the test-local reference model. These tests
pin the heap to the scan step-for-step: identical resume traces
(including virtual-timestamp ties, which must break by registration
order), identical side-effect logs, identical reports — across seeded
multi-client workloads — and a 10k-client smoke that must finish well
inside the CI budget.
"""

from __future__ import annotations

import random
import time

from hypothesis import given, settings, strategies as st

from repro.sim.clock import Simulation
from repro.sim.scheduler import MAX_STEPS, DeterministicScheduler


class ScanScheduler(DeterministicScheduler):
    """Reference model: the original O(n) drive loop — every step
    re-scans all runnable clients for the minimum ``(clock, client_id)``
    resume key. The heap driver must reproduce its interleaving
    exactly, ties included."""

    def _drive(self, ctx) -> int:
        steps = 0
        while True:
            runnable = [c for c in self.clients if not c.done]
            if not any(not c.daemon for c in runnable):
                # only daemons (or nothing) left: the workload is
                # finished — wind down pending background programs
                for c in runnable:
                    if c.gen is not None:
                        c.gen.close()
                    c.done = True
                break
            client = min(runnable, key=lambda c: (c.clock.now_ms, c.client_id))
            self._step(ctx, client)
            steps += 1
            if steps > MAX_STEPS:
                raise RuntimeError(
                    f"scheduler exceeded {MAX_STEPS} steps "
                    "(livelocked client program?)"
                )
        return steps


def drive(scheduler_cls, plans, daemons=(), seed: int = 7):
    """Run one schedule: client i advances its clock by ``plans[i]``'s
    deltas, one yield per delta, logging every resume. Daemons (by
    index) never finish on their own."""
    sim = Simulation(seed=seed)
    scheduler = scheduler_cls(sim)
    log: list[tuple[int, float]] = []
    for i, plan in enumerate(plans):
        if i in daemons:

            def program(vc, plan=plan, i=i):
                while True:
                    for delta in plan:
                        yield "tick"
                        vc.clock.advance(delta)
                        log.append((i, vc.clock.now_ms))
                    if not plan:
                        yield "tick"
                        vc.clock.advance(1.0)

        else:

            def program(vc, plan=plan, i=i):
                for delta in plan:
                    yield "step"
                    vc.clock.advance(delta)
                    log.append((i, vc.clock.now_ms))
                    vc.stats.committed += 1

        scheduler.add_client(f"c{i}", program, daemon=i in daemons)
    report = scheduler.run()
    return scheduler.trace, log, report


def assert_equivalent(plans, daemons=()):
    heap_trace, heap_log, heap_report = drive(DeterministicScheduler, plans, daemons)
    scan_trace, scan_log, scan_report = drive(ScanScheduler, plans, daemons)
    assert heap_trace == scan_trace
    assert heap_log == scan_log
    assert heap_report.makespan_ms == scan_report.makespan_ms
    assert heap_report.committed == scan_report.committed
    assert heap_report.clients == scan_report.clients


class TestHeapScanEquivalence:
    def test_all_ties_break_by_registration_order(self):
        # every client charges the same deltas: every resume decision is
        # a virtual-timestamp tie and must break by client_id
        assert_equivalent([[1.0, 1.0, 1.0]] * 5)

    def test_zero_cost_segments(self):
        # zero charges keep the client at the same timestamp: it must
        # keep winning ties against higher-id clients until it charges
        assert_equivalent([[0.0, 0.0, 2.0], [1.0, 0.0], [0.0, 3.0]])

    def test_staggered_costs(self):
        assert_equivalent([[3.0], [1.0, 1.0, 1.0], [2.0, 2.0]])

    def test_uneven_client_lengths(self):
        assert_equivalent([[1.0] * 8, [], [5.0], [0.5] * 3])

    def test_single_client(self):
        assert_equivalent([[1.0, 2.0, 3.0]])

    def test_no_clients(self):
        assert_equivalent([])

    def test_daemon_wound_down_in_registration_order(self):
        # daemon (index 1) never finishes; both drivers must close it
        # after the workers drain, without it affecting the makespan
        assert_equivalent([[1.0, 1.0], [0.5], [2.0]], daemons={1})

    def test_only_daemons(self):
        assert_equivalent([[1.0]], daemons={0})

    @given(
        st.lists(
            st.lists(
                # a tiny delta alphabet makes cross-client ties common
                st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_heap_matches_scan(self, plans):
        assert_equivalent(plans)

    def test_seeded_random_workloads(self):
        for seed in range(10):
            rng = random.Random(seed)
            plans = [
                [
                    rng.choice([0.0, 0.25, 0.25, 1.0, 2.0])
                    for _ in range(rng.randint(0, 12))
                ]
                for _ in range(rng.randint(1, 20))
            ]
            daemons = {
                i for i in range(len(plans)) if rng.random() < 0.15
            }
            if daemons == set(range(len(plans))):
                daemons.pop()
            assert_equivalent(plans, daemons)

    def test_trace_is_bit_identical_across_reruns(self):
        plans = [[1.0, 0.5, 0.5], [2.0], [0.5] * 4]
        first = drive(DeterministicScheduler, plans)
        second = drive(DeterministicScheduler, plans)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestHeapAtScale:
    def test_10k_clients_smoke(self):
        # the tentpole scale target: 10k+ virtual clients through the
        # heap driver, well inside the tier-1 wall-clock budget
        clients = 10_000
        sim = Simulation(seed=11)
        scheduler = DeterministicScheduler(sim)
        for i in range(clients):

            def program(vc, i=i):
                for step in range(3):
                    yield "op"
                    vc.clock.advance(0.1 + (i % 7) * 0.05)
                    vc.stats.committed += 1

            scheduler.add_client(f"c{i}", program)
        t0 = time.perf_counter()
        report = scheduler.run()
        elapsed = time.perf_counter() - t0
        assert report.committed == 3 * clients
        assert len(scheduler.trace) == 4 * clients  # 3 charges + final resume
        assert elapsed < 30.0
