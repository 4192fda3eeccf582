"""Streaming-scanner equivalence: the RegionScanner must produce
byte-identical results to the *reference* per-row merge
(``tests.reference.storage``: the seed read path, one merge per
``_sources_for`` point lookup) across randomized puts, deletes, flushes
and compactions — versions, row tombstones, time ranges and column
projections included. Each scanned ``Result`` must
also size and read itself (``size_bytes``, ``column_count``,
``newest_into``, ``value``) as its reference cells do, whether it
was lent its entry's head or not."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hbase.region import Region
from tests.reference.storage import (
    FAMILIES, PROJECTIONS, QUALIFIERS, new_entry, reading, reference_reading,
    reference_scan, put_cell,
)


def streaming_scan(region, columns=None, max_versions=1, time_range=None):
    wanted = frozenset(columns) if columns else None
    out = []
    for row, result in region.scan(
        columns=wanted, max_versions=max_versions, time_range=time_range
    ):
        if result is not None:
            said = reading(result)  # before `cells` copies every version out
            cells = result.cells
            assert said == reference_reading(row, cells)
            out.append((row, cells))
    return out


# --------------------------------------------------------------- op machine
CF = b"cf"
ROWS = [b"r%d" % i for i in range(8)]

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(ROWS),
            st.sampled_from(FAMILIES),
            st.sampled_from(QUALIFIERS),
            st.binary(min_size=0, max_size=3),
        ),
        st.tuples(st.just("delete_row"), st.sampled_from(ROWS)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=60,
)


def apply_ops(region, ops):
    ts = 0
    for op in ops:
        ts += 1
        kind = op[0]
        if kind == "put":
            _, row, family, qualifier, value = op
            region.put_row(row, [((family, qualifier), value, None)], ts)
        elif kind == "delete_row":
            region.delete_row(op[1], ts)
        elif kind == "flush":
            region.flush()
        else:
            region.major_compact()
    return ts


class TestScannerMatchesReference:
    @given(ops=ops_strategy, max_versions=st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_full_scan_equivalence(self, ops, max_versions):
        region = Region("t", b"", None, max_versions=4)
        apply_ops(region, ops)
        for columns in PROJECTIONS:
            assert streaming_scan(region, columns, max_versions) == \
                reference_scan(region, columns, max_versions)

    @given(
        ops=ops_strategy,
        lo=st.integers(0, 40),
        span=st.integers(0, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_time_range_equivalence(self, ops, lo, span):
        region = Region("t", b"", None, max_versions=4)
        apply_ops(region, ops)
        time_range = (lo, lo + span)
        assert streaming_scan(region, None, 3, time_range) == \
            reference_scan(region, None, 3, time_range)

    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_compaction_preserves_visible_state(self, ops):
        region = Region("t", b"", None, max_versions=3)
        apply_ops(region, ops)
        before = streaming_scan(region, None, region.max_versions)
        region.major_compact()
        after = streaming_scan(region, None, region.max_versions)
        assert before == after
        assert after == reference_scan(region, None, region.max_versions)
        assert len(region.hfiles) <= 1
        assert len(region.memstore) == 0

    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_point_reads_match_scan(self, ops):
        """read_row (point path with column pushdown) agrees with the
        streaming scan row by row."""
        region = Region("t", b"", None, max_versions=4)
        apply_ops(region, ops)
        for columns in PROJECTIONS:
            scanned = dict(streaming_scan(region, columns, 2))
            for row in ROWS:
                result = region.read_row(row, columns, max_versions=2)
                if result is None:
                    assert row not in scanned
                else:
                    assert scanned[row] == result.cells

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_row_count_matches_reference(self, ops):
        region = Region("t", b"", None, max_versions=2)
        apply_ops(region, ops)
        assert region.row_count() == len(reference_scan(region, None, 1))


class TestScannerEdgeCases:
    def test_scan_respects_region_bounds(self):
        region = Region("t", b"b", b"d")
        region.put_row(b"b", [((CF, b"q"), b"1", None)], 1)
        region.put_row(b"c", [((CF, b"q"), b"2", None)], 2)
        rows = [r for r, res in region.scan() if res is not None]
        assert rows == [b"b", b"c"]
        # narrower window than the region
        rows = [r for r, res in region.scan(b"c", None) if res is not None]
        assert rows == [b"c"]

    def test_deleted_rows_are_yielded_as_none(self):
        """Examined-but-invisible rows surface as (key, None) so the
        server still charges the read, as the seed engine did."""
        region = Region("t", b"", None)
        region.put_row(b"a", [((CF, b"q"), b"1", None)], 1)
        region.put_row(b"b", [((CF, b"q"), b"2", None)], 2)
        region.delete_row(b"a", 3)
        pairs = list(region.scan())
        assert [row for row, _ in pairs] == [b"a", b"b"]
        assert pairs[0][1] is None
        assert pairs[1][1] is not None

    def test_flush_between_scan_creation_and_iteration(self):
        """A flush after the cursor is created but before it is consumed
        must not hide the flushed rows (components resolve lazily)."""
        region = Region("t", b"", None)
        region.put_row(b"a", [((CF, b"q"), b"1", None)], 1)
        cursor = region.scan()
        region.flush()
        region.put_row(b"b", [((CF, b"q"), b"2", None)], 2)
        rows = [row for row, result in cursor if result is not None]
        assert rows == [b"a", b"b"]

    def test_put_reused_after_batch_does_not_corrupt_wal_replay(self):
        """put_batch must deep-copy cells into the WAL: growing a Put
        afterwards must not leak into crash recovery."""
        from repro.hbase import HBaseClient, HBaseCluster, Get, Put
        from repro.sim.clock import Simulation

        client = HBaseClient(HBaseCluster(Simulation(seed=3)))
        t = client.create_table("w")
        p = Put(b"r")
        p.add(CF, b"a", b"1")
        t.put_batch([p])
        p.add(CF, b"b", b"2")  # mutation after submission
        cluster = client.cluster
        region = cluster.descriptor("w").regions[0]
        server = cluster.server_for(region)
        server.crash()
        cluster.recover_server(server)
        result = t.get(Get(b"r"))
        assert result.value(CF, b"a") == b"1"
        assert result.value(CF, b"b") is None  # no phantom replayed cell

    def test_scan_merges_across_flush_generations(self):
        region = Region("t", b"", None, max_versions=2)
        region.put_row(b"k", [((CF, b"q"), b"old", None)], 1)
        region.flush()
        region.put_row(b"k", [((CF, b"q"), b"new", None)], 2)
        [(row, result)] = list(region.scan(max_versions=2))
        assert result.cells[(CF, b"q")] == [(2, b"new"), (1, b"old")]

    def test_lazy_sort_preserves_newest_first(self):
        entry = new_entry()
        for ts in (3, 1, 5, 2, 4):
            put_cell(entry, CF, b"q", ts, b"%d" % ts)
        assert [ts for ts, _ in entry.cells[(CF, b"q")]] == [5, 4, 3, 2, 1]

    def test_open_cursor_raises_when_region_goes_offline(self):
        """A crash while a scan cursor is open must raise, not keep
        yielding phantom rows from the snapshot (matches the seed's
        per-row read path)."""
        from repro.errors import RegionUnavailableError

        region = Region("t", b"", None)
        for i in range(4):
            region.put_row(b"r%d" % i, [((CF, b"q"), b"v", None)], i + 1)
        cursor = iter(region.scan())
        next(cursor)
        region.online = False
        with pytest.raises(RegionUnavailableError):
            next(cursor)
