"""LSM internals: memstore, HFiles, tombstone merge semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hbase import Get, HBaseClient, HBaseCluster
from repro.hbase.cell import Result
from repro.hbase.ops import Put
from repro.hbase.store import HFile, MemStore, merge_row
from repro.sim.clock import Simulation
from tests.reference.storage import new_entry, put_cell


class TestRowEntry:
    def test_versions_sorted_newest_first(self):
        e = new_entry()
        put_cell(e, b"cf", b"q", 1, b"old")
        put_cell(e, b"cf", b"q", 3, b"new")
        put_cell(e, b"cf", b"q", 2, b"mid")
        assert e.cells[(b"cf", b"q")][0] == (3, b"new")

    def test_row_tombstone_keeps_max(self):
        e = new_entry()
        e.delete_row(5)
        e.delete_row(3)
        assert e.row_tombstone_ts == 5

    def test_size_accounting(self):
        e = new_entry()
        put_cell(e, b"cf", b"q", 1, b"value")
        assert e.size_bytes(b"rowkey", kv_overhead=24) == 6 + 2 + 1 + 5 + 24


class TestVersionOrderAtTheEdges:
    """Newest first, equal timestamps in insertion order — wherever a
    version list is built."""

    PUTS = [(5, b"a"), (7, b"b"), (5, b"c"), (9, b"d"), (7, b"e"), (1, b"f")]
    ORDERED = [(9, b"d"), (7, b"b"), (7, b"e"), (5, b"a"), (5, b"c"), (1, b"f")]

    def test_row_entry(self):
        e = new_entry()
        for ts, v in self.PUTS:
            put_cell(e, b"cf", b"q", ts, v)
        assert e.cells[(b"cf", b"q")] == self.ORDERED

    def test_memstore_apply_put_with_a_read_in_between(self):
        m = MemStore()
        for ts, v in self.PUTS:
            m.apply_put(b"r", [((b"cf", b"q"), v, ts)], 0, 0)
            m.entry(b"r").cells  # a read restores the order in place
        assert m.entry(b"r").cells[(b"cf", b"q")] == self.ORDERED

    def test_result_of_a_merged_row(self):
        e = new_entry()
        for ts, v in self.PUTS:
            put_cell(e, b"cf", b"q", ts, v)
        merged = merge_row([e], max_versions=len(self.PUTS))
        r = Result.from_sorted(b"r", merged)
        assert r.cells[(b"cf", b"q")] == self.ORDERED
        assert r.value(b"cf", b"q") == b"d"

    @pytest.mark.parametrize("flushed", [False, True], ids=["memstore", "hfile"])
    def test_equal_stamps_keep_write_order_behind_the_newest(self, flushed):
        client = HBaseClient(HBaseCluster(Simulation(seed=3)))
        table = client.create_table("t")
        for ts, value in ((5, b"A"), (5, b"B"), (7, b"C"), (5, b"D")):
            put = Put(b"r")
            put.add(b"cf", b"q", value, timestamp=ts)
            table.put(put)
        if flushed:
            region = client.cluster.descriptor("t").regions[0]
            client.cluster.server_for(region).flush_region(region)
        result = table.get(Get(b"r", max_versions=4))
        assert result.cells[(b"cf", b"q")] == [
            (7, b"C"), (5, b"A"), (5, b"B"), (5, b"D")
        ]

    def test_put_add_keeps_an_explicit_timestamp_of_zero(self):
        p = Put(b"r", timestamp=42)
        p.add(b"cf", b"zero", b"v", timestamp=0)
        p.add(b"cf", b"inherits", b"v")
        p.add(b"cf", b"own", b"v", timestamp=7)
        assert [ts for *_, ts in p.cells] == [0, 42, 7]


class TestMemStore:
    def test_keys_sorted(self):
        m = MemStore()
        for k in (b"c", b"a", b"b"):
            m.entry(k, create=True)
        assert [k for k, _ in m.items_in_range(b"", None)] == [b"a", b"b", b"c"]

    def test_range_bounds(self):
        m = MemStore()
        for k in (b"a", b"b", b"c", b"d"):
            m.entry(k, create=True)
        assert [k for k, _ in m.items_in_range(b"b", b"d")] == [b"b", b"c"]

    def test_missing_entry_not_created_by_default(self):
        m = MemStore()
        assert m.entry(b"x") is None
        assert len(m) == 0


class TestMergeRow:
    def _entry(self, ts_values, tombstone=None):
        e = new_entry()
        for ts, v in ts_values:
            put_cell(e, b"cf", b"q", ts, v)
        if tombstone is not None:
            e.delete_row(tombstone)
        return e

    def test_newest_version_wins(self):
        merged = merge_row([self._entry([(1, b"a"), (2, b"b")])], max_versions=1)
        assert merged[(b"cf", b"q")] == [(2, b"b")]

    def test_max_versions_respected(self):
        merged = merge_row(
            [self._entry([(1, b"a"), (2, b"b"), (3, b"c")])], max_versions=2
        )
        assert merged[(b"cf", b"q")] == [(3, b"c"), (2, b"b")]

    def test_row_tombstone_hides_older_cells(self):
        merged = merge_row(
            [self._entry([(1, b"a"), (5, b"b")], tombstone=3)], max_versions=5
        )
        assert merged[(b"cf", b"q")] == [(5, b"b")]

    def test_fully_deleted_row_is_none(self):
        merged = merge_row([self._entry([(1, b"a")], tombstone=9)], max_versions=1)
        assert merged is None

    def test_tombstone_across_components(self):
        # delete in a newer component hides a cell in an older HFile
        newer = new_entry()
        newer.delete_row(10)
        older = self._entry([(5, b"v")])
        assert merge_row([newer, older], max_versions=1) is None

    def test_time_range_filtering(self):
        merged = merge_row(
            [self._entry([(1, b"a"), (5, b"b"), (9, b"c")])],
            max_versions=3,
            time_range=(2, 9),
        )
        assert merged[(b"cf", b"q")] == [(5, b"b")]

    @given(st.lists(st.tuples(st.integers(1, 100), st.binary(max_size=4)),
                    min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_newest_visible_version_is_global_max(self, versions):
        e = new_entry()
        seen = {}
        for ts, v in versions:
            put_cell(e, b"cf", b"q", ts, v)
            seen[ts] = v  # same-ts later put appends; max keeps first sorted
        merged = merge_row([e], max_versions=1)
        top_ts = merged[(b"cf", b"q")][0][0]
        assert top_ts == max(ts for ts, _ in versions)


class TestHFile:
    def test_immutable_lookup(self):
        e = new_entry()
        put_cell(e, b"cf", b"q", 1, b"v")
        h = HFile({b"k": e})
        assert h.entry(b"k") is e
        assert h.entry(b"missing") is None
        assert [k for k, _ in h.items_in_range(b"", None)] == [b"k"]

    def test_unique_file_ids(self):
        a, b = HFile({}), HFile({})
        assert a.file_id != b.file_id
