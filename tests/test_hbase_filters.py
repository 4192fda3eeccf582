"""Server-side scan filters: predicate semantics on Result rows, and
their interaction with the streaming ``RegionScanner`` — in particular
with column pushdown, where the filter only sees the cells the
projection kept (so callers must project the columns they filter on,
which is exactly what Phoenix's ``AccessSpec`` does)."""

import pytest

from repro.hbase import Put, Scan
from repro.hbase.bytes_util import prefix_stop
from repro.hbase.cell import Result
from repro.hbase.filters import (
    AndFilter,
    ColumnValueFilter,
)
from repro.hbase.ops import Delete

CF = b"cf"


def make_result(row=b"r1", **cols) -> Result:
    return Result.from_sorted(
        row, {(CF, q.encode()): [(1, v)] for q, v in cols.items()}
    )


class TestColumnValueFilter:
    @pytest.mark.parametrize("op,value,expected", [
        ("=", b"m", True), ("=", b"x", False),
        ("<>", b"x", True), ("<>", b"m", False),
        ("<", b"n", True), ("<", b"m", False),
        ("<=", b"m", True), ("<=", b"l", False),
        (">", b"l", True), (">", b"m", False),
        (">=", b"m", True), (">=", b"n", False),
    ])
    def test_all_comparison_ops(self, op, value, expected):
        f = ColumnValueFilter(CF, b"a", op, value)
        assert f.accept(make_result(a=b"m")) is expected

    def test_missing_column_rejected(self):
        f = ColumnValueFilter(CF, b"nope", "=", b"x")
        assert not f.accept(make_result(a=b"m"))

    def test_compares_newest_version_only(self):
        result = Result.from_sorted(b"r1", {(CF, b"a"): [(5, b"new"), (1, b"old")]})
        assert ColumnValueFilter(CF, b"a", "=", b"new").accept(result)
        assert not ColumnValueFilter(CF, b"a", "=", b"old").accept(result)


class TestRowFilters:
    """Row restrictions are the scan's ``[start_row, stop_row)`` range,
    which the scanner applies before any filter sees a row; a key
    prefix is the range ``[prefix, prefix_stop(prefix))``."""

    def test_prefix_filter(self):
        stop = prefix_stop(b"ab")
        for row in (b"ab", b"abc", b"ab\x00x", b"ab\xff\xfe"):
            assert b"ab" <= row < stop
        for row in (b"aa\xff", b"b", b"ba"):
            assert not b"ab" <= row < stop

    def test_row_range_start_inclusive_stop_exclusive(self, table):
        scan = Scan(start_row=b"b2", stop_row=b"z9")
        # b2 and m1 sit on either side of the m split
        assert scanned_keys(table, scan) == [b"b2", b"m1"]

    def test_row_range_open_bounds(self, table):
        assert scanned_keys(table, Scan()) == [b"a1", b"b2", b"m1", b"z9"]
        assert scanned_keys(table, Scan(start_row=b"m")) == [b"m1", b"z9"]
        assert scanned_keys(table, Scan(stop_row=b"m")) == [b"a1", b"b2"]

    def test_and_filter_is_conjunction(self):
        f = AndFilter((
            ColumnValueFilter(CF, b"a", "=", b"v"),
            ColumnValueFilter(CF, b"b", "=", b"u"),
        ))
        assert f.accept(make_result(a=b"v", b=b"u"))
        assert not f.accept(make_result(a=b"w", b=b"u"))
        assert not f.accept(make_result(a=b"v", b=b"w"))


@pytest.fixture
def table(client):
    t = client.create_table("ft", families=(CF,), split_keys=[b"m"])
    for key, grade, size in [
        (b"a1", b"g1", b"s1"), (b"b2", b"g2", b"s2"),
        (b"m1", b"g1", b"s3"), (b"z9", b"g2", b"s1"),
    ]:
        p = Put(key)
        p.add(CF, b"grade", grade)
        p.add(CF, b"size", size)
        t.put(p)
    return t


def scanned_keys(table, scan):
    return [r.row for r in table.scan(scan)]


class TestScanIntegration:
    def test_filter_selects_rows_across_regions(self, table):
        scan = Scan()
        scan.filter = ColumnValueFilter(CF, b"grade", "=", b"g1")
        # a1 is below the m split, m1 above: the filter spans regions
        assert scanned_keys(table, scan) == [b"a1", b"m1"]

    def test_prefix_filter_on_scan(self, table):
        scan = Scan(start_row=b"b", stop_row=prefix_stop(b"b"))
        assert scanned_keys(table, scan) == [b"b2"]
        scan.filter = ColumnValueFilter(CF, b"grade", "=", b"g1")
        assert scanned_keys(table, scan) == []

    def test_and_filter_on_scan(self, table):
        scan = Scan()
        scan.filter = AndFilter((
            ColumnValueFilter(CF, b"grade", "=", b"g2"),
            ColumnValueFilter(CF, b"size", "=", b"s2"),
        ))
        assert scanned_keys(table, scan) == [b"b2"]

    def test_filter_sees_column_kept_by_pushdown(self, table):
        """Projection includes the filtered column: the filter works and
        the emitted rows carry only the projected cells."""
        scan = Scan()
        scan.columns = [(CF, b"grade")]
        scan.filter = ColumnValueFilter(CF, b"grade", "=", b"g2")
        rows = list(table.scan(scan))
        assert [r.row for r in rows] == [b"b2", b"z9"]
        assert all(r.column_count == 1 and r.value(CF, b"grade") for r in rows)

    def test_filter_on_column_projected_away_sees_missing(self, table):
        """The scanner merges only the pushed-down columns, so a filter
        on a projected-away column observes the column as missing and
        rejects the row, exactly as for a row that never had the
        column. Callers must project what they filter on
        (Phoenix's ``AccessSpec`` projections always include residual
        predicate attrs because entries project their full column set).
        """
        scan = Scan()
        scan.columns = [(CF, b"size")]
        scan.filter = ColumnValueFilter(CF, b"grade", "=", b"g1")
        assert scanned_keys(table, scan) == []

    def test_filter_never_sees_deleted_rows(self, table):
        table.delete(Delete(b"z9"))
        scan = Scan()
        scan.filter = ColumnValueFilter(CF, b"grade", "=", b"g2")
        assert scanned_keys(table, scan) == [b"b2"]

    def test_filter_against_merged_memstore_and_hfile(self, cluster, table):
        """The newest version wins across the flush boundary: an HFile
        value overwritten in the memstore must not satisfy the filter."""
        for region in cluster.descriptor("ft").regions:
            region.flush()
        p = Put(b"a1")
        p.add(CF, b"grade", b"g9")
        table.put(p)
        scan = Scan()
        scan.filter = ColumnValueFilter(CF, b"grade", "=", b"g1")
        assert scanned_keys(table, scan) == [b"m1"]
        scan = Scan()
        scan.filter = ColumnValueFilter(CF, b"grade", "=", b"g9")
        assert scanned_keys(table, scan) == [b"a1"]

    def test_filtered_rows_still_charge_server_reads(self, sim, table):
        """Filtering happens after the per-row read work: a scan whose
        filter drops every row costs more than an empty-range scan but
        less than one that also transfers the rows."""
        def elapsed(scan):
            start = sim.clock.now_ms
            list(table.scan(scan))
            return sim.clock.now_ms - start

        drop_all = Scan()
        drop_all.filter = ColumnValueFilter(CF, b"grade", "=", b"none")
        keep_all = Scan()
        empty_range = Scan(start_row=b"zzz")
        assert elapsed(empty_range) < elapsed(drop_all) < elapsed(keep_all)
