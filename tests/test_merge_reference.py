"""``merge_row`` against the copy-everything-and-sort merge it replaced.

The storage engine keeps version lists ordered on write and reads a
bounded head of each; the reference below is the retired body — copy
every version of every projected column, stable-sort, filter one by
one — run over a *model* of the region that records nothing but the
insertion sequence per component. Random in-order, out-of-order and
equal-timestamp puts, row and column deletes, flushes, compactions and
interleaved reads must leave ``merge_row``, ``Region.read_row`` and
``Region.scan`` equal to the reference, every stored list equal to a
stable sort of what was inserted, and no returned list aliased to a
stored one. A count-based guard pins the point of it all: the read of a
hot row does not depend on how many versions the row has absorbed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hbase import store
from repro.hbase.region import Region
from repro.hbase.store import merge_row


# --------------------------------------------------------------- reference
class ModelEntry:
    """One row in one component: insertion-ordered versions, tombstones."""

    def __init__(self, cells=None):
        self.cells = cells if cells is not None else {}
        self.row_tombstone_ts = None
        self.col_tombstones = {}


def newest_first(versions):
    """Stable: equal timestamps keep insertion order."""
    return sorted(versions, key=lambda tv: -tv[0])


def reference_merge_row(sources, max_versions, time_range=None, columns=None):
    """The general path ``merge_row`` had before it took bounded heads."""
    row_ts = max(
        (s.row_tombstone_ts for s in sources if s.row_tombstone_ts is not None),
        default=None,
    )
    col_ts = {}
    for s in sources:
        for key, ts in s.col_tombstones.items():
            if key not in col_ts or ts > col_ts[key]:
                col_ts[key] = ts

    merged = {}
    for s in sources:
        for key, versions in s.cells.items():
            if columns is not None and key not in columns:
                continue
            merged.setdefault(key, []).extend(newest_first(versions))

    visible = {}
    lo, hi = time_range if time_range is not None else (0, 0)
    for key, versions in merged.items():
        kept = []
        key_col_ts = col_ts.get(key)
        for ts, value in newest_first(versions):
            if row_ts is not None and ts <= row_ts:
                continue
            if key_col_ts is not None and ts <= key_col_ts:
                continue
            if time_range is not None and not (lo <= ts < hi):
                continue
            kept.append((ts, value))
            if len(kept) >= max_versions:
                break
        if kept:
            visible[key] = kept
    return visible or None


class ModelRegion:
    """Memstore + HFiles as plain dicts of :class:`ModelEntry`."""

    def __init__(self, max_versions):
        self.max_versions = max_versions
        self.mem = {}
        self.files = []  # oldest first, like Region.hfiles

    def _entry(self, row):
        return self.mem.setdefault(row, ModelEntry())

    def put(self, row, cells, default_ts):
        entry = self._entry(row)
        for family, qualifier, value, ts in cells:
            entry.cells.setdefault((family, qualifier), []).append(
                (default_ts if ts is None else ts, value)
            )

    def delete(self, row, columns, ts):
        entry = self._entry(row)
        if columns is None:
            if entry.row_tombstone_ts is None or ts > entry.row_tombstone_ts:
                entry.row_tombstone_ts = ts
        else:
            for key in columns:
                if ts > entry.col_tombstones.get(key, -1):
                    entry.col_tombstones[key] = ts

    def flush(self):
        if self.mem:
            self.files.append(self.mem)
            self.mem = {}

    def compact(self):
        merged = {}
        for row in ROWS:
            visible = reference_merge_row(self.sources(row), self.max_versions)
            if visible is not None:
                merged[row] = ModelEntry(visible)
        self.mem = {}
        self.files = [merged] if merged else []

    def sources(self, row):
        components = [self.mem, *reversed(self.files)]
        return [c[row] for c in components if row in c]


# --------------------------------------------------------------- op machine
FAMILIES = [b"cf", b"fx"]
QUALIFIERS = [b"a", b"b", b"c"]
ROWS = [b"r%d" % i for i in range(4)]
COLUMN = st.tuples(st.sampled_from(FAMILIES), st.sampled_from(QUALIFIERS))
# None = the server's stamp (the op counter, 1..60): explicit stamps from
# the same range land before, on and after it
STAMP = st.none() | st.integers(1, 70)
CELL = st.tuples(
    st.sampled_from(FAMILIES), st.sampled_from(QUALIFIERS),
    st.binary(max_size=3), STAMP,
)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(ROWS),
                  st.lists(CELL, min_size=1, max_size=4)),
        st.tuples(st.just("delete_row"), st.sampled_from(ROWS), STAMP),
        st.tuples(st.just("delete_col"), st.sampled_from(ROWS),
                  st.lists(COLUMN, min_size=1, max_size=2), STAMP),
        st.tuples(st.just("read"), st.sampled_from(ROWS)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=60,
)

PROJECTIONS = [
    None,
    [(b"cf", b"a")],
    [(b"cf", b"a"), (b"fx", b"b"), (b"cf", b"c")],
]
TIME_RANGES = st.none() | st.tuples(
    st.integers(0, 70), st.integers(0, 40)
).map(lambda t: (t[0], t[0] + t[1]))


def scribble(result):
    """Mutate everything a read handed out."""
    if result is not None:
        for versions in result._cells.values():
            versions.append((10**6, b"scribble"))
            versions.reverse()


def apply_ops(region, model, ops):
    clock = 0
    for op in ops:
        clock += 1
        kind = op[0]
        if kind == "put":
            region.put_row(op[1], op[2], clock)
            model.put(op[1], op[2], clock)
        elif kind == "delete_row":
            ts = clock if op[2] is None else op[2]
            region.delete_row(op[1], None, ts)
            model.delete(op[1], None, ts)
        elif kind == "delete_col":
            ts = clock if op[3] is None else op[3]
            region.delete_row(op[1], op[2], ts)
            model.delete(op[1], op[2], ts)
        elif kind == "read":
            # a read restores the order of a dirty entry in place, and
            # its result is the caller's to ruin
            scribble(region.read_row(op[1], max_versions=4))
            for _, result in region.scan(max_versions=4):
                scribble(result)
        elif kind == "flush":
            region.flush()
            model.flush()
        else:
            region.major_compact()
            model.compact()


def stored_lists(region, row):
    return [
        versions
        for entry in region._sources_for(row)
        for versions in entry._cells.values()
    ]


def assert_region_matches(region, model, max_versions, time_range, columns):
    wanted = frozenset(columns) if columns else None
    scanned = dict(
        region.scan(columns=wanted, max_versions=max_versions,
                    time_range=time_range)
    )
    for row in ROWS:
        expected = reference_merge_row(
            model.sources(row), max_versions, time_range, wanted
        )
        sources = region._sources_for(row)
        merged = merge_row(sources, max_versions, time_range, wanted)
        assert merged == expected
        point = region.read_row(row, columns, max_versions, time_range)
        assert (None if point is None else point._cells) == expected
        if sources:
            result = scanned.pop(row)
            assert (None if result is None else result._cells) == expected
        stored = stored_lists(region, row)
        for returned in (merged, point and point._cells):
            for versions in (returned or {}).values():
                assert not any(versions is s for s in stored)
    assert not scanned  # no phantom rows


class TestMergeMatchesReference:
    @given(
        ops=ops_strategy,
        max_versions=st.integers(1, 4),
        time_range=TIME_RANGES,
        columns=st.sampled_from(PROJECTIONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_reads_equal_the_copy_and_sort_merge(
        self, ops, max_versions, time_range, columns
    ):
        region = Region("t", b"", None, max_versions=3)
        model = ModelRegion(max_versions=3)
        apply_ops(region, model, ops)
        assert_region_matches(region, model, max_versions, time_range, columns)

    @given(ops=ops_strategy)
    @settings(max_examples=100, deadline=None)
    def test_stored_lists_are_a_stable_sort_of_what_was_inserted(self, ops):
        region = Region("t", b"", None, max_versions=3)
        model = ModelRegion(max_versions=3)
        apply_ops(region, model, ops)
        for row in ROWS:
            entries = region._sources_for(row)
            inserted = model.sources(row)
            assert len(entries) == len(inserted)
            for entry, model_entry in zip(entries, inserted):
                assert entry.cells == {
                    key: newest_first(versions)
                    for key, versions in model_entry.cells.items()
                }
                assert entry.row_tombstone_ts == model_entry.row_tombstone_ts
                assert entry.col_tombstones == model_entry.col_tombstones

    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_compaction_after_scribbled_reads_stays_correct(self, ops):
        region = Region("t", b"", None, max_versions=3)
        model = ModelRegion(max_versions=3)
        apply_ops(region, model, ops + [("read", ROWS[0]), ("compact",)])
        assert_region_matches(region, model, 3, None, None)
        assert len(region.hfiles) <= 1 and len(region.memstore) == 0


# ------------------------------------------------- history independence
CF = b"cf"
HOT = b"hot"
HOT_COLUMNS = [(CF, b"c%02d" % i) for i in range(12)]
HISTORY = 5000


def hot_region(monkeypatch):
    """One row, ``HISTORY`` server-stamped versions of every column,
    half in an HFile and half in the memstore; returns the region and
    the list the wrapped key function counts its calls into."""
    region = Region("t", b"", None, max_versions=1)
    cells = [(family, qualifier, b"v", None) for family, qualifier in HOT_COLUMNS]
    for ts in range(1, HISTORY + 1):
        region.put_row(HOT, cells, ts)
        if ts == HISTORY // 2:
            region.flush()
    key_calls = []
    neg_ts = store._neg_ts

    def counting(tv):
        key_calls.append(tv)
        return neg_ts(tv)

    monkeypatch.setattr(store, "_neg_ts", counting)
    return region, key_calls


class TestHistoryIndependence:
    def test_in_order_puts_never_dirty_an_entry(self, monkeypatch):
        region, _ = hot_region(monkeypatch)
        sources = region._sources_for(HOT)
        assert len(sources) == 2
        for entry in sources:
            assert not entry._dirty
            for versions in entry._cells.values():
                assert len(versions) == HISTORY // 2  # nothing dropped
                assert versions == newest_first(versions)

    def test_plain_read_costs_columns_not_history(self, monkeypatch):
        region, key_calls = hot_region(monkeypatch)
        result = region.read_row(HOT)
        assert result.column_count == len(HOT_COLUMNS)
        assert result.versions(*HOT_COLUMNS[0]) == [(HISTORY, b"v")]
        assert len(key_calls) <= 2 * len(HOT_COLUMNS)
        assert [r is not None for _, r in region.scan()] == [True]
        assert len(key_calls) <= 4 * len(HOT_COLUMNS)

    def test_bounded_read_bisects_instead_of_walking(self, monkeypatch):
        region, key_calls = hot_region(monkeypatch)
        region.delete_row(HOT, [HOT_COLUMNS[0]], 10)
        result = region.read_row(
            HOT, max_versions=3, time_range=(100, HISTORY - 100)
        )
        assert result.versions(*HOT_COLUMNS[1]) == [
            (ts, b"v") for ts in range(HISTORY - 101, HISTORY - 104, -1)
        ]
        # two bisections per column per source, each ~log2(HISTORY / 2)
        per_list = 2 * (HISTORY // 2).bit_length()
        assert len(key_calls) <= 3 * len(HOT_COLUMNS) * per_list
