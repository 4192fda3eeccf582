"""``merge_row`` against the copy-everything-and-sort merge it replaced.

The storage engine keeps version lists ordered on write and reads a
bounded head of each; the reference (``tests.reference.storage``) is
the retired body — copy every version of every projected column,
stable-sort, filter one by one — run over a *model* of the region that
records nothing but the insertion sequence per component. Random
in-order, out-of-order and equal-timestamp puts, row deletes,
flushes, compactions and interleaved reads must leave
``merge_row``, ``Region.read_row`` and
``Region.scan`` equal to the reference, every stored list equal to a
stable sort of what was inserted, and no returned list aliased to a
stored one. A count-based guard pins the point of it all: the read of a
hot row does not depend on how many versions the row has absorbed.

The same machine checks what a ``Result`` says about itself —
``size_bytes``, ``column_count``, ``value``, ``newest_into``, ``cells``
— against the reference cells: a *plain* row's result is lent the
stored entry's head dict and its payload (``store.row_result``), so
results are held across later writes, flushes and compactions and must
keep reading what they read when taken, and scribbling on what they
hand out must never reach them or the store. A row whose newest entry
*outshines* its older ones is plain too: the proof is checked against
the merge on random stacks, counted, and shown to hold no entry alive.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hbase import store
from repro.hbase.region import Region
from repro.hbase.store import HFile, RegionScanner, merge_row
from tests.reference.storage import (
    ALL_COLUMNS, FAMILIES, PROJECTIONS, QUALIFIERS, ModelRegion, new_entry,
    newest, newest_first, reading, reference_merge_row, reference_reading,
    put_cell,
)


def assert_result_matches(result, row, expected):
    """Lent a head or not, a result reads as the reference cells do; and
    again once ``cells`` has copied every version out."""
    if expected is None:
        assert result is None
        return
    assert reading(result) == reference_reading(row, expected)
    assert result.cells == expected
    assert reading(result) == reference_reading(row, expected)


# --------------------------------------------------------------- op machine
ROWS = [b"r%d" % i for i in range(4)]
# None = the server's stamp (the op counter, 1..60): explicit stamps from
# the same range land before, on and after it
STAMP = st.none() | st.integers(1, 70)
CELL = st.tuples(
    st.tuples(st.sampled_from(FAMILIES), st.sampled_from(QUALIFIERS)),
    st.binary(max_size=3), STAMP,
)

OP = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(ROWS),
              st.lists(CELL, min_size=1, max_size=4)),
    st.tuples(st.just("delete_row"), st.sampled_from(ROWS), STAMP),
    st.tuples(st.just("read"), st.sampled_from(ROWS)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
)
ops_strategy = st.lists(OP, min_size=1, max_size=60)
# hypothesis draws short lists from the above (4 ops on average): a
# read between two writes of one row needs a floor to come up at all
long_ops_strategy = st.lists(OP, min_size=12, max_size=60)

TIME_RANGES = st.none() | st.tuples(
    st.integers(0, 70), st.integers(0, 40)
).map(lambda t: (t[0], t[0] + t[1]))


def scribble(result):
    """Mutate everything a read handed out."""
    if result is not None:
        cells = result.cells
        cells.setdefault((b"cf", b"a"), []).insert(0, (10**6, b"added"))
        cells[(b"zz", b"new")] = [(1, b"added")]
        for versions in cells.values():
            versions.append((10**6, b"scribble"))
            versions.reverse()


def hold(held, region):
    """Take one-version reads of every row (point and scan: plain rows
    are lent their entry's head) and note what they say now."""
    results = [region.read_row(row) for row in ROWS]
    results.extend(result for _, result in region.scan())
    for result in results:
        if result is not None:
            held.append((result, reading(result)))


def apply_ops(region, model, ops):
    """Run ``ops`` on both; returns the un-scribbled results the reads
    took along the way, each with what it read when taken."""
    clock = 0
    held = []
    for op in ops:
        clock += 1
        kind = op[0]
        if kind == "put":
            region.put_row(op[1], op[2], clock)
            model.put(op[1], op[2], clock)
        elif kind == "delete_row":
            ts = clock if op[2] is None else op[2]
            region.delete_row(op[1], ts)
            model.delete(op[1], ts)
        elif kind == "read":
            # a read restores the order of a dirty entry in place, lends
            # every plain entry's head for the next write to copy, and
            # what its result hands out is the caller's to ruin
            assert_region_matches(region, model, 1, None, None)
            hold(held, region)
            for max_versions in (1, 4):
                scribble(region.read_row(op[1], max_versions=max_versions))
                for _, result in region.scan(max_versions=max_versions):
                    scribble(result)
        elif kind == "flush":
            region.flush()
            model.flush()
        else:
            region.major_compact()
            model.compact()
    return held


def stored_lists(region, row):
    return [
        versions
        for entry in region._sources_for(row)
        for versions in entry.cells.values()
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
        assert_result_matches(point, row, expected)
        if sources:
            assert_result_matches(scanned.pop(row), row, expected)
        stored = stored_lists(region, row)
        for returned in (merged, point and point.cells):
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
    # a delete of a row only an HFile holds: the tombstone starts a fresh
    # memstore entry, the one route that builds an entry without a put
    @example(
        ops=[
            ("put", ROWS[0], [((b"cf", b"a"), b"v", None)]), ("flush",),
            ("delete_row", ROWS[0], None),
            ("put", ROWS[0], [((b"fx", b"b"), b"w", 1)]),
        ],
        max_versions=2, time_range=None, columns=None,
    )
    def test_reads_equal_the_copy_and_sort_merge(
        self, ops, max_versions, time_range, columns
    ):
        region = Region("t", b"", None, max_versions=3)
        model = ModelRegion(max_versions=3)
        apply_ops(region, model, ops)
        assert_region_matches(region, model, max_versions, time_range, columns)

    @given(ops=long_ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_held_results_read_what_they_read_when_taken(self, ops):
        """Snapshot isolation under whatever came later: puts of newer,
        older and equal stamps, deletes, flushes, compactions, and other
        readers scribbling on their own results of the same rows."""
        region = Region("t", b"", None, max_versions=3)
        model = ModelRegion(max_versions=3)
        for result, taken in apply_ops(region, model, ops):
            assert reading(result) == taken
            heads = result.cells  # a copy; must show the same heads
            assert newest(result, ALL_COLUMNS) == taken[2]
            assert all(len(versions) == 1 for versions in heads.values())
        assert_region_matches(region, model, 1, None, None)

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
    cells = [(column, b"v", None) for column in HOT_COLUMNS]
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
            for versions in entry.cells.values():
                assert len(versions) == HISTORY // 2  # nothing dropped
                assert versions == newest_first(versions)

    def test_plain_read_costs_columns_not_history(self, monkeypatch):
        region, key_calls = hot_region(monkeypatch)
        result = region.read_row(HOT)
        assert result.column_count == len(HOT_COLUMNS)
        assert result.cells[HOT_COLUMNS[0]] == [(HISTORY, b"v")]
        assert len(key_calls) <= 2 * len(HOT_COLUMNS)
        assert [r is not None for _, r in region.scan()] == [True]
        assert len(key_calls) <= 4 * len(HOT_COLUMNS)

    def test_bounded_read_bisects_instead_of_walking(self, monkeypatch):
        region, key_calls = hot_region(monkeypatch)
        region.delete_row(HOT, 10)
        result = region.read_row(
            HOT, max_versions=3, time_range=(100, HISTORY - 100)
        )
        assert result.cells[HOT_COLUMNS[1]] == [
            (ts, b"v") for ts in range(HISTORY - 101, HISTORY - 104, -1)
        ]
        # two bisections per column per source, each ~log2(HISTORY / 2)
        per_list = 2 * (HISTORY // 2).bit_length()
        assert len(key_calls) <= 3 * len(HOT_COLUMNS) * per_list


# ------------------------------------------------------------ newest head
NEWEST_HEAD = {
    "equal stamps in the memstore and an HFile": ([
        ("put", ROWS[1], [((b"cf", b"a"), b"flushed", 5), ((b"cf", b"b"), b"only", 5)]),
        ("flush",),
        ("put", ROWS[1], [((b"cf", b"a"), b"memstore", 5)]),
    ], b"memstore"),
    "newest stamp in the oldest of three components": ([
        ("put", ROWS[1], [((b"cf", b"a"), b"newest", 30), ((b"fx", b"b"), b"x", None)]),
        ("flush",),
        ("put", ROWS[1], [((b"cf", b"a"), b"oldest", 10)]),
        ("flush",),
        ("put", ROWS[1], [((b"cf", b"a"), b"middle", 20), ((b"fx", b"b"), b"y", None)]),
    ], b"newest"),
}


class TestNewestHead:
    """An untombstoned row in several components, read for one version
    with no time range, takes each column's newest head."""

    @pytest.mark.parametrize("case", NEWEST_HEAD)
    def test_each_column_shows_its_newest_head(self, case):
        ops, winner = NEWEST_HEAD[case]
        region = Region("t", b"", None, max_versions=3)
        model = ModelRegion(max_versions=3)
        apply_ops(region, model, ops)
        assert len(region._sources_for(ROWS[1])) == 1 + ops.count(("flush",))
        assert region.read_row(ROWS[1]).value(b"cf", b"a") == winner
        for columns in PROJECTIONS:
            assert_region_matches(region, model, 1, None, columns)

    def test_a_head_in_the_older_component_keeps_the_newer_ones_place(self):
        newer, older = new_entry(), new_entry()
        put_cell(newer, b"cf", b"a", 1, b"a1")
        put_cell(newer, b"cf", b"b", 3, b"b3")
        put_cell(older, b"cf", b"b", 4, b"b4")
        put_cell(older, b"cf", b"a", 2, b"a2")
        for columns in (None, frozenset([(b"cf", b"a")])):
            expected = reference_merge_row([newer, older], 1, None, columns)
            merged = merge_row([newer, older], 1, None, columns)
            assert merged == expected and list(merged) == list(expected)
        [(_, result)] = list(
            RegionScanner([HFile({ROW: newer}), HFile({ROW: older})], b"", None)
        )
        assert_result_matches(
            result, ROW, {(b"cf", b"a"): [(2, b"a2")], (b"cf", b"b"): [(4, b"b4")]}
        )
        assert list(result.cells) == [(b"cf", b"a"), (b"cf", b"b")]

    @given(
        whole=st.lists(
            st.tuples(st.binary(max_size=3), st.integers(1, 8)),
            min_size=len(ALL_COLUMNS), max_size=len(ALL_COLUMNS),
        ),
        rewrites=st.lists(
            st.lists(
                st.tuples(st.sampled_from(ALL_COLUMNS), st.binary(max_size=3),
                          st.integers(1, 12)),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=3,
        ),
        columns=st.sampled_from(PROJECTIONS),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_row_rewritten_in_a_few_columns_reads_as_the_merge(
        self, whole, rewrites, columns
    ):
        """A whole older entry under newer entries that each rewrite a
        few of its columns (a put of only the cells an UPDATE sets, over
        a flushed row): the one-version read shows what ``merge_row``
        shows, in its column order, and sizes as the reference does."""
        oldest = new_entry()
        for column, (value, ts) in zip(ALL_COLUMNS, whole):
            put_cell(oldest, *column, ts, value)
        sources = []
        for cells in rewrites:
            entry = new_entry()
            for column, value, ts in cells:
                put_cell(entry, *column, ts, value)
            sources.append(entry)
        sources.append(oldest)
        wanted = frozenset(columns) if columns else None
        for _ in range(2):  # again, over the covers the first read proved
            expected = reference_merge_row(sources, 1, None, wanted)
            merged = merge_row(sources, 1, None, wanted)
            assert merged == expected and list(merged) == list(expected)
            result = store.row_result(ROW, sources, 1, None, wanted)
            assert_result_matches(result, ROW, expected)
            assert list(result.cells) == list(expected)


# ------------------------------------------------------------- plain rows
ROW = b"r1"
WIDE = [(CF, b"c%02d" % i) for i in range(12)]


def one_row_region(flushed):
    region = Region("t", b"", None, max_versions=3)
    model = ModelRegion(max_versions=3)
    cells = [((b"cf", b"a"), b"a-old", 5), ((b"cf", b"b"), b"b-old", 5)]
    region.put_row(ROW, cells, 5)
    model.put(ROW, cells, 5)
    region.put_row(b"r2", cells, 6)  # a neighbour, so the row can split off
    model.put(b"r2", cells, 6)
    if flushed:
        region.flush()
        model.flush()
    return region, model


LATER = {
    "newer put": lambda region: region.put_row(ROW, [((b"cf", b"a"), b"new", 9)], 9),
    "older put": lambda region: region.put_row(ROW, [((b"cf", b"a"), b"old", 2)], 2),
    "equal put": lambda region: region.put_row(ROW, [((b"cf", b"a"), b"same", 5)], 5),
    "new column": lambda region: region.put_row(ROW, [((b"fx", b"c"), b"wide", 9)], 9),
    "delete_row": lambda region: region.delete_row(ROW, 9),
    # a tombstone on the cells' own stamp hides them; an older one hides nothing
    "equal delete_row": lambda region: region.delete_row(ROW, 5),
    "stale delete_row": lambda region: region.delete_row(ROW, 3),
    "flush": lambda region: region.flush(),
    "major_compact": lambda region: region.major_compact(),
    "split": lambda region: region.split(b"r2"),
}


class ProvingSet(frozenset):
    """A column set that counts the covers proven under it."""

    def __init__(self, columns):
        self.proofs = 0

    def issuperset(self, other):
        self.proofs += 1
        return frozenset.issuperset(self, other)


def lent(result, region):
    """The result shows its row's only entry's own head dict."""
    sources = region._sources_for(result.row)
    return len(sources) == 1 and result._head is sources[0].head


class TestPlainRows:
    @pytest.mark.parametrize("later", LATER)
    @pytest.mark.parametrize("flushed", [False, True], ids=["memstore", "hfile"])
    def test_a_result_is_a_snapshot(self, flushed, later):
        region, _ = one_row_region(flushed)
        point = region.read_row(ROW)
        scanned = dict(region.scan())[ROW]
        assert lent(point, region) and point._head is scanned._head
        taken = reading(point)
        assert taken == reading(scanned)
        LATER[later](region)
        if later == "split":
            region = region.split_daughters[0]
        region.put_row(ROW, [((b"cf", b"b"), b"after", 20)], 20)
        for result in (point, scanned):
            assert reading(result) == taken
            assert result.cells == {
                (b"cf", b"a"): [(5, b"a-old")], (b"cf", b"b"): [(5, b"b-old")]
            }

    @pytest.mark.parametrize("flushed", [False, True], ids=["memstore", "hfile"])
    def test_what_a_result_hands_out_is_never_stored(self, flushed):
        region, model = one_row_region(flushed)
        for take in (region.read_row, lambda row: dict(region.scan())[row]):
            result = take(ROW)
            taken = reading(result)
            cells = result.cells
            cells[(b"cf", b"a")][0] = (99, b"edited")
            del cells[(b"cf", b"b")]
            result.cells[(b"cf", b"a")].append((1, b"appended"))
            assert reading(result) == taken
            assert result.cells == {
                (b"cf", b"a"): [(5, b"a-old")], (b"cf", b"b"): [(5, b"b-old")]
            }
            assert_region_matches(region, model, 1, None, None)

    def test_every_write_keeps_the_entry_payload_and_cover(self):
        region, model = Region("t", b"", None), ModelRegion(1)

        def step(write, *args):
            getattr(region, write)(ROW, *args)
            (model.put if write == "put_row" else model.delete)(ROW, *args)
            # the point read and the scan each lend, then are checked
            assert_region_matches(region, model, 1, None, None)

        step("put_row", [((b"cf", b"a"), b"v", None)], 1)
        step("put_row", [((b"cf", b"a"), b"longer value", None)], 2)  # fused put
        step("put_row", [((b"fx", b"b"), b"another column", None)], 3)
        put_cell(region.memstore.entry(ROW), b"cf", b"c", 4, b"by put_cell")
        model.put(ROW, [((b"cf", b"c"), b"by put_cell", 4)], 4)
        assert_region_matches(region, model, 1, None, None)

        def read_with(columns):
            """Point read and scan under this very set object, checked
            against the reference; True when both were lent the head."""
            expected = reference_merge_row(model.sources(ROW), 1, None, columns)
            results = [region.read_row(ROW, columns)]
            results.extend(result for _, result in region.scan(columns=columns))
            plain = {lent(result, region) for result in results}
            for result in results:
                assert_result_matches(result, ROW, expected)
            assert len(plain) == 1
            return plain.pop()

        # the entry remembers which set proved the cover: equal sets that
        # are different objects each prove it afresh
        covering = frozenset([(b"cf", b"a"), (b"fx", b"b"), (b"cf", b"c")])
        twin = frozenset(sorted(covering))
        assert twin == covering and twin is not covering
        assert all(read_with(columns) for columns in (covering, twin, covering, twin))
        # a column outside the set: the next read under it takes the merge,
        # and a cover proven under no projection proves nothing for the set
        region.put_row(ROW, [((b"fx", b"c"), b"outside the set", None)], 5)
        model.put(ROW, [((b"fx", b"c"), b"outside the set", None)], 5)
        assert not read_with(covering)
        assert_region_matches(region, model, 1, None, None)
        assert not read_with(covering)
        step("put_row", [((b"cf", b"a"), b"back", None)], 6)
        step("delete_row", 7)
        step("put_row", [((b"cf", b"b"), b"reborn", None)], 8)

    def test_a_dirty_entry_lends_its_newest_head_unsorted(self):
        region, model = Region("t", b"", None), ModelRegion(1)
        for ts, value in (
            (5, b"first@5"), (3, b"older"), (5, b"second@5"), (9, b"top"), (9, b"late@9")
        ):
            cells = [((b"cf", b"a"), value, ts)]
            region.put_row(ROW, cells, ts)
            model.put(ROW, cells, ts)
        region.flush()  # nothing has read the entry yet
        model.flush()
        entry = region.hfiles[0].entry(ROW)
        assert entry._dirty
        [(_, result)] = list(region.scan())
        assert lent(result, region) and entry._dirty
        assert result.value(b"cf", b"a") == b"top"
        assert_region_matches(region, model, 1, None, None)
        assert region.read_row(ROW, max_versions=5).cells[(b"cf", b"a")] == [
            (9, b"top"), (9, b"late@9"), (5, b"first@5"), (5, b"second@5"), (3, b"older")
        ]

    @pytest.mark.parametrize("flushed", [False, True], ids=["memstore", "hfile"])
    def test_rows_that_are_not_plain_take_the_merge(self, flushed):
        region, model = one_row_region(flushed)
        narrow = frozenset([(b"cf", b"a")])
        exact = frozenset([(b"cf", b"a"), (b"cf", b"b")])
        for columns, max_versions, time_range, plain in (
            (None, 1, None, True),
            (exact, 1, None, True),
            (exact | {(b"fx", b"c")}, 1, None, True),
            (narrow, 1, None, False),
            (None, 2, None, False),
            (None, 1, (0, 50), False),
        ):
            [(_, result), _] = list(
                region.scan(None, None, columns, max_versions, time_range)
            )
            assert lent(result, region) is plain
            # a result built by the merge has not been sized yet
            assert (result._summary is not None) is plain
        region.delete_row(ROW, 1)  # hides nothing, still not plain
        result = region.read_row(ROW)
        assert all(result._head is not e.head for e in region._sources_for(ROW))
        assert_region_matches(region, model, 1, None, None)

    def test_a_rescan_lends_every_head_and_proves_each_cover_once(self):
        """Exact counts: heads lent and covers proven per scan."""
        rows = 2000
        region = Region("t", b"", None, flush_threshold_rows=10**9)
        for i in range(rows):
            region.put_row(b"k%05d" % i, [(column, b"v%d" % i, None) for column in WIDE], i + 1)

        def scan(columns=None):
            results = [result for _, result in region.scan(columns=columns)]
            total = sum(result.size_bytes for result in results)
            for result in results:
                newest(result, WIDE[:3])
            proofs = columns.proofs if isinstance(columns, ProvingSet) else 0
            return results, total, proofs

        def not_lent(results):
            return [r.row for r in results if not lent(r, region)]

        # in the memstore: every head lent as it is stored
        results, total, _ = scan()
        assert not_lent(results) == [] and scan()[1] == total
        held = results[7]
        region.put_row(b"k00007", [((CF, b"c00"), b"a longer value", None)], rows + 1)
        assert held.value(CF, b"c00") == b"v7"  # the write copied the head
        total += len(b"a longer value") - len(b"v7")
        results, again, _ = scan()
        assert again == total and not_lent(results) == []
        region.flush()
        # in an HFile: lent under no projection, the exact set and a wider
        # one; a set's cover is proven once per entry, and a rescan with
        # the same set object proves none (``proven`` counts per set)
        exact = ProvingSet(WIDE)
        wider = ProvingSet(WIDE + [(b"fx", b"x")])
        twin = ProvingSet(WIDE)
        for columns, proven in (
            (None, 0), (exact, rows), (exact, rows), (None, 0),
            (wider, rows), (twin, rows), (exact, 2 * rows),
        ):
            results, again, proofs = scan(columns)
            assert (again, proofs, not_lent(results)) == (total, proven, [])
        # a new row in the memstore: the heap merge sees 2000 runs of one
        # HFile source and one run of one memstore source
        region.put_row(b"k00007x", [((CF, b"c00"), b"v", None)], rows + 2)
        results, _, _ = scan()
        assert len(results) == rows + 1 and not_lent(results) == []
        # the row written twice is two sources now: merged, nothing lent
        region.put_row(b"k00007", [((CF, b"c00"), b"v7", None)], rows + 3)
        results, _, _ = scan()
        assert not_lent(results) == [b"k00007"]


# ---------------------------------------------------------- outshining rows
def two_source_region():
    """``ROW`` with columns a and b at stamp 5 in an HFile, and an empty
    memstore over it."""
    region = Region("t", b"", None, max_versions=3)
    model = ModelRegion(max_versions=3)
    for row, ts in ((ROW, 5), (b"r2", 6)):
        cells = [((b"cf", b"a"), b"a-old", 5), ((b"cf", b"b"), b"b-old", 5)]
        region.put_row(row, cells, ts)
        model.put(row, cells, ts)
    region.flush()
    model.flush()
    return region, model


def put_both(region, model, cells, ts):
    region.put_row(ROW, cells, ts)
    model.put(ROW, cells, ts)


def newest_lent(result, region):
    """The result shows its row's newest entry's own head dict, sized
    from that entry's payload."""
    newest = region._sources_for(result.row)[0]
    return result._head is newest.head and result._summary == (
        len(newest.head), newest.payload
    )


def counting_proofs(monkeypatch):
    """Count every proof ``_outshines`` runs (memo misses only)."""
    proofs = []
    prove = store._prove_outshines

    def counting(head, older):
        proofs.append(len(older))
        return prove(head, older)

    monkeypatch.setattr(store, "_prove_outshines", counting)
    return proofs


OVER_AN_HFILE = {
    # name: (memstore cells, memstore delete, whether the memstore entry is lent)
    "newer stamps on every column": (
        [((b"cf", b"a"), b"a-new", 9), ((b"cf", b"b"), b"b-new", 9)], None, True),
    "every column and one more": (
        [((b"cf", b"a"), b"a-new", 9), ((b"cf", b"b"), b"b-new", 7),
         ((b"fx", b"c"), b"c-new", 9)], None, True),
    # a tie goes to the newer source, as in the merge
    "equal stamps": (
        [((b"cf", b"a"), b"a-same", 5), ((b"cf", b"b"), b"b-same", 5)], None, True),
    "an older source holds a column the newer lacks": (
        [((b"cf", b"a"), b"a-new", 9)], None, False),
    "an older source holds a newer explicit stamp": (
        [((b"cf", b"a"), b"a-new", 9), ((b"cf", b"b"), b"b-older", 4)], None, False),
    "the newer source holds a tombstone": (
        [((b"cf", b"a"), b"a-new", 9), ((b"cf", b"b"), b"b-new", 9)], 1, False),
}


class TestOutshiningRows:
    """A row whose newest entry holds every column of every older one at
    a stamp no older, with no tombstone anywhere, is plain: a one-version
    read is lent that entry's head, as a one-source row is."""

    @pytest.mark.parametrize("case", OVER_AN_HFILE)
    def test_a_memstore_entry_over_an_hfile_entry(self, case):
        cells, delete, plain = OVER_AN_HFILE[case]
        region, model = two_source_region()
        ts = 10
        if delete is not None:
            # the tombstone must not hide the memstore's own cells: the
            # entry takes it first, then the cells newer than it
            region.delete_row(ROW, delete)
            model.delete(ROW, delete)
        put_both(region, model, cells, ts)
        assert len(region._sources_for(ROW)) == 2
        for columns in (None, frozenset(ALL_COLUMNS)):
            results = [region.read_row(ROW, columns)]
            results.extend(r for row, r in region.scan(columns=columns) if row == ROW)
            for result in results:
                assert newest_lent(result, region) is plain
        for columns in PROJECTIONS:
            assert_region_matches(region, model, 1, None, columns)

    def test_an_older_tombstone_takes_the_merge(self):
        region, model = two_source_region()
        region.delete_row(ROW, 1)  # hides nothing, but sits in the HFile
        model.delete(ROW, 1)
        region.flush()
        model.flush()
        put_both(region, model, [((b"cf", b"a"), b"a", 9), ((b"cf", b"b"), b"b", 9)], 10)
        assert len(region._sources_for(ROW)) == 3
        assert not newest_lent(region.read_row(ROW), region)
        assert_region_matches(region, model, 1, None, None)

    def test_equal_stamps_read_the_newer_entry(self):
        region, model = two_source_region()
        put_both(region, model, [((b"cf", b"a"), b"tie", 5), ((b"cf", b"b"), b"tie", 5)], 10)
        result = region.read_row(ROW)
        assert newest_lent(result, region)
        assert result.value(b"cf", b"a") == result.value(b"cf", b"b") == b"tie"
        assert_region_matches(region, model, 1, None, None)

    @pytest.mark.parametrize("later", LATER)
    def test_a_held_result_is_a_snapshot(self, later):
        region, model = two_source_region()
        put_both(region, model, [((b"cf", b"a"), b"a-new", 9), ((b"cf", b"b"), b"b-new", 9)], 9)
        point = region.read_row(ROW)
        scanned = dict(region.scan())[ROW]
        assert newest_lent(point, region) and point._head is scanned._head
        taken = reading(point)
        LATER[later](region)
        if later == "split":
            region = region.split_daughters[0]
        region.put_row(ROW, [((b"cf", b"b"), b"after", 20)], 20)
        for result in (point, scanned):
            assert reading(result) == taken
            assert result.cells == {
                (b"cf", b"a"): [(9, b"a-new")], (b"cf", b"b"): [(9, b"b-new")]
            }

    def test_the_proof_runs_once_per_entry_and_older_sources(self, monkeypatch):
        proofs = counting_proofs(monkeypatch)
        region, model = two_source_region()
        put_both(region, model, [((b"cf", b"a"), b"a1", 9), ((b"cf", b"b"), b"b1", 9)], 9)

        def reads_lent():
            """A point read and a scan of ``ROW``, checked against the
            reference."""
            expected = reference_merge_row(model.sources(ROW), 1)
            results = [region.read_row(ROW), dict(region.scan())[ROW]]
            for result in results:
                assert_result_matches(result, ROW, expected)
            return all(newest_lent(result, region) for result in results)

        assert reads_lent() and reads_lent() and proofs == [1]
        # a put raises a stamp or adds a column: the proof still holds
        put_both(region, model, [((b"cf", b"a"), b"a2", 11)], 11)
        put_both(region, model, [((b"fx", b"c"), b"c2", 12)], 12)
        assert reads_lent() and proofs == [1]
        # an older explicit stamp moves no head: still proven
        put_both(region, model, [((b"cf", b"b"), b"b0", 2)], 13)
        assert reads_lent() and proofs == [1]
        # a flush: the same entry over the same older one, from an HFile
        region.flush()
        model.flush()
        assert reads_lent() and proofs == [1]
        # a new memstore entry over both: one proof over two older sources
        put_both(region, model, [((b"cf", b"a"), b"a3", 20), ((b"cf", b"b"), b"b3", 20),
                                 ((b"fx", b"c"), b"c3", 20)], 20)
        assert reads_lent() and proofs == [1, 2]
        # a split shares every entry by reference: nothing to prove again
        region = region.split(b"r2")[0]
        assert reads_lent() and proofs == [1, 2]
        # a compaction leaves one source, trivially plain; a put over it
        # is a new pair, proven once
        region.major_compact()
        model.compact()
        assert reads_lent() and proofs == [1, 2]
        put_both(region, model, [((b"cf", b"a"), b"a4", 30), ((b"cf", b"b"), b"b4", 30),
                                 ((b"fx", b"c"), b"c4", 30)], 30)
        assert reads_lent() and reads_lent() and proofs == [1, 2, 1]
        # a failed proof is not remembered: each read tries again (over
        # the flushed entry and the compacted one), and it holds once the
        # newer entry catches up
        region.flush()
        model.flush()
        put_both(region, model, [((b"cf", b"a"), b"a5", 40)], 40)
        assert not reads_lent() and proofs == [1, 2, 1, 2, 2]
        put_both(region, model, [((b"cf", b"b"), b"b5", 41), ((b"fx", b"c"), b"c5", 41)], 41)
        assert reads_lent() and reads_lent() and proofs == [1, 2, 1, 2, 2, 2]

    def test_the_proof_keeps_no_compacted_entry_alive(self):
        region, model = two_source_region()
        put_both(region, model, [((b"cf", b"a"), b"a", 9), ((b"cf", b"b"), b"b", 9)], 9)
        newer, older = region._sources_for(ROW)
        assert newest_lent(region.read_row(ROW), region)
        assert [proven() for proven in newer._outshone] == [older]
        older_ref = weakref.ref(older)
        del older
        region.major_compact()
        gc.collect()
        assert older_ref() is None
        assert newer._outshone and newer._outshone[0]() is None
        # the compacted row reads as the reference says
        model.compact()
        assert_region_matches(region, model, 1, None, None)


SOURCE = st.tuples(
    st.lists(st.tuples(st.sampled_from(ALL_COLUMNS), st.binary(max_size=2),
                       st.integers(1, 8)), max_size=6),
    # mostly no tombstone: an untombstoned stack is what the proof reads
    st.one_of(st.none(), st.none(), st.none(), st.integers(1, 8)),
)


class TestOutshiningMatchesTheMerge:
    @given(
        stack=st.lists(SOURCE, min_size=1, max_size=4),
        later=st.lists(st.tuples(st.sampled_from(ALL_COLUMNS), st.integers(1, 12)),
                       max_size=4),
        columns=st.sampled_from(PROJECTIONS),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_result_equals_merge_row(self, stack, later, columns):
        """Random memstore / HFile stacks (newest first), read for one
        version, then read again after puts to the newest entry: the
        memo a first read left behind must still tell the truth."""
        sources = []
        for cells, tombstone in stack:
            entry = new_entry()
            for column, value, ts in cells:
                put_cell(entry, *column, ts, value)
            if tombstone is not None:
                entry.delete_row(tombstone)
            sources.append(entry)
        wanted = frozenset(columns) if columns else None
        for step in range(len(later) + 1):
            if step:
                column, ts = later[step - 1]
                put_cell(sources[0], *column, ts, b"later")
            for _ in range(2):
                expected = reference_merge_row(sources, 1, None, wanted)
                assert merge_row(sources, 1, None, wanted) == expected
                assert_result_matches(
                    store.row_result(ROW, sources, 1, None, wanted), ROW, expected
                )
