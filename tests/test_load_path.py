"""The load path on stored bytes: INSERT and major compaction.

* An INSERT encodes its row once (``WriteExecutor.insert_row``) and view
  maintenance builds every view row from the ancestors' stored cells
  (``ViewMaintainer.apply_insert``). Each system here is loaded twice —
  once as shipped, once with those two methods swapped for the decode /
  re-encode path they replaced (``result_to_row_reference`` /
  ``row_to_put_reference``) — and the two stores must hold the same
  rows, cells and timestamps after the same virtual milliseconds.
* Major compaction of a region with one non-empty store component
  adopts each entry that needs no merge; every other entry is rebuilt.
  The compacted state is held to ``ModelRegion``'s compaction, and the
  adopted entries are the very objects the memstore held.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.bench.tpcw_lab import TpcwLab
from repro.hbase.ops import Get
from repro.hbase.region import Region
from repro.tpcw.generator import TpcwDataGenerator
from tests.conftest import empty_company_system
from tests.reference.sql import load_company
from tests.reference.storage import (
    ModelRegion,
    newest_first,
    result_to_row_reference,
    row_to_put_reference,
)

SYSTEMS = ("Synergy", "MVCC-A", "MVCC-UA", "Baseline")
TPCW_CUSTOMERS = 10  # the smallest database the TPC-W generator builds


# ------------------------------------------------------------ the reference
def reference_insert_row(writer, relation, row):
    """``WriteExecutor.insert_row`` before stored rows: every Put
    re-encodes the python row; the row itself goes on to the views."""
    entry = writer.catalog.table_for_relation(relation)
    writer._validate_row(entry, row)
    writer.client.table(entry.name).put(row_to_put_reference(entry, row))
    for index in writer.catalog.indexes_for_relation(relation):
        writer.client.table(index.name).put(row_to_put_reference(index, row))
    return row


def reference_apply_insert(maintainer, relation, row):
    """``ViewMaintainer.apply_insert`` before stored rows: each ancestor
    is decoded, its decoded FK re-encoded as the next key, and the view
    row re-encoded from the decoded values."""
    written = 0
    for view in maintainer.views_for_insert(relation):
        merged = {}
        current = row
        for edge in reversed(view.edges):
            parent = maintainer.catalog.table_for_relation(edge.parent)
            key_values = [current.get(a) for a in edge.fk_attrs]
            if any(v is None for v in key_values):
                break
            result = maintainer.client.table(parent.name).get(
                Get(parent.encode_key_values(key_values), columns=parent.projection())
            )
            if result is None:
                break
            current = result_to_row_reference(parent, result)
            merged.update(current)
        else:
            last = maintainer.schema.relation(relation).attribute_names
            merged.update({a: row.get(a) for a in last})
            entry = maintainer.view_entry(view)
            maintainer.client.table(entry.name).put(row_to_put_reference(entry, merged))
            written += 1
            for index in maintainer.view_index_entries(view):
                maintainer.client.table(index.name).put(
                    row_to_put_reference(index, merged)
                )
                written += 1
    return written


def on_the_reference_path(system):
    """``system`` with its INSERT path swapped for the reference (every
    caller — loading, the Synergy procedure, MVCC's ``_apply_write`` —
    reaches it through these two objects)."""
    system.writer.insert_row = partial(reference_insert_row, system.writer)
    system.maintainer.apply_insert = partial(reference_apply_insert, system.maintainer)
    return system


def store_dump(system) -> dict:
    """Every table's regions, component by component: each row's
    row tombstone and version lists, timestamps included."""
    def component(c):
        return {
            row: (entry.row_tombstone_ts,
                  {key: list(versions) for key, versions in entry.cells.items()})
            for row, entry in c.items()
        }

    cluster = system.cluster
    return {
        name: [
            (region.start_key, component(region.memstore),
             [component(h) for h in region.hfiles], region._approx_size_bytes)
            for region in cluster.descriptor(name).regions
        ]
        for name in cluster.tables
    }


def assert_same_store(system, reference) -> None:
    assert store_dump(system) == store_dump(reference)
    assert system.sim.clock.now_ms == reference.sim.clock.now_ms


def load_tpcw(system) -> None:
    system.load(TpcwDataGenerator(TPCW_CUSTOMERS, seed=TpcwLab().seed).all_rows())


def build_pair(dataset, name):
    """``name`` built twice, identically: shipped and on the reference path."""
    if dataset == "company":
        return empty_company_system(name), on_the_reference_path(
            empty_company_system(name)
        )
    lab = TpcwLab(num_customers=TPCW_CUSTOMERS)
    return lab.build_system(name), on_the_reference_path(lab.build_system(name))


# Company INSERTs. Synergy and MVCC-A keep two-relation views, MVCC-UA
# Department-Employee-Works_On: fresh view rows, FKs that dangle at the
# first edge (Works_On 99, Address 99) and at the second (Department 9),
# NULL FKs in the inserted row (Employee 12) and in an ancestor (Works_On
# 12 on MVCC-UA), and a string literal for an INT key (Project '4')
COMPANY_INSERTS = (
    ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (1, 2, 5)", ()),
    ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)", (99, 1, 3)),
    ("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) "
     "VALUES (11, 'emp11', 99, 2, 9)", ()),
    ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (11, 1, 8)", ()),
    ("INSERT INTO Employee (EID, EName) VALUES (12, 'nofk')", ()),
    ("INSERT INTO Works_On (WO_EID, WO_PNo) VALUES (12, 3)", ()),
    ("INSERT INTO Dependent (DP_EID, DPName, DPHome_AID) "
     "VALUES (3, 'dep3', 4)", ()),
    ("INSERT INTO Project (PNo, PName) VALUES ('4', 'proj4')", ()),
)


class TestInsertIsByteIdentical:
    @pytest.mark.parametrize("name", SYSTEMS)
    @pytest.mark.parametrize("dataset", ["company", "tpcw"])
    def test_load(self, dataset, name):
        system, reference = build_pair(dataset, name)
        load = load_company if dataset == "company" else load_tpcw
        load(system)
        load(reference)
        assert any(
            region.memstore
            for view in system.views
            for region in system.cluster.descriptor(view.name).regions
        ) == (name != "Baseline")
        assert_same_store(system, reference)

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_insert_statements(self, name):
        system, reference = build_pair("company", name)
        for target in (system, reference):
            load_company(target)
            target.finish_load()
        for sql, params in COMPANY_INSERTS:
            system.execute(sql, params)
            reference.execute(sql, params)
            assert_same_store(system, reference)

    def test_a_dangling_or_null_fk_writes_no_view_row(self):
        system = empty_company_system("Synergy")
        load_company(system)
        views = system.maintainer.views_for_insert("Works_On")
        assert views
        for row in ({"WO_EID": 99, "WO_PNo": 1}, {"WO_PNo": 2},
                    {"WO_EID": None, "WO_PNo": 3}):
            stored = system.writer.insert_row("Works_On", row)
            for view in views:
                assert system.maintainer.read_ancestor_chain(view, stored) is None
            assert system.maintainer.apply_insert("Works_On", stored) == 0
        stored = system.writer.insert_row("Works_On", {"WO_EID": 1, "WO_PNo": 2})
        assert system.maintainer.apply_insert("Works_On", stored) > 0


# ------------------------------------------------------------ compaction
CF = b"cf"


def build_region(max_versions: int) -> tuple[Region, ModelRegion]:
    region = Region("adopt", b"", None, max_versions=max_versions,
                    flush_threshold_rows=10_000)
    return region, ModelRegion(max_versions)


def put(region, model, row, qualifier, ts, value=None):
    cells = [((CF, qualifier), value or b"v%d" % ts, ts)]
    region.put_row(row, cells, ts)
    model.put(row, cells, ts)


def compact(region, model) -> dict:
    """Compact both; returns ``row -> pre-compaction entry`` of the
    region's single component (empty when it had several)."""
    components = [c for c in (region.memstore, *region.hfiles) if len(c)]
    before = dict(components[0].items()) if len(components) == 1 else {}
    region.major_compact()
    model.compact()
    assert_compacted_like_the_model(region, model)
    return before


def assert_compacted_like_the_model(region, model) -> None:
    """One HFile holding exactly the model's compacted cells, newest
    first and clean, sized exactly."""
    assert len(region.memstore) == 0
    expected = model.files[0] if model.files else {}
    if not expected:
        assert region.hfiles == []
        assert region._approx_size_bytes == 0
        return
    (hfile,) = region.hfiles
    assert list(hfile._sorted_keys) == sorted(expected)
    size = 0
    for row, entry in hfile.items():
        assert not entry._dirty
        assert entry.row_tombstone_ts is None
        assert entry.cells == expected[row].cells
        for key, versions in entry.cells.items():
            assert versions == newest_first(versions)
            size += sum(
                len(row) + region.kv_overhead_bytes + len(key[0]) + len(key[1])
                + len(value) for _, value in versions
            )
    assert region._approx_size_bytes == size == region._component_size_bytes()


class TestCompactionAdoption:
    def test_a_clean_memstore_is_adopted_entry_for_entry(self):
        region, model = build_region(1)
        for i in range(6):
            put(region, model, b"r%d" % i, b"qa", i + 1)
            put(region, model, b"r%d" % i, b"qb", i + 1)
        before = compact(region, model)
        assert all(region.hfiles[0].entry(row) is e for row, e in before.items())

    def test_a_tombstoned_entry_is_rebuilt(self):
        region, model = build_region(1)
        put(region, model, b"r0", b"qa", 1)
        put(region, model, b"r2", b"qa", 4)
        region.delete_row(b"r2", 6)
        model.delete(b"r2", 6)
        put(region, model, b"r2", b"qb", 7)
        before = compact(region, model)
        hfile = region.hfiles[0]
        assert hfile.entry(b"r0") is before[b"r0"]
        assert hfile.entry(b"r2") is not before[b"r2"]

    def test_versions_beyond_max_versions_are_rebuilt(self):
        region, model = build_region(1)
        put(region, model, b"r0", b"qa", 1)
        put(region, model, b"r0", b"qa", 2)
        put(region, model, b"r1", b"qa", 3)
        before = compact(region, model)
        assert region.hfiles[0].entry(b"r0") is not before[b"r0"]
        assert region.hfiles[0].entry(b"r1") is before[b"r1"]

    def test_up_to_max_versions_a_dirty_entry_is_sorted_and_adopted(self):
        region, model = build_region(3)
        for ts in (5, 3, 4):  # 3 and 4 land out of order: the entry is dirty
            put(region, model, b"r0", b"qa", ts)
        put(region, model, b"r0", b"qb", 6)
        put(region, model, b"r0", b"qb", 6, b"tie")  # an equal stamp: dirty too
        assert region.memstore.entry(b"r0")._dirty
        before = compact(region, model)
        assert region.hfiles[0].entry(b"r0") is before[b"r0"]
        assert [ts for ts, _ in before[b"r0"].cells[(CF, b"qa")]] == [5, 4, 3]

    def test_a_second_component_still_merges(self):
        region, model = build_region(1)
        put(region, model, b"r0", b"qa", 1)
        put(region, model, b"r1", b"qa", 2)
        region.flush()
        model.flush()
        put(region, model, b"r1", b"qb", 3)
        put(region, model, b"r2", b"qa", 4)
        entries = [e for c in (region.memstore, *region.hfiles) for _, e in c.items()]
        assert compact(region, model) == {}
        assert not any(
            e is old for _, e in region.hfiles[0].items() for old in entries
        )

    def test_an_hfile_alone_is_adopted(self):
        region, model = build_region(1)
        put(region, model, b"r0", b"qa", 1)
        region.flush()
        model.flush()
        before = compact(region, model)
        assert region.hfiles[0].entry(b"r0") is before[b"r0"]

    def test_a_deleted_region_compacts_to_nothing(self):
        region, model = build_region(1)
        put(region, model, b"r0", b"qa", 1)
        region.delete_row(b"r0", 2)
        model.delete(b"r0", 2)
        compact(region, model)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("dataset", ["company", "tpcw"])
def test_finish_load_adopts_what_the_load_wrote(dataset, name):
    """After a bulk load every region holds one memstore; compaction
    keeps each of its entries as the object the load wrote, and Table
    III's approximate → exact size handover stays byte-equal."""
    system, _ = build_pair(dataset, name)
    (load_company if dataset == "company" else load_tpcw)(system)
    regions = [
        region for table in system.cluster.tables
        for region in system.cluster.descriptor(table).regions
    ]
    before = {}
    for region in regions:
        assert region.hfiles == []
        before[region.name] = dict(region.memstore.items())
    approx = {region.name: region._approx_size_bytes for region in regions}
    system.finish_load()
    assert sum(map(len, before.values())) > 0
    for region in regions:
        entries = before[region.name]
        if not entries:
            assert region.hfiles == []
            continue
        (hfile,) = region.hfiles
        assert list(hfile._sorted_keys) == sorted(entries)
        assert all(hfile.entry(row) is e for row, e in entries.items())
        assert region._approx_size_bytes == region._component_size_bytes()
        assert region._approx_size_bytes == approx[region.name]
