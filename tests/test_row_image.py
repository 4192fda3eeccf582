"""The newest image: a row entry holds one head per column and a version
list only for a column that has more than one version. (A Result held
across later writes: ``tests/test_merge_reference.py::TestPlainRows``.)"""

from collections import Counter

from repro.bench.tpcw_lab import TpcwLab
from repro.phoenix.catalog import CF, DIRTY_QUALIFIER, INDEX, TABLE, VIEW, VIEW_INDEX
from repro.sql.parser import parse_statement
from tests.conftest import build_tpcw_systems

HBASE_BACKED = ("Synergy", "MVCC-A", "MVCC-UA", "Baseline")


def test_a_loaded_tpcw_store_holds_no_list_for_a_single_version():
    lab = TpcwLab(num_customers=10, repetitions=1)
    for name, system in build_tpcw_systems(lab, HBASE_BACKED).items():
        cluster = system.cluster
        entries = [
            (row, entry)
            for table in cluster.tables
            for region in cluster.descriptor(table).regions
            for component in (region.memstore, *region.hfiles)
            for row, entry in component.items()
        ]
        assert entries, name
        for row, entry in entries:
            assert entry.head, (name, row)
            assert all(len(v) > 1 for v in entry.history.values()), (name, row)
            assert entry.history.keys() <= entry.head.keys(), (name, row)


REWRITES = ("W9", "W11", "W13")


def _every_version(system) -> dict:
    """``(table, region) -> {row: {column: [version, ...]}}`` over the
    catalog's tables: every stored version of every visible row, newest
    first."""
    cluster = system.cluster
    return {
        (table, region): {
            row: result.cells
            for row, result in region.scan(max_versions=2**31 - 1)
            if result is not None
        }
        for table in (entry.name for entry in system.catalog.entries())
        for region in cluster.descriptor(table).regions
    }


def _cell_bytes(region, row: bytes, column, value: bytes) -> int:
    """What a put of one cell adds to ``region``'s approximate size."""
    family, qualifier = column
    return len(row) + region.kv_overhead_bytes + len(family) + len(qualifier) + len(value)


def test_a_rewrite_stores_one_version_of_each_column_it_sets():
    """W9, W11 and W13 on a loaded store: each rewritten row -- base,
    covered index, view, view index -- gains one version of each SET
    column it holds and none of any other (``_d``, Synergy's dirty
    marker, is bookkeeping, not a rewrite), each region's size grows by
    exactly the cells gained, and a read still shows the whole row
    across a flush and a major compaction."""
    lab = TpcwLab(num_customers=10, repetitions=1)
    rewritten_kinds = set()
    for name, system in build_tpcw_systems(lab, HBASE_BACKED).items():
        statements = [
            (system.statement(wid), lab.generator.params_for_write(wid, 0))
            for wid in REWRITES
        ]
        set_attrs = {
            column
            for sql, _ in statements
            for column, _ in parse_statement(sql).assignments
        }
        before = _every_version(system)
        sizes = {region: region.approx_size_bytes for _, region in before}
        for sql, params in statements:
            system.execute(sql, params)
        after = _every_version(system)
        assert after.keys() == before.keys(), name
        rewritten = []
        for (table, region), rows in after.items():
            old_rows = before[table, region]
            assert rows.keys() == old_rows.keys(), (name, table)
            entry = system.catalog.entry(table)
            held = {
                (CF, attr.encode()): 1
                for attr in entry.value_attrs if attr in set_attrs
            }
            grown = 0
            for row, cells in rows.items():
                gained = {}
                for column, versions in cells.items():
                    fresh = Counter(versions) - Counter(old_rows[row].get(column, ()))
                    if fresh:
                        gained[column] = sum(fresh.values())
                    grown += sum(
                        count * _cell_bytes(region, row, column, value)
                        for (_, value), count in fresh.items()
                    )
                gained.pop((CF, DIRTY_QUALIFIER), None)
                if gained:
                    assert gained == held, (name, table, row)
                    rewritten.append((region, row, cells))
                    rewritten_kinds.add(entry.kind)
            assert region.approx_size_bytes - sizes[region] == grown, (name, table)
        assert rewritten, name
        for step in (None, "flush", "major_compact"):
            if step is not None:
                for _, region in after:
                    getattr(region, step)()
            for region, row, cells in rewritten:
                newest = {column: versions[:1] for column, versions in cells.items()}
                assert region.read_row(row).cells == newest, (name, step, row)
    assert rewritten_kinds == {TABLE, INDEX, VIEW, VIEW_INDEX}
