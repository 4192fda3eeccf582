"""The newest image: a row entry holds one head per column and a version
list only for a column that has more than one version. (A Result held
across later writes: ``tests/test_merge_reference.py::TestPlainRows``.)"""

from repro.bench.tpcw_lab import TpcwLab
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

