"""Synergy's transaction layer under slave crashes (paper Sec. VIII,
Fig. 7): a write statement stopped at any step of its procedure and
finished by the stand-in that ``recover_slave`` starts leaves the store
exactly as the same statement run without a crash.

A step hook kills the slave (``crash()``, then raises); recovery then
replays the dead slave's pending WAL. The comparison is cell by cell
with an uncrashed twin, not with "each view is the join of its bases":
a DELETE of an Employee leaves its ``MV_Employee__Works_On`` rows even
without a crash, because the paper has no cascading deletes (Sec.
VII-B)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.errors import ReproError
from repro.hbase.ops import Scan
from repro.phoenix.catalog import CF
from repro.phoenix.plans import DIRTY_MARK, DIRTY_QUALIFIER
from repro.sql.parser import parse_statement
from repro.synergy.locks import LOCK_FREE, LOCK_QUALIFIER
from tests.conftest import build_company_system, lock_held, run_four_client_schedule
from tests.reference.generators import generate_write
from tests.reference.sql import TABLES, company_rows, ref_write

#: Every step label the write procedure emits, in procedure order.
STEPS = (
    "after_lock", "after_read", "after_mark", "after_base_write",
    "after_update", "after_view_write", "after_unmark",
)

INSERT_WORKS_ON = (
    "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)", (2, 99, 5),
)
DELETE_EMPLOYEE = ("DELETE FROM Employee WHERE EID = ?", (2,))
RENAME_EMPLOYEE = ("UPDATE Employee SET EName = ? WHERE EID = ?", ("renamed", 2))
#: One statement per write kind on a root, a mid-tree and a leaf relation.
PROBES = (
    INSERT_WORKS_ON,
    ("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) "
     "VALUES (?, ?, ?, ?, ?)", (50, "new", 3, 1, 2)),
    DELETE_EMPLOYEE,
    ("DELETE FROM Works_On WHERE WO_EID = ? and WO_PNo = ?", (2, 2)),
    RENAME_EMPLOYEE,
    ("UPDATE Works_On SET Hours = ? WHERE WO_EID = ? and WO_PNo = ?", (55, 2, 2)),
    ("UPDATE Address SET City = ? WHERE AID = ?", ("Memphis", 3)),
)


class SlaveCrashed(Exception):
    """What a killing step hook raises once the slave is dead."""


def generated_writes(seed: int = 37, per_kind: int = 3) -> list:
    """``per_kind`` accepted writes of each ``generate_write`` shape —
    INSERT, UPDATE and DELETE of a present key, UPDATE and DELETE of an
    absent one — each drawn against the unwritten Company rows."""
    rng = random.Random(seed)
    found: dict[str, list] = {}
    while len(found) < 5 or min(map(len, found.values())) < per_kind:
        data = company_rows()
        spec = generate_write(rng, data)
        try:
            written = ref_write(data, spec)
        except ReproError:
            continue  # a refused shape: nothing reaches the procedure
        shape = spec.kind if spec.kind == "INSERT" else f"{spec.kind}-{written}"
        found.setdefault(shape, [])
        if len(found[shape]) < per_kind:
            found[shape].append(spec)
    return [spec for shape in sorted(found) for spec in found[shape]]


def store_cells(system) -> dict:
    """Every table's newest cell values (views, indexes and lock tables
    included), by row key and column."""
    return {
        name: {
            result.row: {col: versions[0][1] for col, versions in result.cells.items()}
            for result in system.client.table(name).scan(Scan())
        }
        for name in system.cluster.tables
    }


def base_rows(system) -> dict:
    return {
        table: Counter(
            tuple(r[a] for a in attrs)
            for r in system.execute(f"SELECT * FROM {table}")
        )
        for table, attrs in TABLES.items()
    }


def run_write(system, sql, params, on_step=None):
    return system.txlayer.execute_write(parse_statement(sql), params, on_step)


def killer(system, at: str):
    """A step hook that kills ``system``'s only slave at step ``at``."""
    slave = system.txlayer.slaves[0]

    def hook(step):
        if step == at:
            slave.crash()
            raise SlaveCrashed(at)

    return hook


def crash_and_recover(sql, params, at: str):
    """A fresh Company Synergy whose slave died at ``at`` while writing
    ``sql``, after ``recover_slave``."""
    system = build_company_system("Synergy")
    slave = system.txlayer.slaves[0]
    with pytest.raises(SlaveCrashed):
        run_write(system, sql, params, killer(system, at))
    assert [e.status for e in slave.wal] == ["pending"]
    assert system.txlayer.recover_slave(slave) == 1
    return system


def assert_clean(cells: dict) -> None:
    """No row is left marked, and every lock is free."""
    for name, rows in cells.items():
        for row, cols in rows.items():
            assert cols.get((CF, DIRTY_QUALIFIER)) != DIRTY_MARK, (name, row)
            if name.startswith("LOCK_"):
                assert cols[(CF, LOCK_QUALIFIER)] == LOCK_FREE, (name, row)


class TestCrashAtEveryStep:
    """Each write shape × each step it reaches: kill, recover, compare."""

    @staticmethod
    def check(sql, params, expected_bases=None):
        twin = build_company_system("Synergy")
        steps: list[str] = []
        run_write(twin, sql, params, steps.append)
        twin_cells = store_cells(twin)
        if expected_bases is not None:
            assert base_rows(twin) == expected_bases
        for at in steps:
            system = crash_and_recover(sql, params, at)
            cells = store_cells(system)
            assert cells == twin_cells, f"{sql} {params} stopped {at}"
            assert_clean(cells)
            if expected_bases is not None:
                assert base_rows(system) == expected_bases
        return steps

    @pytest.mark.parametrize(
        "spec", generated_writes(), ids=lambda spec: spec.sql
    )
    def test_generated_write(self, spec):
        data = company_rows()
        ref_write(data, spec)
        expected = {
            table: Counter(tuple(r[a] for a in attrs) for r in data[table])
            for table, attrs in TABLES.items()
        }
        self.check(spec.sql, spec.params, expected)

    @pytest.mark.parametrize("sql, params", PROBES, ids=lambda p: str(p))
    def test_probe(self, sql, params):
        steps = self.check(sql, params)
        assert steps[0] == "after_lock" and len(steps) == (
            5 if sql.startswith("UPDATE") else 3
        )

    def test_the_probes_reach_every_step(self):
        reached = set()
        for sql, params in PROBES:
            run_write(build_company_system("Synergy"), sql, params, reached.add)
        assert reached == set(STEPS)


class TestPinnedCrashes:
    """The recovery bugs a crash inside a procedure used to show: the
    entry was marked ``failed`` and never replayed, and the procedure's
    ``finally`` released a lock a dead slave could not release."""

    def test_crash_leaves_the_entry_pending_and_its_lock_held(self):
        system = build_company_system("Synergy")
        slave = system.txlayer.slaves[0]
        with pytest.raises(SlaveCrashed):
            run_write(system, *INSERT_WORKS_ON, killer(system, "after_base_write"))
        (entry,) = slave.wal
        assert entry.status == "pending" and entry.write is not None
        # Works_On (2, _) hangs from Employee 2, who lives at Address 3
        assert entry.write.lock[0] == "Address"
        assert lock_held(system.locks, "Address", [3])
        system.txlayer.recover_slave(slave)
        assert entry.status == "recovered"
        assert not lock_held(system.locks, "Address", [3])

    def test_insert_stopped_after_base_write_reaches_its_view(self):
        system = crash_and_recover(*INSERT_WORKS_ON, "after_base_write")
        rows = system.execute(
            "SELECT * FROM MV_Employee__Works_On WHERE WO_EID = ? and WO_PNo = ?",
            (2, 99),
        )
        assert [(r["EName"], r["Hours"]) for r in rows] == [("emp2", 5)]

    def test_delete_stopped_after_base_write_drops_its_view_row(self):
        system = crash_and_recover(*DELETE_EMPLOYEE, "after_base_write")
        assert system.execute("SELECT * FROM Employee WHERE EID = ?", (2,)) == []
        assert system.execute(
            "SELECT * FROM MV_Address__Employee WHERE EID = ?", (2,)
        ) == []

    @pytest.mark.parametrize("at", ["after_mark", "after_update"])
    def test_update_stopped_while_marked_leaves_no_marked_row(self, at):
        system = crash_and_recover(*RENAME_EMPLOYEE, at)
        rows = system.execute(
            "SELECT * FROM MV_Employee__Works_On WHERE WO_EID = ?", (2,)
        )
        assert rows and {r["EName"] for r in rows} == {"renamed"}

    def test_crash_at_after_lock_does_not_leak_the_lock(self):
        system = crash_and_recover(*RENAME_EMPLOYEE, "after_lock")
        assert not lock_held(system.locks, "Address", [3])
        system.locks.max_attempts = 2
        system.execute("UPDATE Employee SET EName = ? WHERE EID = ?", ("again", 7))

    def test_replay_releases_the_lock_the_pre_image_named(self):
        """Moving Employee 2 from Address 3 to Address 1 holds Address
        3's lock; a stand-in that re-read the half-written row would
        free Address 1's instead."""
        system = crash_and_recover(
            "UPDATE Employee SET EHome_AID = ? WHERE EID = ?", (1, 2), "after_update"
        )
        assert_clean(store_cells(system))


class TestStatementErrors:
    """An exception on a slave that is still alive is a statement error:
    the lock is released and the entry ``failed``, never replayed."""

    def test_hook_error_on_a_live_slave_fails_the_entry(self):
        system = build_company_system("Synergy")
        slave = system.txlayer.slaves[0]

        def hook(step):
            if step == "after_base_write":
                raise RuntimeError("statement error")

        with pytest.raises(RuntimeError):
            run_write(system, *INSERT_WORKS_ON, hook)
        assert [e.status for e in slave.wal] == ["failed"]
        assert slave.pending_entries() == []
        assert not lock_held(system.locks, "Address", [3])

    def test_lock_waits_leave_no_pending_entry(self):
        """Two clients renaming employees under one root: each
        ``LockWaitRequired`` fails that attempt's entry, and the retry
        is a fresh one."""
        system = build_company_system("Synergy")
        per_client = [
            [[("UPDATE Employee SET EName = ? WHERE EID = ?", (f"c{c}-{t}", 2))]
             for t in range(3)]
            for c in range(2)
        ]
        report = run_four_client_schedule(system, per_client)
        assert report.lock_wait_count > 0 and report.committed == 6
        (slave,) = system.txlayer.slaves
        statuses = Counter(e.status for e in slave.wal)
        assert statuses == {"committed": 6, "failed": report.lock_wait_count}
        assert slave.pending_entries() == []
        assert not lock_held(system.locks, "Address", [3])

