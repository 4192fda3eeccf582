"""Write transaction procedures (paper Sec. VIII-B).

Every write acquires exactly one hierarchical lock (on the associated
root row), updates the base table, the applicable views and their
indexes, and releases the lock. Updates follow the 6-step marked
procedure so concurrent scans can detect and restart on dirty rows:

1. acquire the root-key lock; 2. read all rows to update; 3. mark them;
4. issue the updates; 5. un-mark; 6. release the lock.

``on_step`` lets tests interleave concurrent reads between steps, which
is how the read-committed guarantees are exercised deterministically in
a single-threaded simulator.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import UnsupportedStatementError, WorkloadError
from repro.phoenix.catalog import StoredRow
from repro.phoenix.writes import WriteExecutor
from repro.relational.schema import Schema
from repro.synergy.locks import LockManager
from repro.synergy.maintenance import ViewMaintainer
from repro.synergy.trees import RootedTree

StepHook = Callable[[str], None]


class WriteProcedures:
    """Lock-wrapped insert/delete/update against base + views."""

    def __init__(
        self,
        schema: Schema,
        trees: dict[str, RootedTree],
        assignment: dict[str, str],
        writer: WriteExecutor,
        maintainer: ViewMaintainer,
        locks: LockManager,
    ) -> None:
        self.schema = schema
        self.trees = trees
        self.assignment = assignment
        self.writer = writer
        self.maintainer = maintainer
        self.locks = locks

    def _charge_view_statements(self, views: list) -> None:
        """Each maintained view executes as its own Phoenix upsert plan
        inside the transaction procedure (client-side driver overhead)."""
        if not views:
            return
        sim = self.writer.client.cluster.sim
        sim.charge(
            sim.cost.phoenix_statement_ms * len(views), "txlayer.view_statements"
        )

    # -- lock-key derivation -----------------------------------------------------------
    def root_of(self, relation: str) -> str | None:
        if relation in self.trees:
            return relation
        return self.assignment.get(relation)

    def derive_root_key(
        self, relation: str, row: dict[str, Any]
    ) -> tuple[str, list[Any]] | None:
        """Walk the tree path upward via FK values; returns (root, root key
        values) or None when the relation is outside every hierarchy.

        Requires reading the intermediate ancestor rows (charged), except
        the root itself — the first tree edge's FK already names its key.
        """
        root = self.root_of(relation)
        if root is None:
            return None
        if relation == root:
            pk = self.schema.relation(root).primary_key
            try:
                return root, [row[a] for a in pk]
            except KeyError as e:
                raise WorkloadError(
                    f"{relation}: missing key attribute {e} for lock derivation"
                ) from None
        path = self.trees[root].path_from_root(relation)
        current = row
        for edge in reversed(path):
            key_values = [current.get(a) for a in edge.fk_attrs]
            if any(v is None for v in key_values):
                return None  # dangling FK: nothing to lock against
            if edge.parent == root:
                return root, key_values
            parent_row = self.writer.read_row(edge.parent, dict(
                zip(self.schema.relation(edge.parent).primary_key, key_values)
            ))
            if parent_row is None:
                return None
            current = parent_row
        raise AssertionError("unreachable")  # pragma: no cover

    # -- procedures ------------------------------------------------------------------
    def insert(
        self, relation: str, row: dict[str, Any], on_step: StepHook | None = None
    ) -> None:
        """Single-row insert into base + applicable views + indexes."""
        step = on_step or (lambda _: None)
        locked = self.derive_root_key(relation, row)
        lock_row = None
        if locked is not None:
            root, key_values = locked
            lock_row = self.locks.acquire(root, key_values)
        step("after_lock")
        try:
            stored = self.writer.insert_row(relation, row)
            step("after_base_write")
            self._charge_view_statements(self.maintainer.views_for_insert(relation))
            self.maintainer.apply_insert(relation, stored)
            step("after_view_write")
        finally:
            if locked is not None and lock_row is not None:
                self.locks.release(locked[0], lock_row)
            step("after_release")

    def delete(
        self, relation: str, key: dict[str, Any], on_step: StepHook | None = None
    ) -> bool:
        """Single-row delete; returns False when the row did not exist."""
        step = on_step or (lambda _: None)
        old = self.writer.read_row(relation, key)
        if old is None:
            return False
        locked = self.derive_root_key(relation, old)
        lock_row = None
        if locked is not None:
            lock_row = self.locks.acquire(locked[0], locked[1])
        step("after_lock")
        try:
            self.writer.delete_row(relation, key)
            step("after_base_write")
            self._charge_view_statements(self.maintainer.views_for_delete(relation))
            self.maintainer.apply_delete(relation, key)
            step("after_view_write")
        finally:
            if locked is not None and lock_row is not None:
                self.locks.release(locked[0], lock_row)
            step("after_release")
        return True

    def update(
        self,
        relation: str,
        key: dict[str, Any],
        changes: dict[str, Any],
        on_step: StepHook | None = None,
    ) -> bool:
        """The 6-step marked update procedure; False when row absent."""
        step = on_step or (lambda _: None)
        for attr in changes:
            if attr in self.schema.relation(relation).primary_key:
                raise UnsupportedStatementError(
                    f"{relation}: key attribute {attr!r} cannot be updated"
                )
        old = self.writer.read_row(relation, key)
        if old is None:
            return False
        locked = self.derive_root_key(relation, old)
        lock_row = None
        if locked is not None:
            lock_row = self.locks.acquire(locked[0], locked[1])  # step 1
        step("after_lock")
        try:
            # step 2: read all rows that need to be updated
            views = self.maintainer.views_for_update(relation)
            self._charge_view_statements(views)
            located: list[tuple[Any, list[StoredRow]]] = []
            for view in views:
                rows = self.maintainer.locate_view_rows(view, relation, key)
                located.append((view, rows))
            step("after_read")
            # step 3: mark
            for view, rows in located:
                entry = self.maintainer.view_entry(view)
                self.maintainer.mark_rows(entry, rows, dirty=True)
                for index in self.maintainer.view_index_entries(view):
                    if any(a in index.attrs for a in changes):
                        self.maintainer.mark_rows(index, rows, dirty=True)
            step("after_mark")
            # step 4: issue the updates
            self.writer.update_row(relation, key, changes)
            new_rows_by_view = []
            for view, rows in located:
                new_rows = self.maintainer.write_view_rows(view, rows, changes)
                new_rows_by_view.append((view, new_rows))
            step("after_update")
            # step 5: un-mark
            for view, new_rows in new_rows_by_view:
                entry = self.maintainer.view_entry(view)
                self.maintainer.mark_rows(entry, new_rows, dirty=False)
                for index in self.maintainer.view_index_entries(view):
                    if any(a in index.attrs for a in changes):
                        self.maintainer.mark_rows(index, new_rows, dirty=False)
            step("after_unmark")
        finally:
            if locked is not None and lock_row is not None:
                self.locks.release(locked[0], lock_row)  # step 6
            step("after_release")
        return True
