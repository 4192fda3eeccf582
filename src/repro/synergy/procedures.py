"""Write transaction procedures (paper Sec. VIII-B).

Every write acquires exactly one hierarchical lock (on the associated
root row), updates the base table, the applicable views and their
indexes, and releases the lock. Updates follow the 6-step marked
procedure so concurrent scans can detect and restart on dirty rows:

1. acquire the root-key lock; 2. read all rows to update; 3. mark them;
4. issue the updates; 5. un-mark; 6. release the lock.

One path runs every write: :meth:`WriteProcedures.prepare` is what
comes before the first store write (the pre-image read of an
UPDATE/DELETE, the root key it names, step 1), ``run`` steps 2–5 and
``release`` step 6. ``run``'s store writes are idempotent — an INSERT
re-puts the same bytes, a DELETE finds its base row gone and addresses
the view row by key, an UPDATE re-locates, re-marks, re-writes and
un-marks — so a stand-in finishes a write stopped at any step by
running them again on the same :class:`LockedWrite` (``txlayer.py``).

``on_step`` lets tests interleave concurrent reads between steps, which
is how the read-committed guarantees are exercised deterministically in
a single-threaded simulator, and kill a slave at a step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import WorkloadError
from repro.phoenix.writes import WriteExecutor, WritePlan
from repro.relational.schema import Schema
from repro.synergy.locks import LockManager
from repro.synergy.maintenance import ViewMaintainer
from repro.synergy.trees import RootedTree

StepHook = Callable[[str], None]


@dataclass(frozen=True)
class LockedWrite:
    """A compiled write whose root lock is held: ``lock`` is ``(root,
    lock-table row)``, or None for a relation outside every tree."""

    plan: WritePlan
    lock: tuple[str, bytes] | None


class WriteProcedures:
    """The one lock-wrapped write procedure against base + views."""

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
        self.writer.client.cluster.sim.charge(
            "txlayer.view_statements", "phoenix_statement_ms", len(views)
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

    # -- the procedure -----------------------------------------------------------------
    def prepare(self, plan: WritePlan) -> LockedWrite | None:
        """Step 1: lock the root row the written row hangs from — for an
        UPDATE/DELETE, as its pre-image names it. None when that row is
        absent: there is nothing to write."""
        row = plan.row
        if row is None:
            row = self.writer.read_row(plan.relation, plan.key)
            if row is None:
                return None
        locked = self.derive_root_key(plan.relation, row)
        if locked is None:
            return LockedWrite(plan, None)
        root, key_values = locked
        return LockedWrite(plan, (root, self.locks.acquire(root, key_values)))

    def run(self, write: LockedWrite, on_step: StepHook | None = None) -> None:
        """Steps 2–5: base table, views and their indexes; idempotent."""
        step = on_step or (lambda _: None)
        plan, relation = write.plan, write.plan.relation
        step("after_lock")
        if plan.kind == "update":
            self._marked_update(plan, step)
            return
        if plan.kind == "insert":
            stored = self.writer.insert_row(relation, plan.row)
            step("after_base_write")
            self._charge_view_statements(self.maintainer.views_for_insert(relation))
            self.maintainer.apply_insert(relation, stored)
        else:
            self.writer.delete_row(relation, plan.key)
            step("after_base_write")
            self._charge_view_statements(self.maintainer.views_for_delete(relation))
            self.maintainer.apply_delete(relation, plan.key)
        step("after_view_write")

    def release(self, write: LockedWrite) -> None:
        """Step 6."""
        if write.lock is not None:
            self.locks.release(*write.lock)

    def _marked_update(self, plan: WritePlan, step: StepHook) -> None:
        """Steps 2–5 of the marked update."""
        relation, key, changes = plan.relation, plan.key, plan.changes
        # step 2: read all rows that need to be updated
        views = self.maintainer.views_for_update(relation)
        self._charge_view_statements(views)
        located = [
            (view, self.maintainer.locate_view_rows(view, relation, key))
            for view in views
        ]
        step("after_read")
        self._mark(located, changes, dirty=True)  # step 3
        step("after_mark")
        # step 4: issue the updates
        self.writer.update_row(relation, key, changes)
        rewritten = [
            (view, self.maintainer.write_view_rows(view, rows, changes))
            for view, rows in located
        ]
        step("after_update")
        self._mark(rewritten, changes, dirty=False)  # step 5
        step("after_unmark")

    def _mark(self, located: list, changes: dict[str, Any], dirty: bool) -> None:
        """Set or clear the dirty mark on each view's rows, and on the
        rows of its indexes over a changed attribute."""
        for view, rows in located:
            self.maintainer.mark_rows(self.maintainer.view_entry(view), rows, dirty)
            for index in self.maintainer.view_index_entries(view):
                if any(a in index.attrs for a in changes):
                    self.maintainer.mark_rows(index, rows, dirty)
