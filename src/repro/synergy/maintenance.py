"""View maintenance (paper Sec. VII).

Applicability tests and tuple construction per write type:

* **Insert** applies to a view iff the inserted relation is the *last*
  relation of the view's path; building the view tuple reads the k-1
  ancestor rows by following the (PK, FK) chain upward.
* **Delete** applies iff the relation is last (no cascading deletes);
  the view row is addressed directly by the base key, while view-index
  rows require reading the view row first to build the index key.
* **Update** applies iff the relation appears anywhere in the view; rows
  are located by the view key (relation last) or through a maintenance
  view-index on the relation's PK (relation mid-path).

Maintenance works on *stored rows* (``CatalogEntry.stored_row``:
``attr -> encoded bytes``) and never decodes one. An insert takes the
base row as ``WriteExecutor.insert_row`` stored it: each child's FK
bytes are the key of its parent's Get (``Schema`` refuses an FK whose
encoder is not its target PK's), and the view row is its ancestors'
stored cells plus the inserted ones. Update and delete maintenance is
read-modify-write: the statement's SET values are encoded once per
view, and each rewritten view or view-index row that keeps its key is
put with only the cells the statement sets (``writes.rewrite_row``);
every other column keeps its stored version. Keys compare and re-form
as bytes, so the Gets, Scans, Deletes and per-row Puts are the ones a
decode/re-encode round trip would issue.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.hbase.bytes_util import join_key, prefix_stop
from repro.hbase.client import HBaseClient
from repro.hbase.filters import AndFilter, ColumnValueFilter
from repro.hbase.ops import Delete as HDelete, Get, Put, Scan
from repro.phoenix.catalog import CF, Catalog, CatalogEntry, StoredRow
from repro.phoenix.plans import DIRTY_MARK, DIRTY_QUALIFIER
from repro.phoenix.writes import rewrite_row
from repro.relational.schema import Schema
from repro.synergy.views import ViewDef


class ViewMaintainer:
    """Applies base-table writes to materialized views and view-indexes."""

    def __init__(
        self,
        client: HBaseClient,
        catalog: Catalog,
        views: list[ViewDef],
    ) -> None:
        self.client = client
        self.catalog = catalog
        self.schema = catalog.schema
        self.views = list(views)

    # -- applicability tests ---------------------------------------------------------
    def views_for_insert(self, relation: str) -> list[ViewDef]:
        return [v for v in self.views if v.last == relation]

    def views_for_delete(self, relation: str) -> list[ViewDef]:
        return [v for v in self.views if v.last == relation]

    def views_for_update(self, relation: str) -> list[ViewDef]:
        return [v for v in self.views if v.contains(relation)]

    # -- ancestor reads ---------------------------------------------------------------
    def read_ancestor_chain(
        self, view: ViewDef, row: StoredRow
    ) -> dict[str, StoredRow] | None:
        """Read the k-1 base rows above ``view.last`` along the path, as
        stored.

        Returns {relation: row}, or None if any ancestor is missing
        (an FK component is NULL, ``b""``, or dangles — no view tuple
        can be constructed)."""
        out: dict[str, StoredRow] = {}
        current = row
        # walk edges last-to-first: each child's FK bytes are the parent key
        for edge in reversed(view.edges):
            parent_entry = self.catalog.table_for_relation(edge.parent)
            parts = [current.get(a, b"") for a in edge.fk_attrs]
            if not all(parts):
                return None
            result = self.client.table(parent_entry.name).get(
                Get(join_key(parts), columns=parent_entry.projection())
            )
            if result is None:
                return None
            current = out[edge.parent] = parent_entry.stored_row(result)
        return out

    def build_view_row(
        self,
        view: ViewDef,
        row: StoredRow,
        ancestors: dict[str, StoredRow],
    ) -> StoredRow:
        """The view row: every ancestor's stored cells, then the
        inserted row's (an attribute it leaves out is absent, which
        ``stored_put`` writes as ``b""``). View attribute names are
        unique across the path, so no source overwrites another."""
        merged: StoredRow = {}
        for rel_name in view.relations[:-1]:
            ancestor = ancestors.get(rel_name)
            if ancestor is None:
                raise ReproError(
                    f"missing ancestor row for {rel_name} in view "
                    f"{view.display_name}"
                )
            merged.update(ancestor)
        merged.update(row)
        return merged

    # -- entry lookup ------------------------------------------------------------------
    def view_entry(self, view: ViewDef) -> CatalogEntry:
        return self.catalog.view(view.name)

    def view_index_entries(self, view: ViewDef) -> list[CatalogEntry]:
        return self.catalog.indexes_for_view(view.name)

    def maintenance_index_for(
        self, view: ViewDef, relation: str
    ) -> CatalogEntry | None:
        """A view-index whose key starts with PK(relation), if present."""
        pk = tuple(self.schema.relation(relation).primary_key)
        entry = self.view_entry(view)
        if entry.key_attrs[: len(pk)] == pk:
            return entry  # the view itself is keyed by this PK
        for index in self.view_index_entries(view):
            if index.key_attrs[: len(pk)] == pk:
                return index
        return None

    # -- insert -------------------------------------------------------------------------
    def apply_insert(self, relation: str, row: StoredRow) -> int:
        """Insert the corresponding tuple into every applicable view
        (and its view-indexes) for the base row ``row`` as stored;
        returns number of physical rows written."""
        written = 0
        for view in self.views_for_insert(relation):
            ancestors = self.read_ancestor_chain(view, row)
            if ancestors is None:
                continue  # dangling FK: no join result to materialize
            view_row = self.build_view_row(view, row, ancestors)
            entry = self.view_entry(view)
            self.client.table(entry.name).put(entry.stored_put(view_row))
            written += 1
            for index in self.view_index_entries(view):
                self.client.table(index.name).put(index.stored_put(view_row))
                written += 1
        return written

    # -- delete -------------------------------------------------------------------------
    def apply_delete(self, relation: str, key: dict[str, Any]) -> int:
        """Delete the view tuple for a base delete; view-index keys are
        constructed by reading the view row first (Sec. VII-B)."""
        removed = 0
        for view in self.views_for_delete(relation):
            entry = self.view_entry(view)
            view_key = entry.encode_key(key)
            indexes = self.view_index_entries(view)
            old_row: StoredRow | None = None
            if indexes:
                result = self.client.table(entry.name).get(
                    Get(view_key, columns=entry.projection())
                )
                if result is not None:
                    old_row = entry.stored_row(result)
            self.client.table(entry.name).delete(HDelete(view_key))
            removed += 1
            if old_row is not None:
                for index in indexes:
                    self.client.table(index.name).delete(
                        HDelete(index.stored_key(old_row))
                    )
                    removed += 1
        return removed

    # -- update -------------------------------------------------------------------------
    def locate_view_rows(
        self, view: ViewDef, relation: str, key: dict[str, Any]
    ) -> list[StoredRow]:
        """All view rows whose ``relation`` component has the given key,
        as stored rows of the view."""
        entry = self.view_entry(view)
        access = self.maintenance_index_for(view, relation)
        pk = tuple(self.schema.relation(relation).primary_key)
        if access is None:
            # No maintenance index: scan the entire view (the expensive
            # fallback the paper's Sec. VII-C indexes exist to avoid).
            self.client.cluster.sim.metrics.counter(
                "view.maintenance_full_scans"
            ).inc()
            # compared as encodings, like the Get and prefix paths below,
            # so a parameter of another python type finds the same rows
            wanted = entry.encode_values({a: key[a] for a in pk})
            filters = [
                ColumnValueFilter(CF, a.encode(), "=", wanted[a])
                for a in pk
                if a not in entry.key_attrs
            ]
            scan = Scan(columns=entry.projection())
            if len(filters) == 1:
                scan.filter = filters[0]
            elif filters:
                scan.filter = AndFilter(tuple(filters))
            rows = map(entry.stored_row, self.client.table(entry.name).scan(scan))
            return [r for r in rows if all(r[a] == wanted[a] for a in pk)]
        prefix_values = [key[a] for a in pk]
        if access.key_attrs == tuple(pk) or (
            access is entry and len(access.key_attrs) == len(pk)
        ):
            result = self.client.table(access.name).get(
                Get(
                    access.encode_key_values(prefix_values),
                    columns=access.projection(),
                )
            )
            rows = [] if result is None else [access.stored_row(result)]
        else:
            prefix = access.encode_key_prefix(prefix_values)
            rows = [
                access.stored_row(r)
                for r in self.client.table(access.name).scan(
                    Scan(
                        start_row=prefix,
                        stop_row=prefix_stop(prefix),
                        columns=access.projection(),
                    )
                )
            ]
        if access is not entry and set(access.attrs) != set(entry.attrs):
            # key-only maintenance index: fetch the full rows from the view
            full_rows = []
            projection = entry.projection()
            for row in rows:
                result = self.client.table(entry.name).get(
                    Get(entry.stored_key(row), columns=projection)
                )
                if result is not None:
                    full_rows.append(entry.stored_row(result))
            return full_rows
        return rows

    def mark_rows(
        self, entry: CatalogEntry, rows: list[StoredRow], dirty: bool
    ) -> None:
        """Set/clear the dirty marker on view rows (update steps 3 and 5)."""
        puts = []
        for row in rows:
            put = Put(entry.stored_key(row))
            put.add(CF, DIRTY_QUALIFIER, DIRTY_MARK if dirty else b"\x00")
            puts.append(put)
        if puts:
            self.client.table(entry.name).put_batch(puts)
            self.client.cluster.sim.charge("view.mark", "mark_row_ms", len(puts))

    def write_view_rows(
        self,
        view: ViewDef,
        old_rows: list[StoredRow],
        changes: dict[str, Any],
    ) -> list[StoredRow]:
        """Apply attribute changes to located view rows + fix indexes:
        ``changes`` is encoded once per view, and each view row and each
        view-index row over a changed attribute is rewritten by
        :func:`rewrite_row` -- one Put of only the SET cells while the
        row keeps its key, a Delete and a whole-row Put when a view
        index's key moves. Returns the new rows as stored."""
        entry = self.view_entry(view)
        encoded = entry.encode_values(changes)
        entries = [entry] + [
            index for index in self.view_index_entries(view)
            if any(a in index.attrs for a in changes)
        ]
        new_rows = []
        for old in old_rows:
            new = {**old, **encoded}
            for target in entries:
                rewrite_row(self.client, target, old, new, changes)
            new_rows.append(new)
        return new_rows
