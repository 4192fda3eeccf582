"""View-index recommendation (paper Sec. VI-C and VII-C).

Two sources of view-indexes:

* **Read indexes** (Sec. VI-C): for each conjunctive query that uses a
  view, if the query only filters on view attributes that neither the
  view key nor an existing view-index key prefix covers, add a
  view-index indexed upon one of the filter attributes.
* **Maintenance indexes** (Sec. VII-C): an UPDATE against a relation
  ``R`` that is *not* the last relation of a view ``V`` must find V's
  rows by ``PK(R)``; we index ``V`` on ``PK(R)`` so the 6-step update
  procedure can locate them without scanning the view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sql.ast import Update
from repro.synergy.rewrite import RewriteResult
from repro.synergy.views import ViewDef


@dataclass(frozen=True)
class ViewIndexSpec:
    view: ViewDef
    indexed_on: tuple[str, ...]
    reason: str  # "read" | "maintenance"

    @property
    def name(self) -> str:
        return f"{self.view.name}.ix_{'_'.join(self.indexed_on)}"


@dataclass
class ViewIndexPlan:
    specs: list[ViewIndexSpec] = field(default_factory=list)

    def add(self, spec: ViewIndexSpec) -> bool:
        if any(
            s.view.relations == spec.view.relations
            and s.indexed_on == spec.indexed_on
            for s in self.specs
        ):
            return False
        self.specs.append(spec)
        return True

    def for_view(self, view: ViewDef) -> list[ViewIndexSpec]:
        return [s for s in self.specs if s.view.relations == view.relations]


def _prefix_covered(filter_attrs: set[str], key_attrs: tuple[str, ...]) -> bool:
    """True when the access key's *leading* attribute is a filter attr,
    i.e. the existing key already serves these filters."""
    return bool(key_attrs) and key_attrs[0] in filter_attrs


def recommend_read_indexes(
    schema: Schema,
    rewritten: dict[str, RewriteResult],
    plan: ViewIndexPlan,
) -> None:
    """Sec. VI-C: one view-index per (view, uncovered filter set)."""
    for result in rewritten.values():
        if not result.views_used:
            continue
        select = result.select
        alias_to_view = {
            f"v{i}": view for i, view in enumerate(result.views_used)
        }
        # gather constant filters per view alias
        filters: dict[str, set[str]] = {}
        for cond in select.where:
            col = cond.left
            if cond.column_pair() is None and col.qualifier in alias_to_view:
                filters.setdefault(col.qualifier, set()).add(col.name)
        for alias, attrs in filters.items():
            view = alias_to_view[alias]
            key = view.key_attrs(schema)
            if _prefix_covered(attrs, key):
                continue
            existing = [
                s.indexed_on
                for s in plan.for_view(view)
            ]
            if any(_prefix_covered(attrs, k) for k in existing):
                continue
            # index upon one filter attribute (deterministic choice)
            attr = sorted(attrs)[0]
            plan.add(ViewIndexSpec(view=view, indexed_on=(attr,), reason="read"))


def recommend_maintenance_indexes(
    schema: Schema,
    views: list[ViewDef],
    write_workload: Workload,
    plan: ViewIndexPlan,
) -> None:
    """Sec. VII-C: support multi-row view updates by PK of the updated
    relation when it sits mid-path in a view."""
    updated_relations: set[str] = set()
    for stmt in write_workload:
        parsed = stmt.parsed
        if isinstance(parsed, Update):
            updated_relations.add(parsed.table)
    for view in views:
        for rel_name in view.relations[:-1]:
            if rel_name not in updated_relations:
                continue
            pk = tuple(schema.relation(rel_name).primary_key)
            key = view.key_attrs(schema)
            if key[: len(pk)] == pk:
                continue  # view key already starts with this PK
            plan.add(
                ViewIndexSpec(view=view, indexed_on=pk, reason="maintenance")
            )
