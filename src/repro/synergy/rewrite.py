"""Query re-writing over selected views (paper Sec. VI-B, Fig. 6(d)).

To re-write a query we replace the constituent relations of each
selected view with the view, and drop join conditions whose two
relations both fall inside a single view. Column references move to the
view's binding (view attributes keep their original names, which are
globally unique across a path).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ViewSelectionError
from repro.relational.schema import Schema
from repro.sql.analyzer import analyze_select
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    Expr,
    FromItem,
    FuncCall,
    OrderItem,
    Select,
    Star,
    TableRef,
)
from repro.synergy.views import ViewDef


@dataclass
class RewriteResult:
    select: Select
    views_used: tuple[ViewDef, ...]
    binding_map: dict[str, str]
    """old FROM binding -> new binding (view alias or unchanged)."""


def rewrite_query(
    select: Select,
    schema: Schema,
    views: list[ViewDef],
) -> RewriteResult:
    """Rewrite ``select`` using ``views`` (the per-query selection)."""
    if not views:
        return RewriteResult(select, (), {})
    if select.uses_relation_twice():
        raise ViewSelectionError(
            "self-join queries are answered from base tables in Synergy"
        )
    analyzed = analyze_select(select, schema)

    # relation name -> its (unique) binding in this query
    rel_binding: dict[str, str] = {}
    for binding, rel in analyzed.bindings.items():
        if rel is not None:
            rel_binding[rel] = binding

    # old binding -> (view, view alias)
    binding_to_view: dict[str, tuple[ViewDef, str]] = {}
    view_aliases: dict[str, str] = {}
    for i, view in enumerate(views):
        alias = f"v{i}"
        view_aliases[view.name] = alias
        for rel in view.relations:
            b = rel_binding.get(rel)
            if b is None:
                raise ViewSelectionError(
                    f"view {view.display_name} covers relation {rel} "
                    "that the query does not reference"
                )
            if b in binding_to_view:
                raise ViewSelectionError(
                    f"relation {rel} covered by two selected views"
                )
            binding_to_view[b] = (view, alias)

    def new_binding(old: str) -> str:
        hit = binding_to_view.get(old)
        return hit[1] if hit is not None else old

    def rewrite_expr(e: Expr) -> Expr:
        if isinstance(e, ColumnRef) and e.qualifier is not None:
            return ColumnRef(e.name, new_binding(e.qualifier))
        if isinstance(e, FuncCall) and e.arg is not None:
            return FuncCall(e.name, rewrite_expr(e.arg))
        return e

    # FROM: one TableRef per view (in first-coverage order) + untouched items
    new_from: list[FromItem] = []
    seen_views: set[str] = set()
    for item in select.from_items:
        if isinstance(item, TableRef) and item.binding in binding_to_view:
            view, alias = binding_to_view[item.binding]
            if view.name not in seen_views:
                seen_views.add(view.name)
                new_from.append(TableRef(view.name, alias))
        else:
            new_from.append(item)

    # WHERE: drop conjuncts internal to one view; re-qualify the rest
    new_where: list[BinOp] = []
    for cond in select.where:
        pair = cond.column_pair()
        if pair is not None and cond.op == "=":
            lq, rq = pair[0].qualifier, pair[1].qualifier
            if (
                lq is not None
                and rq is not None
                and lq in binding_to_view
                and rq in binding_to_view
                and binding_to_view[lq][1] == binding_to_view[rq][1]
            ):
                continue  # both sides inside the same view
        new_where.append(
            BinOp(cond.op, rewrite_expr(cond.left), rewrite_expr(cond.right))
        )

    # projections: SELECT * stays; alias.* expands only if the alias moved
    new_proj: list[Expr] = []
    for p in select.projections:
        if isinstance(p, Star):
            if p.qualifier is None or p.qualifier not in binding_to_view:
                new_proj.append(p)
            else:
                # expand to the original relation's columns on the view
                rel = analyzed.bindings[p.qualifier]
                assert rel is not None
                alias = binding_to_view[p.qualifier][1]
                for attr in schema.relation(rel).attribute_names:
                    new_proj.append(ColumnRef(attr, alias))
        else:
            new_proj.append(rewrite_expr(p))

    new_select = Select(
        projections=tuple(new_proj),
        from_items=tuple(new_from),
        where=tuple(new_where),
        group_by=tuple(
            rewrite_expr(g) for g in select.group_by  # type: ignore[misc]
        ),
        order_by=tuple(
            OrderItem(rewrite_expr(o.expr), o.descending) for o in select.order_by
        ),
        limit=select.limit,
        distinct=select.distinct,
    )
    binding_map = {b: new_binding(b) for b in analyzed.bindings}
    return RewriteResult(new_select, tuple(views), binding_map)
