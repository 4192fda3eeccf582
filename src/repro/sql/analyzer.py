"""Semantic analysis of SELECT statements: the one column resolver.

:func:`analyze_select` binds every FROM item to the attribute names it
has. A base relation (or a view, through a
:class:`~repro.phoenix.catalog.CatalogNamespace`) has the names the
namespace gives it. A derived table has its own output names, from its
own analysis, which runs once and is kept on the parent
(:attr:`AnalyzedSelect.derived`).

Every column the statement names — in the projection, WHERE, GROUP BY,
ORDER BY or an aggregate's argument — then resolves to a
``(binding, attr)`` that the binding has:

* ``b.x`` needs a FROM binding ``b`` (else "unknown table alias") that
  has a column ``x`` (else "has no column");
* a bare ``x`` belongs to the one binding, base or derived, that has a
  column ``x`` (none: "not found in any FROM relation"; several:
  "ambiguous").

Each of these is a :class:`SqlError`. A FROM name the namespace lacks
(a view named against the base schema) binds no attribute list: its
qualified columns are taken as written, it owns no bare name and its
``*`` names nothing; the system that runs the statement resolves that
name against its own catalog or refuses it.

Output naming happens here too, because a derived table's columns are
its output names: ``*`` expands in FROM order, an aggregate is named by
its call text, and a repeated name is qualified by its binding (or, for
an aggregate, numbered). WHERE conjuncts are classified into **join
conditions** (column = column across two bindings) and **filters**
(column vs literal/parameter);
:func:`repro.synergy.heuristics.joins_match_edge` tells which join
conditions are key/foreign-key joins — the only kind the Synergy system
materializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from repro.errors import SqlError
from repro.relational.schema import Schema
from repro.sql.ast import (
    ColumnRef,
    DerivedTable,
    FuncCall,
    Select,
    Star,
    TableRef,
)

Source = tuple[str, str]
"""Where a value sits in a row: ``(binding, attr)``. An aggregate's
result sits at ``("", call text)``, the key ``HashGroupBy`` writes."""

Aggregate = tuple[str, str, Source | None]
"""(output name = call text, function, argument; ``None`` for ``COUNT(*)``)."""


@dataclass(frozen=True)
class JoinCondition:
    """An equi (or theta) column-column conjunct across two FROM bindings."""

    op: str
    left_binding: str
    left_relation: str | None  # None when the binding is a derived table
    left_attr: str
    right_binding: str
    right_relation: str | None
    right_attr: str

    @property
    def is_equi(self) -> bool:
        return self.op == "="

    def attr_pair_for(
        self, relation_a: str, relation_b: str
    ) -> tuple[str, str] | None:
        """Return (attr of a, attr of b) if this condition joins a with b."""
        if self.left_relation == relation_a and self.right_relation == relation_b:
            return (self.left_attr, self.right_attr)
        if self.left_relation == relation_b and self.right_relation == relation_a:
            return (self.right_attr, self.left_attr)
        return None


@dataclass(frozen=True)
class FilterCondition:
    """A single-binding conjunct: ``binding.attr op (literal | ?)``."""

    op: str
    binding: str
    relation: str | None
    attr: str
    value: object  # the Literal, Param or same-binding ColumnRef node


@dataclass
class AnalyzedSelect:
    """Result of :func:`analyze_select`."""

    select: Select
    bindings: dict[str, str | None] = field(default_factory=dict)
    """binding name -> relation name (None for derived tables)."""

    attrs: dict[str, tuple[str, ...] | None] = field(default_factory=dict)
    """binding name -> its attribute names (None: the namespace lacks it)."""

    derived: dict[str, "AnalyzedSelect"] = field(default_factory=dict)
    """derived-table binding -> the analysis of its SELECT."""

    joins: list[JoinCondition] = field(default_factory=list)
    filters: list[FilterCondition] = field(default_factory=list)

    output: tuple[tuple[str, Source], ...] = ()
    """(output column name, row source), in projection order."""

    group_keys: tuple[Source, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()
    """The projected aggregates in order, then ORDER BY's others."""

    order_keys: tuple[tuple[Source, bool], ...] = ()
    """((source, descending), ...)."""

    @property
    def grouped(self) -> bool:
        """Whether the SELECT aggregates: a GROUP BY, or an aggregate
        in its projection."""
        return bool(self.select.group_by) or any(
            isinstance(p, FuncCall) for p in self.select.projections
        )

    def equi_joins(self) -> list[JoinCondition]:
        return [j for j in self.joins if j.is_equi]

    def filters_on(self, binding: str) -> list[FilterCondition]:
        return [f for f in self.filters if f.binding == binding]


def _resolve(col: ColumnRef, attrs: dict[str, tuple[str, ...] | None]) -> Source:
    """``col`` as the ``(binding, attr)`` of the FROM binding that has it."""
    qualifier, name = col.qualifier, col.name
    if qualifier is not None:
        if qualifier not in attrs:
            raise SqlError(f"unknown table alias {qualifier!r} in {col}")
        names = attrs[qualifier]
        if names is not None and name not in names:
            raise SqlError(f"{qualifier!r} has no column {name!r}")
        return (qualifier, name)
    owners = [b for b, names in attrs.items() if names is not None and name in names]
    if len(owners) == 1:
        return (owners[0], name)
    if not owners:
        raise SqlError(f"column {name!r} not found in any FROM relation")
    raise SqlError(f"ambiguous column {name!r}: {owners}")


def _aggregate(call: FuncCall, attrs: dict[str, tuple[str, ...] | None]) -> Aggregate:
    arg = None if call.arg is None else _resolve(call.arg, attrs)
    return (str(call), call.name, arg)


def _output(
    select: Select, attrs: dict[str, tuple[str, ...] | None]
) -> tuple[tuple[str, Source], ...]:
    """The projection's (name, source) pairs, a repeated name qualified
    by its binding (a self-join projects one attribute twice) or, for
    an aggregate, numbered."""
    out: list[tuple[str, Source]] = []
    for p in select.projections:
        if isinstance(p, Star):
            if p.qualifier is not None and p.qualifier not in attrs:
                raise SqlError(f"unknown table alias {p.qualifier!r} in {p}")
            for b in [p.qualifier] if p.qualifier is not None else list(attrs):
                names = attrs[b] or ()
                out += zip(names, zip(repeat(b), names))
        elif isinstance(p, ColumnRef):
            out.append((p.name, _resolve(p, attrs)))
        else:
            out.append((str(p), ("", str(p))))
    if len({name for name, _ in out}) == len(out):
        return tuple(out)
    seen: dict[str, int] = {}
    final: list[tuple[str, Source]] = []
    for name, src in out:
        if name in seen:
            seen[name] += 1
            final.append((f"{src[0]}.{name}" if src[0] else f"{name}_{seen[name]}", src))
        else:
            seen[name] = 0
            final.append((name, src))
    return tuple(final)


def analyze_select(select: Select, schema: Schema) -> AnalyzedSelect:
    """Bind, resolve and classify a SELECT against ``schema``: a
    :class:`Schema`, or anything with its ``has_relation`` /
    ``relation(name).attribute_names`` (a ``CatalogNamespace``)."""
    result = AnalyzedSelect(select=select)
    bindings, attrs = result.bindings, result.attrs
    for item in select.from_items:
        if item.binding in bindings:
            raise SqlError(f"duplicate FROM binding {item.binding!r}")
        if isinstance(item, TableRef):
            bindings[item.binding] = item.name
            attrs[item.binding] = (
                schema.relation(item.name).attribute_names
                if schema.has_relation(item.name)
                else None
            )
        elif isinstance(item, DerivedTable):
            sub = result.derived[item.binding] = analyze_select(item.select, schema)
            bindings[item.binding] = None
            attrs[item.binding] = tuple(name for name, _ in sub.output)

    for cond in select.where:
        lb, la = _resolve(cond.left, attrs)
        if isinstance(cond.right, ColumnRef):
            rb, ra = _resolve(cond.right, attrs)
            if rb != lb:
                result.joins.append(
                    JoinCondition(cond.op, lb, bindings[lb], la, rb, bindings[rb], ra)
                )
                continue
        # a literal or ?, or a column of the same binding (a degenerate
        # filter, the raw column attached)
        result.filters.append(
            FilterCondition(cond.op, lb, bindings[lb], la, cond.right)
        )

    result.output = _output(select, attrs)
    result.group_keys = tuple(_resolve(g, attrs) for g in select.group_by)
    aggregates = [
        _aggregate(p, attrs) for p in select.projections if isinstance(p, FuncCall)
    ]
    order_keys: list[tuple[Source, bool]] = []
    for o in select.order_by:
        if isinstance(o.expr, ColumnRef):
            order_keys.append((_resolve(o.expr, attrs), o.descending))
        else:
            agg = _aggregate(o.expr, attrs)
            if not any(a[0] == agg[0] for a in aggregates):
                aggregates.append(agg)
            order_keys.append((("", agg[0]), o.descending))
    result.aggregates = tuple(aggregates)
    result.order_keys = tuple(order_keys)
    return result
