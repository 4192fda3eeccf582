"""Decompose: an analysed SELECT plus its bound parameters become one
single-table fragment per FROM binding. Pure — no backend, no clock."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sql.analyzer import AnalyzedSelect
from repro.sql.ast import DerivedTable, Literal, Param, Select, TableRef


@dataclass
class Fragment:
    """The sub-plan for one FROM binding: the statement a backend runs
    for it and the attributes its rows carry."""

    binding: str
    sql: str
    params: tuple[Any, ...]
    attrs: tuple[str, ...]


def split_eligible(analyzed: AnalyzedSelect) -> bool:
    """A SELECT splits when it has >= 2 FROM bindings and every
    derived table is parameter-free (a reparsed derived fragment
    would renumber ``?`` placeholders)."""
    from_items = analyzed.select.from_items
    if len(from_items) < 2:
        return False
    return not any(
        isinstance(item, DerivedTable) and _contains_param(item.select)
        for item in from_items
    )


def decompose(analyzed: AnalyzedSelect, params: tuple[Any, ...]) -> list[Fragment]:
    """One fragment per FROM binding, carrying the attributes the
    analysis bound it to. A base table becomes ``SELECT * FROM R as b``
    plus every constant/parameter filter on ``b``, with the value bound
    into the fragment's own params (so no placeholder is ever
    renumbered); a derived table becomes its own SELECT."""
    fragments: list[Fragment] = []
    for item in analyzed.select.from_items:
        attrs = analyzed.attrs[item.binding] or ()
        if isinstance(item, DerivedTable):
            fragments.append(
                Fragment(item.binding, str(item.select), (), attrs)
            )
            continue
        assert isinstance(item, TableRef)
        binding = item.binding
        conds: list[str] = []
        values: list[Any] = []
        for f in analyzed.filters_on(binding):
            if not isinstance(f.value, (Literal, Param)):
                continue  # degenerate column-column filter: merge-side
            conds.append(f"{binding}.{f.attr} {f.op} ?")
            values.append(
                f.value.value
                if isinstance(f.value, Literal)
                else params[f.value.index]
            )
        sql = f"SELECT * FROM {item.name} as {binding}"
        if conds:
            sql += " WHERE " + " and ".join(conds)
        fragments.append(Fragment(binding, sql, tuple(values), attrs))
    return fragments


def _contains_param(select: Select) -> bool:
    return any(isinstance(cond.right, Param) for cond in select.where) or any(
        isinstance(item, DerivedTable) and _contains_param(item.select)
        for item in select.from_items
    )
