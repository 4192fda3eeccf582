"""Server-side scan filters (a small subset of HBase's filter zoo)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hbase.cell import Result

_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class FilterBase:
    """Decides row by row whether a scan emits the row."""

    def accept(self, result: Result) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class ColumnValueFilter(FilterBase):
    """Keep rows whose newest ``family:qualifier`` value compares true;
    a row lacking the column is rejected."""

    family: bytes
    qualifier: bytes
    op: str
    value: bytes

    def accept(self, result: Result) -> bool:
        cur = result.value(self.family, self.qualifier)
        return cur is not None and _OPS[self.op](cur, self.value)


@dataclass
class AndFilter(FilterBase):
    """Conjunction of sub-filters."""

    filters: tuple[FilterBase, ...]

    def accept(self, result: Result) -> bool:
        return all(f.accept(result) for f in self.filters)
