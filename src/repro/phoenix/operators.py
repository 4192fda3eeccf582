"""Physical operators: the one way a SELECT runs.

Every :class:`~repro.phoenix.plans.PlanNode` lowers, one to one
(:func:`compile_plan`), to a :class:`PhysicalOperator` with explicit
``open``/``next_batch``/``close`` semantics; rows move up the tree a
batch at a time, and the planner (rule-based or cost-based) stays the
single source of truth for plan *shape*.

**Demand.** ``next_batch(demand)`` takes how many rows its consumer can
still use. :class:`Limit` asks for ``limit - emitted``; the one-to-one
operators (scan, source, filter, distinct, derived-table remap, the
emitting side of sort and group-by) hand the number down and never
return more; :class:`BroadcastHashJoin` and :class:`IndexNestedLoopJoin`
take one probe/outer row at a time while demand is bounded, and keep
the unfinished match list across calls. A ``LIMIT n`` with no blocking
operator below it therefore reads exactly the rows up to the one that
yields its n-th output row, and ``LIMIT 0`` reads none. With no demand
given (the root, and the input of every blocking operator) operators
move :data:`BATCH_ROWS` rows per call.

**Host.** Operators above the leaves know no prices: they report what
they did to ``ctx.conn`` through :meth:`OperatorHost.operator_work`
and the host charges for it (a Phoenix connection and the federation
merge by :func:`repro.phoenix.stats.charge_operator_work`, a VoltDB
procedure by counting rows).

**Close.** ``close()`` propagates to every in-flight scan generator,
which triggers the region-scanner ``finally`` (batch-charge settlement
and the region-server queue release) deterministically instead of
waiting for garbage collection — for a satisfied ``LIMIT``, a
dirty-read restart and an abandoned cursor alike.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Any, Callable, Iterator

from repro.errors import PlanError
from repro.phoenix.plans import (
    BROADCAST,
    GROUP_BY,
    JOIN_OUTPUT,
    SHUFFLE,
    SORT,
    AccessSpec,
    DistinctNode,
    ExecutionContext,
    FilterNode,
    GroupByNode,
    HashJoinNode,
    LimitNode,
    NestedLoopJoinNode,
    PlanNode,
    Predicate,
    Row,
    RowTest,
    ScanNode,
    SortNode,
    Source,
    SourceNode,
    SubqueryNode,
    SymmetricJoinNode,
    accessor,
    conjunction,
    key_getter,
)
from repro.sql.ast import Expr, Literal, Param

BATCH_ROWS = 256
"""Rows per hop between operators when the consumer states no demand:
large enough to amortize the per-batch Python overhead."""


def _want(demand: int | None) -> int:
    return BATCH_ROWS if demand is None else demand


class PhysicalOperator:
    """Pull-based operator: ``open(ctx)`` once, then ``next_batch()``
    until it returns ``None``, then ``close()``.

    ``next_batch(demand)`` returns a non-empty list of at most
    ``demand`` rows (any number when ``demand`` is ``None``), or
    ``None`` when exhausted — operators loop internally instead of
    surfacing empty batches, and keep answering ``None`` once
    exhausted. ``close`` is idempotent, safe mid-stream, and always
    propagates to children so abandoned subtrees release their scanner
    windows immediately.
    """

    child: "PhysicalOperator | None" = None
    """The input of a one-input operator."""

    def open(self, ctx: ExecutionContext) -> None:
        self._ctx = ctx
        for child in self.children():
            child.open(ctx)

    def next_batch(
        self, demand: int | None = None
    ) -> list[Row] | None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        for child in self.children():
            child.close()

    def children(self) -> tuple["PhysicalOperator", ...]:
        return () if self.child is None else (self.child,)


def _drain(child: PhysicalOperator) -> Iterator[list[Row]]:
    """Every batch of ``child``, pulled without a demand."""
    while (batch := child.next_batch()) is not None:
        yield batch


class StreamingScan(PhysicalOperator):
    """Leaf access over :meth:`AccessSpec.fetch`. Holds the fetch
    generator so ``close()`` can shut the underlying region scan."""

    def __init__(
        self,
        access: AccessSpec,
        prefix_exprs: tuple[Expr, ...] = (),
        check_dirty: bool = False,
    ) -> None:
        self.access = access
        self.prefix_exprs = prefix_exprs
        self.check_dirty = check_dirty
        self._gen: Iterator[Row] | None = None

    def open(self, ctx: ExecutionContext) -> None:
        self._ctx = ctx
        values = [ctx.eval(e) for e in self.prefix_exprs]
        self._gen = self.access.fetch(ctx, values, self.check_dirty)

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        if self._gen is None:
            return None
        want = _want(demand)
        batch = list(islice(self._gen, want))
        if len(batch) < want:
            self._gen = None
        return batch or None

    def close(self) -> None:
        if self._gen is not None:
            # GeneratorExit unwinds fetch -> HTable.scan's finally:
            # batch charges settle and the server queue slot is released
            self._gen.close()
            self._gen = None


class _Materialized(PhysicalOperator):
    """An operator that has all of its output before it emits any:
    ``_build`` runs at the first pull, the rows go out on demand."""

    _rows: list[Row] | None = None
    _pos = 0

    def _build(self) -> list[Row]:  # pragma: no cover
        raise NotImplementedError

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        if self._rows is None:
            self._rows = self._build()
        batch = self._rows[self._pos : self._pos + _want(demand)]
        self._pos += len(batch)
        return batch or None


class StreamingSource(_Materialized):
    """Leaf over :attr:`SourceNode.fetch`: runs it at the first pull
    (never, when nothing pulls)."""

    def __init__(self, fetch: Callable[[], list[Row]]) -> None:
        self._build = fetch


class StreamingFilter(PhysicalOperator):
    def __init__(
        self, child: PhysicalOperator, predicates: tuple[Predicate, ...]
    ) -> None:
        self.child = child
        self.predicates = predicates

    def open(self, ctx: ExecutionContext) -> None:
        super().open(ctx)
        self._keep: RowTest = conjunction(self.predicates, ctx)

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        while True:
            batch = self.child.next_batch(demand)
            if batch is None:
                return None
            kept = list(filter(self._keep, batch))
            if kept:
                return kept


class SubqueryOp(PhysicalOperator):
    """Streams a derived-table subplan, remapping each row to the
    derived alias — no materialization barrier."""

    def __init__(
        self,
        child: PhysicalOperator,
        alias: str,
        output_names: tuple[str, ...],
        source_keys: tuple[Source, ...],
    ) -> None:
        self.child = child
        self.alias = alias
        self.output_names = output_names
        self.source_keys = source_keys
        self._out_keys = tuple((alias, name) for name in output_names)
        self._values = key_getter(source_keys)

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        batch = self.child.next_batch(demand)
        if batch is None:
            return None
        out_keys, values = self._out_keys, self._values
        return [dict(zip(out_keys, values(row))) for row in batch]


class _LookupJoin(PhysicalOperator):
    """The pull loop of the two joins that look up, per outer row, an
    iterator of matching inner rows (:meth:`_matches_of`): a hash-table
    bucket or an index access.

    With no demand the outer side arrives in batches and every outer
    row's matches are drained. Under a bounded demand the join takes
    ONE outer row at a time and stops inside a match list the moment
    the demand is met, keeping the rest for the next call — so the
    outer side is never read past the row that yields the last row
    asked for."""

    child: PhysicalOperator  # the outer side

    def __init__(self, outer: PhysicalOperator) -> None:
        self.child = outer
        self._outer_rows: list[Row] = []
        self._pos = 0
        self._row: Row = {}
        self._matches: Iterator[Row] | None = None

    def _matches_of(self, outer_row: Row) -> Iterator[Row]:  # pragma: no cover
        raise NotImplementedError

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        want = _want(demand)
        out: list[Row] = []
        while len(out) < want:
            if self._matches is None:
                if self._pos >= len(self._outer_rows):
                    batch = self.child.next_batch(None if demand is None else 1)
                    if batch is None:
                        break
                    self._outer_rows, self._pos = batch, 0
                self._row = self._outer_rows[self._pos]
                self._pos += 1
                self._matches = self._matches_of(self._row)
            outer_row = self._row
            for match in self._matches:
                merged = dict(outer_row)
                merged.update(match)
                out.append(merged)
                if len(out) == demand:
                    break
            else:
                self._matches = None
        if out:
            self._ctx.conn.operator_work(JOIN_OUTPUT, len(out))
        return out or None


class BroadcastHashJoin(_LookupJoin):
    """Phoenix's hash join. The first pull reads the build side whole
    and hashes it — reported to the host as :data:`BROADCAST` work,
    which a Phoenix connection prices as shipping the table to every
    region server (what :meth:`AccessCoster.hash_join_ms` estimates);
    the probe side then streams against the table."""

    def __init__(
        self,
        probe: PhysicalOperator,
        build: PhysicalOperator,
        probe_keys: tuple[tuple[str, str], ...],
        build_keys: tuple[tuple[str, str], ...],
    ) -> None:
        super().__init__(probe)
        self.build = build
        self.probe_keys = probe_keys
        self.build_keys = build_keys
        self._probe_key = key_getter(probe_keys)
        self._table: dict[tuple, list[Row]] | None = None

    def _build_table(self) -> dict[tuple, list[Row]]:
        table: dict[tuple, list[Row]] = {}
        build_rows = 0
        key_of = key_getter(self.build_keys)
        for batch in _drain(self.build):
            for row in batch:
                key = key_of(row)
                if None in key:
                    continue  # NULL never equi-matches anything
                table.setdefault(key, []).append(row)
                build_rows += 1
        self._ctx.conn.operator_work(BROADCAST, build_rows)
        return table

    def _matches_of(self, outer_row: Row) -> Iterator[Row]:
        key = self._probe_key(outer_row)
        return iter(self._table.get(key, ()))  # type: ignore[union-attr]

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        if self._table is None:
            self._table = self._build_table()
        return super().next_batch(demand)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child, self.build)


class IndexNestedLoopJoin(_LookupJoin):
    """Index nested-loop join: one inner access per outer row — the
    RPC-per-probe join of the paper's Fig. 10. An inner fetch left
    unfinished by a bounded demand is closed by ``close()``."""

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: AccessSpec,
        outer_keys: tuple,
        check_dirty: bool = False,
    ) -> None:
        super().__init__(outer)
        self.inner = inner
        self.outer_keys = outer_keys
        self.check_dirty = check_dirty

    def open(self, ctx: ExecutionContext) -> None:
        super().open(ctx)
        # constants are evaluated once; outer-row keys are read per row
        getters = tuple(
            _constant(ctx.eval(k)) if isinstance(k, (Literal, Param)) else accessor(k)
            for k in self.outer_keys
        )
        self._prefix_of = lambda row: [get(row) for get in getters]

    def _matches_of(self, outer_row: Row) -> Iterator[Row]:
        return self.inner.fetch(
            self._ctx, self._prefix_of(outer_row), self.check_dirty
        )

    def close(self) -> None:
        if self._matches is not None:
            self._matches.close()  # type: ignore[attr-defined]
            self._matches = None
        super().close()


def _constant(value: Any) -> Callable[[Row], Any]:
    return lambda row: value


class _JoinSide:
    __slots__ = ("source", "key_of", "table", "done")

    def __init__(
        self, source: PhysicalOperator, keys: tuple[tuple[str, str], ...]
    ) -> None:
        self.source = source
        self.key_of = key_getter(keys)
        self.table: dict[tuple, list[Row]] = {}
        self.done = False


class SymmetricHashJoin(PhysicalOperator):
    """Non-blocking symmetric hash join (Xgjoin-style), the join of the
    federation merge.

    Pulls full batches from both inputs alternately, whatever the
    demand; every arriving row probes the opposite side's hash table
    (one merged row per match) and is then inserted into its own table.
    Each left/right row pair therefore matches exactly once, so the
    output is the inner-join multiset — but the first row comes out
    after one batch per side, and a downstream LIMIT stops *both*
    inputs early. Output beyond the demand waits in a buffer.

    Each batch's inserted rows are reported to the host as
    :data:`SHUFFLE` work: one partitioned shuffle hop per row.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: tuple[tuple[str, str], ...],
        right_keys: tuple[tuple[str, str], ...],
    ) -> None:
        self.left = _JoinSide(left, left_keys)
        self.right = _JoinSide(right, right_keys)
        self._turn = self.left
        self._out: list[Row] = []

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        out = self._out
        while not out:
            side = self._pick_side()
            if side is None:
                return None
            other = self.right if side is self.left else self.left
            batch = side.source.next_batch()
            if batch is None:
                side.done = True
                continue
            inserted = 0
            left_first = side is self.left
            key_of = side.key_of
            for row in batch:
                key = key_of(row)
                if None in key:
                    continue
                for match in other.table.get(key, ()):
                    merged = dict(row) if left_first else dict(match)
                    merged.update(match if left_first else row)
                    out.append(merged)
                side.table.setdefault(key, []).append(row)
                inserted += 1
            if inserted:
                self._ctx.conn.operator_work(SHUFFLE, inserted)
            if out:
                self._ctx.conn.operator_work(JOIN_OUTPUT, len(out))
        batch = out[:demand]
        del out[:demand]
        return batch

    def _pick_side(self) -> _JoinSide | None:
        if self.left.done and self.right.done:
            return None
        preferred = self._turn
        self._turn = self.right if preferred is self.left else self.left
        if preferred.done:
            return self._turn if not self._turn.done else None
        return preferred

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left.source, self.right.source)


class HashDistinct(PhysicalOperator):
    """Streaming dedupe on the projected sources; survivors leave
    batch by batch."""

    def __init__(self, child: PhysicalOperator, keys: tuple[Source, ...]) -> None:
        self.child = child
        self.keys = keys
        self._key_of = key_getter(keys)
        self._seen: set = set()

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        key_of, seen = self._key_of, self._seen
        while True:
            batch = self.child.next_batch(demand)
            if batch is None:
                return None
            out: list[Row] = []
            for row in batch:
                key = tuple(map(_hashable, key_of(row)))
                if key not in seen:
                    seen.add(key)
                    out.append(row)
            if out:
                return out


def _hashable(v: Any) -> Any:
    return tuple(v) if isinstance(v, list) else v


class HashGroupBy(_Materialized):
    """Hash aggregation with incremental accumulators: no per-group row
    lists, one flat slot list per group that each aggregate's compiled
    update folds a row into. Aggregate outputs appear under binding
    ``""`` keyed by the canonical call text (``SUM(ol_qty)``); groups
    leave in first-seen order."""

    def __init__(
        self,
        child: PhysicalOperator,
        group_keys: tuple[Source, ...],
        aggregates: tuple[tuple[str, str, Source | None], ...],
    ) -> None:
        self.child = child
        self.group_keys = group_keys
        self.aggregates = aggregates
        self._key_of = key_getter(group_keys)
        slots: list[Any] = []
        self._updates: list[_Update] = []
        self._finishes: list[tuple[tuple[str, str], _Finish]] = []
        for out_name, func, source in aggregates:
            start, update, finish = _aggregate(func, source, len(slots))
            slots.extend(start)
            self._updates.append(update)
            self._finishes.append((("", out_name), finish))
        self._start = tuple(slots)

    def _build(self) -> list[Row]:
        key_of, updates, start = self._key_of, self._updates, self._start
        # first-seen key -> the group's accumulator slots
        groups: dict[tuple, list[Any]] = {}
        total_rows = 0
        for batch in _drain(self.child):
            total_rows += len(batch)
            for row in batch:
                key = key_of(row)
                acc = groups.get(key)
                if acc is None:
                    acc = groups[key] = list(start)
                for update in updates:
                    update(acc, row)
        self._ctx.conn.operator_work(GROUP_BY, total_rows)
        results: list[Row] = []
        for key, acc in groups.items():
            out: Row = dict(zip(self.group_keys, key))
            for out_key, finish in self._finishes:
                out[out_key] = finish(acc)
            results.append(out)
        return results


_Update = Callable[[list[Any], Row], None]
_Finish = Callable[[list[Any]], Any]


def _aggregate(
    func: str, source: Source | None, at: int
) -> tuple[tuple[Any, ...], _Update, _Finish]:
    """``func`` over ``source`` compiled against the accumulator slots
    starting at ``at``: (initial slots, ``update(acc, row)``,
    ``finish(acc)``). SQL null semantics over the non-NULL inputs:
    COUNT of nothing is 0, everything else is NULL."""
    if func == "COUNT" and source is None:  # COUNT(*): no lookup

        def update(acc: list[Any], row: Row) -> None:
            acc[at] += 1

        return (0,), update, operator.itemgetter(at)
    # any other F(*) aggregates a 1 per row
    get = _constant(1) if source is None else accessor(source)
    if func == "COUNT":

        def update(acc: list[Any], row: Row) -> None:
            if get(row) is not None:
                acc[at] += 1

        return (0,), update, operator.itemgetter(at)
    if func in ("MIN", "MAX"):
        better = operator.lt if func == "MIN" else operator.gt

        def update(acc: list[Any], row: Row) -> None:
            v = get(row)
            if v is not None and (acc[at] is None or better(v, acc[at])):
                acc[at] = v

        return (None,), update, operator.itemgetter(at)
    if func in ("SUM", "AVG"):
        n, total = at, at + 1

        def update(acc: list[Any], row: Row) -> None:
            v = get(row)
            if v is not None:
                acc[n] += 1
                try:
                    acc[total] += v
                except TypeError:
                    raise PlanError(
                        f"{func} over a non-numeric value {v!r}"
                    ) from None

        def finish(acc: list[Any]) -> Any:
            if acc[n] == 0:
                return None
            return acc[total] if func == "SUM" else acc[total] / acc[n]

        return (0, 0), update, finish
    raise PlanError(f"unknown aggregate {func}")


class StreamingSort(_Materialized):
    """Blocking sort; its input is reported to the host as
    :data:`SORT` work (Phoenix sorts in the client/driver).

    One stable ``list.sort`` pass per key, least significant first, on
    ``(value is not None, value)``: NULLs first ascending and last
    descending, rows equal on every key keep their input order."""

    def __init__(
        self, child: PhysicalOperator, keys: tuple[tuple[Source, bool], ...]
    ) -> None:
        self.child = child
        self.keys = keys
        self._passes = tuple(
            (_sort_key(source), desc) for source, desc in reversed(keys)
        )

    def _build(self) -> list[Row]:
        rows = [row for batch in _drain(self.child) for row in batch]
        self._ctx.conn.operator_work(SORT, len(rows))
        for key, desc in self._passes:
            rows.sort(key=key, reverse=desc)
        return rows


def _sort_key(source: Source) -> Callable[[Row], tuple[bool, Any]]:
    get = accessor(source)

    def key(row: Row) -> tuple[bool, Any]:
        v = get(row)
        return (v is not None, v)

    return key


class Limit(PhysicalOperator):
    """LIMIT: asks its child for what is still missing, and closes it as
    soon as the limit is satisfied so abandoned subtree scans release
    their windows at the moment the last row is emitted, not at tree
    close."""

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        self.child = child
        self.limit = limit
        self._emitted = 0
        self._done = False

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        if self._done:
            return None
        remaining = self.limit - self._emitted
        if remaining <= 0:
            self._finish()
            return None
        batch = self.child.next_batch(
            remaining if demand is None else min(remaining, demand)
        )
        if batch is None:
            self._done = True
            return None
        self._emitted += len(batch)
        if self._emitted >= self.limit:
            self._finish()
        return batch

    def _finish(self) -> None:
        self._done = True
        self.child.close()


# ---------------------------------------------------------------- compilation
_LOWERING: dict[type[PlanNode], Callable[[Any], PhysicalOperator]] = {
    ScanNode: lambda n: StreamingScan(n.access, n.prefix_exprs, n.check_dirty),
    SourceNode: lambda n: StreamingSource(n.fetch),
    SubqueryNode: lambda n: SubqueryOp(
        compile_plan(n.subplan), n.alias, n.output_names, n.source_keys
    ),
    NestedLoopJoinNode: lambda n: IndexNestedLoopJoin(
        compile_plan(n.outer), n.inner, n.outer_keys, n.check_dirty
    ),
    HashJoinNode: lambda n: BroadcastHashJoin(
        compile_plan(n.probe), compile_plan(n.build), n.probe_keys, n.build_keys
    ),
    SymmetricJoinNode: lambda n: SymmetricHashJoin(
        compile_plan(n.left), compile_plan(n.right), n.left_keys, n.right_keys
    ),
    FilterNode: lambda n: StreamingFilter(compile_plan(n.child), n.predicates),
    SortNode: lambda n: StreamingSort(compile_plan(n.child), n.keys),
    GroupByNode: lambda n: HashGroupBy(
        compile_plan(n.child), n.group_keys, n.aggregates
    ),
    LimitNode: lambda n: Limit(compile_plan(n.child), n.limit),
    DistinctNode: lambda n: HashDistinct(compile_plan(n.child), n.keys),
}
"""The operator each plan node lowers to: one class per node class."""


def compile_plan(node: PlanNode) -> PhysicalOperator:
    """Lower a plan tree to the operator tree that runs it; no choices
    are made here."""
    lower = _LOWERING.get(type(node))
    if lower is None:
        raise PlanError(f"no operator for plan node {type(node).__name__}")
    return lower(node)


__all__ = [
    "BATCH_ROWS",
    "PhysicalOperator",
    "StreamingScan",
    "StreamingSource",
    "StreamingFilter",
    "SubqueryOp",
    "BroadcastHashJoin",
    "IndexNestedLoopJoin",
    "SymmetricHashJoin",
    "HashDistinct",
    "HashGroupBy",
    "StreamingSort",
    "Limit",
    "compile_plan",
]
