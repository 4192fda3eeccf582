"""Physical operators: the one way a SELECT runs.

Every :class:`~repro.phoenix.plans.PlanNode` lowers, one to one
(:func:`compile_plan`), to a :class:`PhysicalOperator` with explicit
``open``/``next_batch``/``close`` semantics; rows move up the tree a
batch at a time, and the planner (rule-based or cost-based) stays the
single source of truth for plan *shape*.

**Rows.** A row is a tuple laid out by its plan node's ``schema``. An
operator is built from its node and its input operators; it compiles
the slot indexes the node resolved once (``operator.itemgetter``) into
its predicates, keys and aggregate inputs. A join emits
``left + right``, a derived table remaps with one getter.

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
from typing import Any, Callable, Iterator, Sequence

from repro.errors import PlanError
from repro.phoenix.plans import (
    BROADCAST,
    GROUP_BY,
    JOIN_OUTPUT,
    SHUFFLE,
    SORT,
    DistinctNode,
    ExecutionContext,
    FilterNode,
    GroupByNode,
    HashJoinNode,
    LimitNode,
    NestedLoopJoinNode,
    PlanNode,
    Row,
    RowTest,
    ScanNode,
    SortNode,
    SourceNode,
    SubqueryNode,
    SymmetricJoinNode,
    conjunction,
    tuple_getter,
)
from repro.sql.ast import Literal, Param

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

    def __init__(self, node: PlanNode, child: "PhysicalOperator | None" = None) -> None:
        self.node = node
        self.child = child  # the input of a one-input operator

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

    node: ScanNode
    _gen: Iterator[Row] | None = None

    def open(self, ctx: ExecutionContext) -> None:
        self._ctx = ctx
        node = self.node
        values = [ctx.eval(e) for e in node.prefix_exprs]
        self._gen = node.access.fetch(ctx, values, node.check_dirty)

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

    node: SourceNode

    def _build(self) -> list[Row]:
        return self.node.fetch()


class StreamingFilter(PhysicalOperator):
    node: FilterNode

    def open(self, ctx: ExecutionContext) -> None:
        super().open(ctx)
        self._keep: RowTest = conjunction(self.node.slotted, ctx)

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        while True:
            batch = self.child.next_batch(demand)
            if batch is None:
                return None
            kept = list(filter(self._keep, batch))
            if kept:
                return kept


class SubqueryOp(PhysicalOperator):
    """Streams a derived-table subplan, remapping each sub-row to the
    derived table's columns with one getter — no materialization
    barrier."""

    def __init__(self, node: SubqueryNode, child: PhysicalOperator) -> None:
        super().__init__(node, child)
        self._remap = tuple_getter(node.source_slots)

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        batch = self.child.next_batch(demand)
        if batch is None:
            return None
        return list(map(self._remap, batch))


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
    _outer_rows: Sequence[Row] = ()
    _pos = 0
    _row: Row = ()
    _matches: Iterator[Row] | None = None

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
                out.append(outer_row + match)
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
    region server (and the cost-based planner estimates by running the
    same charge);
    the probe side then streams against the table."""

    def __init__(
        self, node: HashJoinNode, probe: PhysicalOperator, build: PhysicalOperator
    ) -> None:
        super().__init__(node, probe)
        self.build = build
        self._probe_key = tuple_getter(node.probe_slots)
        self._table: dict[tuple, list[Row]] | None = None

    def _build_table(self) -> dict[tuple, list[Row]]:
        table: dict[tuple, list[Row]] = {}
        build_rows = 0
        key_of = tuple_getter(self.node.build_slots)
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

    node: NestedLoopJoinNode

    def open(self, ctx: ExecutionContext) -> None:
        super().open(ctx)
        # constants are evaluated once; outer-row slots are read per row
        getters = tuple(
            (lambda row, value=ctx.eval(k): value)
            if isinstance(k, (Literal, Param))
            else operator.itemgetter(k)
            for k in self.node.outer_slots
        )
        self._prefix_of = lambda row: [get(row) for get in getters]

    def _matches_of(self, outer_row: Row) -> Iterator[Row]:
        return self.node.inner.fetch(
            self._ctx, self._prefix_of(outer_row), self.node.check_dirty
        )

    def close(self) -> None:
        if self._matches is not None:
            self._matches.close()  # type: ignore[attr-defined]
            self._matches = None
        super().close()


class _JoinSide:
    __slots__ = ("source", "key_of", "table", "done")

    def __init__(self, source: PhysicalOperator, key_slots: tuple[int, ...]) -> None:
        self.source = source
        self.key_of = tuple_getter(key_slots)
        self.table: dict[tuple, list[Row]] = {}
        self.done = False


class SymmetricHashJoin(PhysicalOperator):
    """Non-blocking symmetric hash join (Xgjoin-style), the join of the
    federation merge.

    Pulls full batches from both inputs alternately, whatever the
    demand; every arriving row probes the opposite side's hash table
    (one ``left + right`` row per match) and is then inserted into its
    own table. Each left/right row pair therefore matches exactly once,
    so the output is the inner-join multiset — but the first row comes
    out after one batch per side, and a downstream LIMIT stops *both*
    inputs early. Output beyond the demand waits in a buffer.

    Each batch's inserted rows are reported to the host as
    :data:`SHUFFLE` work: one partitioned shuffle hop per row.
    """

    def __init__(
        self,
        node: SymmetricJoinNode,
        left: PhysicalOperator,
        right: PhysicalOperator,
    ) -> None:
        super().__init__(node)
        self.left = _JoinSide(left, node.left_slots)
        self.right = _JoinSide(right, node.right_slots)
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
                    out.append(row + match if left_first else match + row)
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
    """Streaming dedupe on the projected slots; survivors leave batch
    by batch."""

    def __init__(self, node: DistinctNode, child: PhysicalOperator) -> None:
        super().__init__(node, child)
        self._key_of = tuple_getter(node.key_slots)
        self._seen: set = set()

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        key_of, seen = self._key_of, self._seen
        while True:
            batch = self.child.next_batch(demand)
            if batch is None:
                return None
            out: list[Row] = []
            for row in batch:
                key = key_of(row)
                if key not in seen:
                    seen.add(key)
                    out.append(row)
            if out:
                return out


class HashGroupBy(_Materialized):
    """Hash aggregation with incremental accumulators: no per-group row
    lists, one flat accumulator list per group that each aggregate's
    compiled update folds a row into. A group leaves as its key values
    followed by one value per aggregate (:class:`GroupByNode`'s
    schema); groups leave in first-seen order."""

    def __init__(self, node: GroupByNode, child: PhysicalOperator) -> None:
        super().__init__(node, child)
        self._key_of = tuple_getter(node.key_slots)
        acc: list[Any] = []
        self._updates: list[_Update] = []
        self._finishes: list[_Finish] = []
        for (_, func, _), slot in zip(node.aggregates, node.aggregate_slots):
            start, update, finish = _aggregate(func, slot, len(acc))
            acc.extend(start)
            self._updates.append(update)
            self._finishes.append(finish)
        self._start = tuple(acc)

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
        finishes = self._finishes
        return [
            key + tuple([finish(acc) for finish in finishes])
            for key, acc in groups.items()
        ]


_Update = Callable[[list[Any], Row], None]
_Finish = Callable[[list[Any]], Any]


def _aggregate(
    func: str, slot: int | None, at: int
) -> tuple[tuple[Any, ...], _Update, _Finish]:
    """``func`` over the row's ``slot`` compiled against the
    accumulator slots starting at ``at``: (initial slots,
    ``update(acc, row)``, ``finish(acc)``). SQL null semantics over the
    non-NULL inputs: COUNT of nothing is 0, everything else is NULL."""
    if slot is None:  # COUNT(*): no lookup

        def update(acc: list[Any], row: Row) -> None:
            acc[at] += 1

        return (0,), update, operator.itemgetter(at)
    get = operator.itemgetter(slot)
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

    def __init__(self, node: SortNode, child: PhysicalOperator) -> None:
        super().__init__(node, child)
        descending = (desc for _, desc in node.keys)
        passes = [(_sort_key(s), d) for s, d in zip(node.key_slots, descending)]
        self._passes = passes[::-1]

    def _build(self) -> list[Row]:
        rows = [row for batch in _drain(self.child) for row in batch]
        self._ctx.conn.operator_work(SORT, len(rows))
        for key, desc in self._passes:
            rows.sort(key=key, reverse=desc)
        return rows


def _sort_key(slot: int) -> Callable[[Row], tuple[bool, Any]]:
    def key(row: Row) -> tuple[bool, Any]:
        v = row[slot]
        return (v is not None, v)

    return key


class Limit(PhysicalOperator):
    """LIMIT: asks its child for what is still missing, and closes it as
    soon as the limit is satisfied so abandoned subtree scans release
    their windows at the moment the last row is emitted, not at tree
    close."""

    node: LimitNode
    _emitted = 0
    _done = False

    def next_batch(self, demand: int | None = None) -> list[Row] | None:
        if self._done:
            return None
        limit = self.node.limit
        remaining = limit - self._emitted
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
        if self._emitted >= limit:
            self._finish()
        return batch

    def _finish(self) -> None:
        self._done = True
        self.child.close()


# ---------------------------------------------------------------- compilation
_LOWERING: dict[type[PlanNode], type[PhysicalOperator]] = {
    ScanNode: StreamingScan,
    SourceNode: StreamingSource,
    SubqueryNode: SubqueryOp,
    NestedLoopJoinNode: IndexNestedLoopJoin,
    HashJoinNode: BroadcastHashJoin,
    SymmetricJoinNode: SymmetricHashJoin,
    FilterNode: StreamingFilter,
    SortNode: StreamingSort,
    GroupByNode: HashGroupBy,
    LimitNode: Limit,
    DistinctNode: HashDistinct,
}
"""The operator each plan node lowers to: one class per node class,
built from the node and the operators of its inputs."""


def compile_plan(node: PlanNode) -> PhysicalOperator:
    """Lower a plan tree to the operator tree that runs it; no choices
    are made here."""
    lower = _LOWERING.get(type(node))
    if lower is None:
        raise PlanError(f"no operator for plan node {type(node).__name__}")
    return lower(node, *map(compile_plan, node.children()))


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
