"""Streaming physical operators (batch-at-a-time pull model).

The legacy executor in :mod:`repro.phoenix.plans` is a per-row
generator chain. This module is the streaming engine that replaces it
after ``conn.configure_engine(engine="streaming")``: every node is
a :class:`PhysicalOperator` with explicit ``open``/``next_batch``/
``close`` semantics, pulling *batches* of rows through the tree instead
of resuming a generator frame per row per operator.

Differences from the legacy operators — semantics are row-for-row
identical (pinned by ``tests/test_query_engine_property.py``), the
physics are not:

* joins with no index path run as a **non-blocking symmetric hash
  join** (both sides stream; each arriving row probes the opposite
  hash table, then inserts into its own) instead of the legacy
  broadcast join that fully materializes the build side before the
  first output row. Under a ``LIMIT`` this stops reading *both*
  inputs early; it also charges a per-row partitioned shuffle instead
  of the legacy build-side broadcast.
* ``close()`` propagates to every in-flight scan generator, which
  triggers the region-scanner ``finally`` (batch-charge settlement and
  the region-server queue release) deterministically instead of
  waiting for garbage collection — the PR 4 scan-finally guarantee,
  extended to abandoned operator trees.

The streaming engine is compiled *from* the legacy plan tree
(:func:`compile_plan`), so planner decisions — access paths, join
order, residual placement — are shared between engines and the anchored
legacy experiments never see these operators.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import PlanError
from repro.phoenix.plans import (
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
    ScanNode,
    SortNode,
    SourceNode,
    SubqueryNode,
    _hashable,
    _lookup,
    _OrderKey,
)
from repro.sql.ast import Expr

BATCH_ROWS = 256
"""Rows per hop between operators: large enough to amortize the
per-batch Python overhead, small enough that LIMIT early-close still
saves real work."""


class PhysicalOperator:
    """Pull-based operator: ``open(ctx)`` once, then ``next_batch()``
    until it returns ``None``, then ``close()``.

    ``next_batch`` returns a non-empty list of rows or ``None`` when
    exhausted (operators loop internally instead of surfacing empty
    batches). ``close`` is idempotent, safe mid-stream, and always
    propagates to children so abandoned subtrees release their scanner
    windows immediately.
    """

    def open(self, ctx: ExecutionContext) -> None:
        self._ctx = ctx
        for child in self.children():
            child.open(ctx)

    def next_batch(self) -> list[Row] | None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        for child in self.children():
            child.close()

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def describe(self, indent: int = 0) -> str:
        lines = [("  " * indent) + self._label()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


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

    def next_batch(self) -> list[Row] | None:
        if self._gen is None:
            return None
        batch: list[Row] = []
        for row in self._gen:
            batch.append(row)
            if len(batch) >= BATCH_ROWS:
                return batch
        self._gen = None
        return batch or None

    def close(self) -> None:
        if self._gen is not None:
            # GeneratorExit unwinds fetch -> HTable.scan's finally:
            # batch charges settle and the server queue slot is released
            self._gen.close()
            self._gen = None

    def _label(self) -> str:
        entry = self.access.entry
        kind = "POINT GET" if self.access.is_point() else (
            "PREFIX SCAN" if self.access.prefix_attrs else "FULL SCAN"
        )
        return (
            f"STREAM {kind} {entry.name} [{entry.kind}] as "
            f"{self.access.binding} prefix={self.access.prefix_attrs}"
        )


class StreamingSource(PhysicalOperator):
    """Leaf over :attr:`SourceNode.fetch`: runs it at the first pull
    (never, when nothing pulls) and hands its rows on in batches."""

    def __init__(self, fetch: Callable[[], list[Row]], label: str) -> None:
        self.fetch = fetch
        self.label = label
        self._rows: list[Row] | None = None
        self._pos = 0

    def next_batch(self) -> list[Row] | None:
        if self._rows is None:
            self._rows = self.fetch()
        if self._pos >= len(self._rows):
            return None
        batch = self._rows[self._pos : self._pos + BATCH_ROWS]
        self._pos += len(batch)
        return batch

    def _label(self) -> str:
        return f"STREAM SOURCE {self.label}"


class StreamingFilter(PhysicalOperator):
    def __init__(
        self, child: PhysicalOperator, predicates: tuple[Predicate, ...]
    ) -> None:
        self.child = child
        self.predicates = predicates

    def next_batch(self) -> list[Row] | None:
        while True:
            batch = self.child.next_batch()
            if batch is None:
                return None
            ctx = self._ctx
            kept = [
                row
                for row in batch
                if all(p.test(row, ctx) for p in self.predicates)
            ]
            if kept:
                return kept

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"STREAM FILTER {self.predicates}"


class SubqueryOp(PhysicalOperator):
    """Streams a derived-table subplan, remapping each row to the
    derived alias — no materialization barrier (unlike the legacy
    :class:`SubqueryNode` name suggests, both stream; this one just
    does it in batches)."""

    def __init__(
        self,
        child: PhysicalOperator,
        alias: str,
        output_names: tuple[str, ...],
        source_keys: tuple[Any, ...],
    ) -> None:
        self.child = child
        self.alias = alias
        self.output_names = output_names
        self.source_keys = source_keys

    def next_batch(self) -> list[Row] | None:
        batch = self.child.next_batch()
        if batch is None:
            return None
        alias = self.alias
        pairs = tuple(zip(self.output_names, self.source_keys))
        return [
            {(alias, name): _lookup(row, source) for name, source in pairs}
            for row in batch
        ]

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"STREAM DERIVED as {self.alias} -> {self.output_names}"


class _JoinSide:
    __slots__ = ("source", "keys", "table", "done")

    def __init__(
        self, source: PhysicalOperator, keys: tuple[tuple[str, str], ...]
    ) -> None:
        self.source = source
        self.keys = keys
        self.table: dict[tuple, list[Row]] = {}
        self.done = False


class SymmetricHashJoin(PhysicalOperator):
    """Non-blocking symmetric hash join (Xgjoin-style).

    Pulls batches from both inputs alternately; every arriving row
    probes the opposite side's hash table (emitting one merged row per
    match) and is then inserted into its own table. Each left/right row
    pair therefore matches exactly once, so the output is the same
    inner-join multiset the legacy broadcast join produces — but the
    first row comes out after one batch per side, and a downstream
    LIMIT stops *both* scans early.

    Cost: instead of the legacy build-side broadcast (rows x row bytes
    x region servers), each inserted row is charged one partitioned
    shuffle hop (rows x row bytes), metered under
    ``phoenix.hashjoin_shuffle_rows``.
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

    def next_batch(self) -> list[Row] | None:
        out: list[Row] = []
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
            for row in batch:
                key = tuple(row.get(k) for k in side.keys)
                if None in key:
                    continue
                for match in other.table.get(key, ()):
                    merged = dict(row) if left_first else dict(match)
                    merged.update(match if left_first else row)
                    out.append(merged)
                side.table.setdefault(key, []).append(row)
                inserted += 1
            if inserted:
                conn = self._ctx.conn
                conn.charge.transfer(inserted * conn.hashjoin_row_bytes)
                conn.sim.metrics.counter(
                    "phoenix.hashjoin_shuffle_rows"
                ).inc(inserted)
        return out

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

    def _label(self) -> str:
        return (
            f"SYMMETRIC HASH JOIN on left={self.left.keys} "
            f"right={self.right.keys}"
        )


class IndexNestedLoopJoin(PhysicalOperator):
    """Index nested-loop join: one inner access per outer row, same
    probe pattern (and therefore the same virtual charges) as the
    legacy :class:`NestedLoopJoinNode`; only the outer side batches."""

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: AccessSpec,
        outer_keys: tuple,
        check_dirty: bool = False,
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.outer_keys = outer_keys
        self.check_dirty = check_dirty
        self._batch: list[Row] | None = None
        self._pos = 0
        self._done = False

    def next_batch(self) -> list[Row] | None:
        out: list[Row] = []
        ctx = self._ctx
        while len(out) < BATCH_ROWS and not self._done:
            if self._batch is None or self._pos >= len(self._batch):
                self._batch = self.outer.next_batch()
                self._pos = 0
                if self._batch is None:
                    self._done = True
                continue
            outer_row = self._batch[self._pos]
            self._pos += 1
            values = [
                outer_row.get(k) if isinstance(k, tuple) else ctx.eval(k)
                for k in self.outer_keys
            ]
            for inner_row in self.inner.fetch(ctx, values, self.check_dirty):
                merged = dict(outer_row)
                merged.update(inner_row)
                out.append(merged)
        return out or None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.outer,)

    def _label(self) -> str:
        return (
            f"STREAM NL JOIN -> {self.inner.entry.name} as "
            f"{self.inner.binding} on {self.outer_keys}"
        )


class HashDistinct(PhysicalOperator):
    """Streaming dedupe — same key derivation as the legacy
    :class:`DistinctNode` (the projected sources), but emits survivors
    batch by batch."""

    def __init__(self, child: PhysicalOperator, keys: tuple) -> None:
        self.child = child
        self.keys = keys
        self._seen: set = set()

    def next_batch(self) -> list[Row] | None:
        while True:
            batch = self.child.next_batch()
            if batch is None:
                return None
            out: list[Row] = []
            for row in batch:
                key = tuple(_hashable(_lookup(row, k)) for k in self.keys)
                if key not in self._seen:
                    self._seen.add(key)
                    out.append(row)
            if out:
                return out

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"HASH DISTINCT {self.keys}"


class HashGroupBy(PhysicalOperator):
    """Hash aggregation with *incremental* accumulators — unlike the
    legacy node it never materializes per-group row lists, only
    (count, sum, min, max) states per aggregate. Blocking by nature;
    results stream out in first-seen group order (same as legacy)."""

    def __init__(
        self, child: PhysicalOperator, group_keys: tuple, aggregates: tuple
    ) -> None:
        self.child = child
        self.group_keys = group_keys
        self.aggregates = aggregates
        self._results: list[Row] | None = None
        self._pos = 0

    def _build(self) -> None:
        ctx = self._ctx
        reps: dict[tuple, Row] = {}
        # per group: one [n, total, mn, mx] state per aggregate
        states: dict[tuple, list[list[Any]]] = {}
        total_rows = 0
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            total_rows += len(batch)
            for row in batch:
                key = tuple(_lookup(row, g) for g in self.group_keys)
                if key not in reps:
                    reps[key] = row
                    states[key] = [
                        [0, 0, None, None] for _ in self.aggregates
                    ]
                for state, (_, _, source) in zip(
                    states[key], self.aggregates
                ):
                    v = 1 if source is None else _lookup(row, source)
                    if v is None:
                        continue
                    state[0] += 1
                    state[1] += v
                    if state[2] is None or v < state[2]:
                        state[2] = v
                    if state[3] is None or v > state[3]:
                        state[3] = v
        ctx.conn.sim.charge(0.0005 * total_rows, "phoenix.groupby")
        results: list[Row] = []
        for key, rep in reps.items():
            out: Row = {}
            for g in self.group_keys:
                if isinstance(g, tuple):
                    out[g] = rep.get(g)
                else:
                    out[("", g)] = _lookup(rep, g)
            for state, (out_name, func, _) in zip(
                states[key], self.aggregates
            ):
                out[("", out_name)] = _finish_aggregate(func, state)
            results.append(out)
        self._results = results

    def next_batch(self) -> list[Row] | None:
        if self._results is None:
            self._build()
        assert self._results is not None
        if self._pos >= len(self._results):
            return None
        batch = self._results[self._pos : self._pos + BATCH_ROWS]
        self._pos += len(batch)
        return batch

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"HASH GROUP BY {self.group_keys} aggs={self.aggregates}"


def _finish_aggregate(func: str, state: list[Any]) -> Any:
    """Same null semantics as the legacy :func:`_aggregate` over a
    None-filtered value list: COUNT of nothing is 0, everything else
    is NULL."""
    n, total, mn, mx = state
    if func == "COUNT":
        return n
    if n == 0:
        return None
    if func == "SUM":
        return total
    if func == "MIN":
        return mn
    if func == "MAX":
        return mx
    if func == "AVG":
        return total / n
    raise PlanError(f"unknown aggregate {func}")  # pragma: no cover


class StreamingSort(PhysicalOperator):
    """Blocking sort; same comparator (:class:`_OrderKey`) and the same
    per-row client-side charge as the legacy node, but emits batches."""

    def __init__(self, child: PhysicalOperator, keys: tuple) -> None:
        self.child = child
        self.keys = keys
        self._sorted: list[Row] | None = None
        self._pos = 0

    def next_batch(self) -> list[Row] | None:
        if self._sorted is None:
            rows: list[Row] = []
            while True:
                batch = self.child.next_batch()
                if batch is None:
                    break
                rows.extend(batch)
            self._ctx.conn.sim.charge(0.0005 * len(rows), "phoenix.sort")
            keys = self.keys

            def sort_key(row: Row):
                return tuple(
                    _OrderKey(_lookup(row, source), desc)
                    for source, desc in keys
                )

            rows.sort(key=sort_key)
            self._sorted = rows
        if self._pos >= len(self._sorted):
            return None
        batch = self._sorted[self._pos : self._pos + BATCH_ROWS]
        self._pos += len(batch)
        return batch

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"STREAM SORT {self.keys}"


class Limit(PhysicalOperator):
    """LIMIT. Closes the child as soon as the limit is satisfied so
    abandoned subtree scans release their windows at the moment the
    last row is emitted, not at tree close."""

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        self.child = child
        self.limit = limit
        self._emitted = 0
        self._done = False

    def next_batch(self) -> list[Row] | None:
        if self._done:
            return None
        remaining = self.limit - self._emitted
        if remaining <= 0:
            self._finish()
            return None
        batch = self.child.next_batch()
        if batch is None:
            self._done = True
            return None
        if len(batch) >= remaining:
            batch = batch[:remaining]
            self._finish()
        self._emitted += len(batch)
        return batch

    def _finish(self) -> None:
        self._done = True
        self.child.close()

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"STREAM LIMIT {self.limit}"


# ---------------------------------------------------------------- compilation
def compile_plan(node: PlanNode) -> PhysicalOperator:
    """Translate a legacy plan tree into a streaming operator tree.

    The planner (rule-based or cost-based) stays the single source of
    truth for plan *shape*; this only swaps the execution physics.
    """
    if isinstance(node, ScanNode):
        return StreamingScan(node.access, node.prefix_exprs, node.check_dirty)
    if isinstance(node, SourceNode):
        return StreamingSource(node.fetch, node.label)
    if isinstance(node, SubqueryNode):
        return SubqueryOp(
            compile_plan(node.subplan),
            node.alias,
            node.output_names,
            node.source_keys,
        )
    if isinstance(node, NestedLoopJoinNode):
        return IndexNestedLoopJoin(
            compile_plan(node.outer), node.inner, node.outer_keys, node.check_dirty
        )
    if isinstance(node, HashJoinNode):
        return SymmetricHashJoin(
            compile_plan(node.probe),
            compile_plan(node.build),
            node.probe_keys,
            node.build_keys,
        )
    if isinstance(node, FilterNode):
        return StreamingFilter(compile_plan(node.child), node.predicates)
    if isinstance(node, SortNode):
        return StreamingSort(compile_plan(node.child), node.keys)
    if isinstance(node, GroupByNode):
        return HashGroupBy(compile_plan(node.child), node.group_keys, node.aggregates)
    if isinstance(node, LimitNode):
        return Limit(compile_plan(node.child), node.limit)
    if isinstance(node, DistinctNode):
        return HashDistinct(compile_plan(node.child), node.keys)
    raise PlanError(f"no streaming operator for plan node {type(node).__name__}")


__all__ = [
    "BATCH_ROWS",
    "PhysicalOperator",
    "StreamingScan",
    "StreamingSource",
    "StreamingFilter",
    "SubqueryOp",
    "SymmetricHashJoin",
    "IndexNestedLoopJoin",
    "HashDistinct",
    "HashGroupBy",
    "StreamingSort",
    "Limit",
    "compile_plan",
]
