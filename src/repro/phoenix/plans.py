"""Logical plan nodes, the leaf access path and residual predicates.

A plan is a tree of :class:`PlanNode` dataclasses: what the planners
build, ``EXPLAIN`` renders and :func:`repro.phoenix.operators.compile_plan`
lowers one-to-one into the operators that run it. Nothing here
executes except :meth:`AccessSpec.fetch`, the one way rows leave the
catalog's tables.

A row is a tuple laid out by its node's ``schema``, the
``(binding, attr)`` of each slot (keying by FROM-binding keeps
self-joins like ``Item as I, Item as J`` unambiguous). A node resolves
the sources it reads to slots of its input's schema when it is built:
a source the input lacks is a :class:`PlanError`. Every access charges
virtual time through the HBase client it drives; plan shape therefore
*is* the cost model. The operators above the leaves charge nothing
themselves: they report their work to the :class:`OperatorHost` they
run on, and each host (a Phoenix connection, the federation merge, a
VoltDB procedure) prices it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, Sequence

from repro.errors import DirtyReadRestart, PlanError
from repro.hbase.bytes_util import prefix_stop
from repro.hbase.cell import Result
from repro.hbase.filters import AndFilter, FilterBase
from repro.hbase.ops import Get, Scan
from repro.phoenix.catalog import CF, DIRTY_QUALIFIER, CatalogEntry
from repro.relational.datatypes import encode_value
from repro.sql.analyzer import Source
from repro.sql.ast import Expr, Literal, Param

if TYPE_CHECKING:  # pragma: no cover
    from repro.phoenix.executor import PhoenixConnection

Row = tuple[Any, ...]
"""One value per source of the emitting node's ``schema``, in order."""

RowTest = Callable[[Row], bool]

DIRTY_MARK = b"\x01"

_PY_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compare(op: str, a: Any, b: Any) -> bool:
    """SQL-ish comparison: anything against NULL is false."""
    if a is None or b is None:
        return False
    return _PY_OPS[op](a, b)


BROADCAST = "hashjoin.broadcast"
SHUFFLE = "hashjoin.shuffle"
SORT = "sort"
GROUP_BY = "groupby"
JOIN_OUTPUT = "join.output"


class OperatorHost(Protocol):
    """All that the operators above the leaves touch on a connection:
    they report the work they did and the host decides what it costs.
    Only catalog scans (:meth:`AccessSpec.fetch`) need a full
    :class:`PhoenixConnection`."""

    def operator_work(self, kind: str, rows: int) -> None:
        """``rows`` rows of ``kind`` work were just done: a hash-join
        build side read whole and hashed (:data:`BROADCAST`), rows
        inserted into a symmetric hash join (:data:`SHUFFLE`), the input
        of a sort (:data:`SORT`) or group-by (:data:`GROUP_BY`), rows a
        join emitted (:data:`JOIN_OUTPUT`)."""


class ExecutionContext:
    """Carries the connection, bound parameters and restart bookkeeping."""

    def __init__(
        self, conn: "PhoenixConnection | OperatorHost", params: tuple[Any, ...]
    ) -> None:
        self.conn = conn
        self.params = params

    def eval(self, expr: Literal | Param) -> Any:
        """A constant's value: the parser admits no other compared value,
        and the planner tells a same-binding column apart before this."""
        if isinstance(expr, Literal):
            return expr.value
        try:
            return self.params[expr.index]
        except IndexError:
            raise PlanError(
                f"statement has parameter ?{expr.index} but only "
                f"{len(self.params)} values were bound"
            ) from None


# ---------------------------------------------------------------- slots
def slots(
    schema: tuple[Source, ...], sources: Iterable[Source], reader: str
) -> tuple[int, ...]:
    """The slot of each of ``sources`` in a row of ``schema``; a source
    the schema lacks is a :class:`PlanError` naming its ``reader``."""
    index = {source: i for i, source in enumerate(schema)}
    try:
        return tuple(index[source] for source in sources)
    except KeyError as missing:
        raise PlanError(
            f"{reader} reads {missing.args[0]!r}, which its input does not "
            f"carry: {schema}"
        ) from None


def tuple_getter(keys: Sequence[Any]) -> Callable[[Any], tuple]:
    """``row -> tuple(row[k] for k in keys)``, compiled once: one
    ``itemgetter``, whose bare value for a single key is wrapped."""
    if len(keys) == 1:
        (key,) = keys
        return lambda row: (row[key],)
    return operator.itemgetter(*keys) if keys else lambda row: ()


# ---------------------------------------------------------------- predicates
@dataclass(frozen=True)
class ValuePredicate:
    """``(binding, attr) op constant-expression`` — residual filter."""

    binding: str
    attr: str
    op: str
    value_expr: Literal | Param

    @property
    def sources(self) -> tuple[Source, ...]:
        return ((self.binding, self.attr),)

    def bind(self, ctx: ExecutionContext, at: tuple[int, ...]) -> RowTest:
        """The row test for one execution, on the slot ``at``: the
        constant is evaluated here, once, not per row."""
        value = ctx.eval(self.value_expr)
        op = self.op
        (i,) = at
        return lambda row: compare(op, row[i], value)


@dataclass(frozen=True)
class ColumnPredicate:
    """``(binding, attr) op (binding2, attr2)`` — e.g. theta-join residue."""

    left: tuple[str, str]
    op: str
    right: tuple[str, str]

    @property
    def sources(self) -> tuple[Source, ...]:
        return (self.left, self.right)

    def bind(self, ctx: ExecutionContext, at: tuple[int, ...]) -> RowTest:
        op = self.op
        i, j = at
        return lambda row: compare(op, row[i], row[j])


Predicate = ValuePredicate | ColumnPredicate


Slotted = tuple[tuple[Predicate, tuple[int, ...]], ...]  # with their sources' slots


def conjunction(slotted: Slotted, ctx: ExecutionContext) -> RowTest:
    """One row test for all of the ``slotted`` predicates, tried in
    order."""
    tests = [p.bind(ctx, at) for p, at in slotted]
    if len(tests) == 1:
        return tests[0]
    return lambda row: all(test(row) for test in tests)


# ---------------------------------------------------------------- base access
@dataclass(frozen=True)
class _PushedPredicate(FilterBase):
    """A residual the region server applies, under :func:`compare`'s
    rule: a stored NULL (an empty value or no cell) never passes, and
    nothing passes against a NULL constant (``value is None``)."""

    qualifier: bytes
    op: Callable[[bytes, bytes], bool]
    value: bytes | None

    def accept(self, result: Result) -> bool:
        cur = result.value(CF, self.qualifier)
        return bool(cur) and self.value is not None and self.op(cur, self.value)


@dataclass
class AccessSpec:
    """How to reach rows of one catalog entry for one binding.

    ``prefix_attrs`` name the leading key attributes whose values are
    known (from filters or, in a nested loop, from the outer row);
    ``residuals`` are pushed server-side as column-value filters when
    they touch non-key attributes.
    """

    entry: CatalogEntry
    binding: str
    prefix_attrs: tuple[str, ...] = ()
    residuals: tuple[ValuePredicate, ...] = ()
    lookup_entry: CatalogEntry | None = None
    """Non-covered index access: Get this base entry per matched row."""

    needed: frozenset[str] | None = None
    """The decode set: the attributes anything downstream reads, which
    are the only ones a fetched row carries (``None`` = all, for
    ``SELECT *``). The residuals' attributes always count as read."""

    def __post_init__(self) -> None:
        if self.needed is not None:
            self.needed = self.needed | {p.attr for p in self.residuals}
        # a fetched row carries the decode set, in decoder order
        decoded = self.entry if self.lookup_entry is None else self.lookup_entry
        attrs, self._decode = decoded.row_decoder(self.needed)
        self.schema = tuple((self.binding, a) for a in attrs)
        self._client_side: Slotted = tuple(
            (p, slots(self.schema, p.sources, f"the access to {self.binding}"))
            for p in self.residuals
            if not self._pushed_down(p)
        )

    def is_point(self) -> bool:
        return len(self.prefix_attrs) == len(self.entry.key_attrs)

    def _pushed_down(self, pred: ValuePredicate) -> bool:
        """Whether a scan's server-side filter applies ``pred``: it
        does for a non-key column the scanned entry stores. The rest —
        key attributes, everything on a point get, a column only the
        looked-up base row has — is tested on the decoded row."""
        entry = self.entry
        return (
            not self.is_point()
            and pred.attr not in entry.key_attrs
            and pred.attr in entry.dtypes
        )

    def _server_filter(self, ctx: ExecutionContext) -> FilterBase | None:
        filters: list[FilterBase] = []
        for pred in self.residuals:
            if self._pushed_down(pred):
                value = ctx.eval(pred.value_expr)
                filters.append(
                    _PushedPredicate(
                        pred.attr.encode(),
                        _PY_OPS[pred.op],
                        None
                        if value is None
                        else encode_value(self.entry.dtypes[pred.attr], value),
                    )
                )
        if not filters:
            return None
        return filters[0] if len(filters) == 1 else AndFilter(tuple(filters))

    def fetch(
        self,
        ctx: ExecutionContext,
        prefix_values: list[Any],
        check_dirty: bool,
    ) -> Iterator[Row]:
        """Stream decoded rows for the given prefix values.

        The entry's full column set is pushed down into the Get/Scan
        (the storage projection: what is merged, sized and charged);
        of that, only ``needed`` is decoded into the rows yielded. The
        loop is picked once per call: with no dirty check, no MVCC
        version check, no index lookup and no client-side residual it
        is ``map(decode, results)``."""
        entry = self.entry
        conn = ctx.conn
        table = conn.client.table(entry.name)
        if None in prefix_values:
            return  # NULL never equi-matches anything
        projection = entry.projection()
        if self.is_point():
            key = entry.encode_key_values(prefix_values)
            result = table.get(Get(key, columns=projection))
            results = [] if result is None else [result]
        else:
            if prefix_values:
                prefix = entry.encode_key_prefix(prefix_values)
                scan = Scan(start_row=prefix, stop_row=prefix_stop(prefix))
            else:
                scan = Scan()
            scan.columns = projection
            scan.filter = self._server_filter(ctx)
            results = table.scan(scan)
        version_checks = (
            conn.charge.version_checks if conn.mvcc_version_check else None
        )
        lookup = self.lookup_entry
        if lookup is not None:
            base_table = conn.client.table(lookup.name)
            base_projection = lookup.projection()
        decode = self._decode
        keep = conjunction(self._client_side, ctx) if self._client_side else None
        plain = not check_dirty and version_checks is None and lookup is None
        if plain and keep is None:
            yield from map(decode, results)
            return
        for result in results:
            if check_dirty and result.value(CF, DIRTY_QUALIFIER) == DIRTY_MARK:
                raise DirtyReadRestart(entry.name)
            if version_checks is not None:
                version_checks(result.column_count)
            if lookup is not None:
                # the base key re-forms from the index row's stored bytes
                base_key = lookup.stored_key(entry.stored_row(result))
                result = base_table.get(Get(base_key, columns=base_projection))
                if result is None:
                    continue
            row = decode(result)
            if keep is None or keep(row):
                yield row


# ---------------------------------------------------------------- plan nodes
class PlanNode:
    """One logical step of a SELECT; ``describe`` is its ``EXPLAIN``."""

    schema: tuple[Source, ...]
    """The source of each slot of the rows this node emits, set when
    the node is built."""

    def children(self) -> tuple["PlanNode", ...]:
        """The input nodes, in field order."""
        return tuple(v for v in vars(self).values() if isinstance(v, PlanNode))

    def describe(self, indent: int = 0) -> str:
        est = getattr(self, "_est", None)
        suffix = (
            f"  -- est rows={est[0]:.0f} cost={est[1]:.3f}ms"
            if est is not None
            else ""
        )
        lines = [("  " * indent) + self._label() + suffix]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def _slots(self, child: "PlanNode", sources: Iterable[Source]) -> tuple[int, ...]:
        return slots(child.schema, sources, type(self).__name__)


@dataclass
class ScanNode(PlanNode):
    """Leaf access: point get, prefix scan, index scan or full scan."""

    access: AccessSpec
    prefix_exprs: tuple[Literal | Param, ...] = ()
    check_dirty: bool = False

    def __post_init__(self) -> None:
        self.schema = self.access.schema

    def _label(self) -> str:
        entry = self.access.entry
        kind = "POINT GET" if self.access.is_point() else (
            "PREFIX SCAN" if self.access.prefix_attrs else "FULL SCAN"
        )
        return (
            f"{kind} {entry.name} [{entry.kind}] as {self.access.binding} "
            f"prefix={self.access.prefix_attrs}"
        )


@dataclass
class SourceNode(PlanNode):
    """Leaf over rows made outside the catalog, in ``schema``. ``fetch``
    is called once, when the first row is pulled — a leaf nothing pulls
    from (a satisfied LIMIT upstream) never runs it."""

    fetch: Callable[[], list[Row]]
    label: str
    schema: tuple[Source, ...]

    def _label(self) -> str:
        return f"SOURCE {self.label}"


@dataclass
class SubqueryNode(PlanNode):
    """A derived table: the subplan's rows renamed to ``alias``."""

    subplan: PlanNode
    alias: str
    output_names: tuple[str, ...]
    source_keys: tuple[Source, ...]
    """For each output name, the sub-row source that feeds it."""

    def __post_init__(self) -> None:
        self.schema = tuple((self.alias, name) for name in self.output_names)
        self.source_slots = self._slots(self.subplan, self.source_keys)

    def _label(self) -> str:
        return f"DERIVED TABLE as {self.alias} -> {self.output_names}"


@dataclass
class NestedLoopJoinNode(PlanNode):
    """Index nested-loop join: one inner access per outer row.

    This is the RPC-per-probe join whose cost the paper's
    micro-benchmark measures against view scans (Fig. 10).
    """

    outer: PlanNode
    inner: AccessSpec
    outer_keys: tuple[tuple[str, str] | Expr, ...]
    """Sources of the inner prefix values, aligned with
    ``inner.prefix_attrs``: either an outer-row key (binding, attr) or a
    constant expression (literal/parameter filter on the inner side)."""
    check_dirty: bool = False

    def __post_init__(self) -> None:
        self.schema = self.outer.schema + self.inner.schema
        # an outer-row key as its outer slot; a constant stays an expression
        self.outer_slots: tuple[int | Expr, ...] = tuple(
            k if isinstance(k, (Literal, Param)) else self._slots(self.outer, (k,))[0]
            for k in self.outer_keys
        )

    def _label(self) -> str:
        return (
            f"NL JOIN -> {self.inner.entry.name} as {self.inner.binding} "
            f"on {self.outer_keys}"
        )


@dataclass
class HashJoinNode(PlanNode):
    """Broadcast hash join, what the planners emit when the inner side
    has no index path: build side fully scanned, hashed and (as in
    Phoenix) shipped to every region server; probe side streams."""

    probe: PlanNode
    build: PlanNode
    probe_keys: tuple[tuple[str, str], ...]
    build_keys: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        self.schema = self.probe.schema + self.build.schema
        self.probe_slots = self._slots(self.probe, self.probe_keys)
        self.build_slots = self._slots(self.build, self.build_keys)

    def _label(self) -> str:
        return f"HASH JOIN on probe={self.probe_keys} build={self.build_keys}"


@dataclass
class SymmetricJoinNode(PlanNode):
    """Non-blocking hash join of two inputs that share no cluster, what
    the federation merge emits: there is nowhere to broadcast a build
    side to, so both inputs stream and every row pays one shuffle hop."""

    left: PlanNode
    right: PlanNode
    left_keys: tuple[tuple[str, str], ...]
    right_keys: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        self.schema = self.left.schema + self.right.schema
        self.left_slots = self._slots(self.left, self.left_keys)
        self.right_slots = self._slots(self.right, self.right_keys)

    def _label(self) -> str:
        return f"SYMMETRIC HASH JOIN on left={self.left_keys} right={self.right_keys}"


@dataclass
class FilterNode(PlanNode):
    child: PlanNode
    predicates: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        self.schema = self.child.schema
        self.slotted: Slotted = tuple(
            (p, self._slots(self.child, p.sources)) for p in self.predicates
        )

    def _label(self) -> str:
        return f"FILTER {self.predicates}"


@dataclass
class SortNode(PlanNode):
    child: PlanNode
    keys: tuple[tuple[Source, bool], ...]
    """((source, descending), ...); an aggregate is ``("", call text)``."""

    def __post_init__(self) -> None:
        self.schema = self.child.schema
        self.key_slots = self._slots(self.child, (src for src, _ in self.keys))

    def _label(self) -> str:
        return f"SORT {self.keys}"


@dataclass
class GroupByNode(PlanNode):
    """Hash aggregation: per group its keys, then each aggregate as
    ``("", canonical call text)`` (e.g. ``SUM(ol_qty)``)."""

    child: PlanNode
    group_keys: tuple[Source, ...]
    aggregates: tuple[tuple[str, str, Source | None], ...]
    """(output_name, func, source) — source None for COUNT(*)."""

    def __post_init__(self) -> None:
        self.schema = self.group_keys + tuple(
            ("", out_name) for out_name, _, _ in self.aggregates
        )
        self.key_slots = self._slots(self.child, self.group_keys)
        # each aggregate's argument slot; None for F(*)
        self.aggregate_slots = tuple(
            None if src is None else self._slots(self.child, (src,))[0]
            for _, _, src in self.aggregates
        )

    def _label(self) -> str:
        return f"GROUP BY {self.group_keys} aggs={self.aggregates}"


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: int

    def __post_init__(self) -> None:
        self.schema = self.child.schema

    def _label(self) -> str:
        return f"LIMIT {self.limit}"


@dataclass
class DistinctNode(PlanNode):
    """Deduplicate on the projected columns (SQL DISTINCT semantics).
    ``keys`` are the output sources."""

    child: PlanNode
    keys: tuple[Source, ...]

    def __post_init__(self) -> None:
        self.schema = self.child.schema
        self.key_slots = self._slots(self.child, self.keys)
