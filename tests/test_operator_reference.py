"""``StreamingSort`` and ``HashGroupBy`` against the interpreters they
replaced.

The operators resolve their columns once, to the slots of their plan
node's schema: a sort is one stable ``list.sort`` pass per key on
``(value is not None, value)``, a group-by folds each row through a
compiled key getter and one update per aggregate. The reference is the
retired body — a sort key of ``_OrderKey`` wrappers compared in Python,
a group-by that looks every ``(binding, attr)`` source up per row and
keeps ``[count, sum, min, max]`` for every aggregate. The hypothesis
rows are dicts; they enter the plan as tuples through one leaf schema,
and each output tuple leaves as ``dict(zip(node.schema, row))``, so the
dict-based reference compares unchanged. Random rows with NULLs, ties,
mixed int/float and strings, 1-3 sort keys in mixed ASC/DESC and 0-2
group keys must give the same output order (ties in input order), the
same groups in the same first-seen order with the same
representatives, and the same aggregate values, to the ``repr``. The
reference lives in ``tests.reference.sql``, where the relational model
is built on it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.phoenix.operators import compile_plan
from repro.phoenix.plans import (
    ExecutionContext,
    GroupByNode,
    PlanNode,
    SortNode,
    SourceNode,
)
from tests.reference.sql import reference_group_by, reference_sort

# --------------------------------------------------------------- harness


class _Host:
    def __init__(self):
        self.work = []

    def operator_work(self, kind, rows):
        self.work.append((kind, rows))


def leaf(rows) -> SourceNode:
    """The dict ``rows`` as a leaf of :data:`SCHEMA` tuples."""
    return SourceNode(
        lambda: [tuple(row[source] for source in SCHEMA) for row in rows],
        "rows",
        SCHEMA,
    )


def run(node: PlanNode):
    """All output rows of ``node``, each as a dict of its schema, plus
    the work it reported."""
    host = _Host()
    op = compile_plan(node)
    op.open(ExecutionContext(host, ()))
    out = []
    while (batch := op.next_batch()) is not None:
        out.extend(dict(zip(node.schema, row)) for row in batch)
    op.close()
    return out, host.work


# Column strategies: every column is comparable with itself. "n" mixes
# ints and floats (1 == 1.0 ties; 0.0 == -0.0), "s" is text, "k" is a
# small-int key with many ties; each has NULLs.
NUMBERS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5]),
)
COLUMNS = {
    "n": NUMBERS,
    "s": st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "B"])),
    "k": st.one_of(st.none(), st.integers(0, 2)),
}
SCHEMA = (("t", "id"), *(("t", attr) for attr in COLUMNS))


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 40))
    rows = []
    for i in range(n_rows):
        row = {("t", "id"): i}
        for attr, values in COLUMNS.items():
            row[("t", attr)] = draw(values)
        rows.append(row)
    return rows


SORT_KEYS = st.lists(
    st.tuples(st.sampled_from(sorted(COLUMNS)), st.booleans()),
    min_size=1,
    max_size=3,
).map(lambda keys: tuple((("t", a), desc) for a, desc in keys))

GROUP_KEYS = st.lists(st.sampled_from(sorted(COLUMNS)), max_size=2).map(
    lambda attrs: tuple(("t", a) for a in attrs)
)

AGGREGATES = st.lists(
    st.sampled_from([
        ("COUNT(*)", "COUNT", None),
        ("COUNT(n)", "COUNT", ("t", "n")),
        ("COUNT(k)", "COUNT", ("t", "k")),
        ("SUM(n)", "SUM", ("t", "n")),
        ("AVG(n)", "AVG", ("t", "n")),
        ("MIN(n)", "MIN", ("t", "n")),
        ("MAX(k)", "MAX", ("t", "k")),
    ]),
    min_size=1,
    max_size=4,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(rows=tables(), keys=SORT_KEYS)
def test_sort_equals_order_key_reference(rows, keys):
    got, work = run(SortNode(leaf(rows), keys))
    expected = reference_sort(rows, keys)
    # identity order: ties must keep their input order, not just compare equal
    assert [r[("t", "id")] for r in got] == [r[("t", "id")] for r in expected]
    assert work == [("sort", len(rows))]


@settings(max_examples=300, deadline=None)
@given(rows=tables(), group_keys=GROUP_KEYS, aggregates=AGGREGATES)
def test_group_by_equals_lookup_reference(rows, group_keys, aggregates):
    got, work = run(GroupByNode(leaf(rows), group_keys, aggregates))
    expected = reference_group_by(rows, group_keys, aggregates)
    # repr: first-seen representatives (1 vs 1.0, 0.0 vs -0.0) and
    # float sums must be the same objects' values, in the same order
    assert repr(got) == repr(expected)
    assert work == [("groupby", len(rows))]


@settings(max_examples=200, deadline=None)
@given(
    rows=tables(),
    group_keys=GROUP_KEYS,
    desc=st.booleans(),
    then=st.booleans(),
)
def test_order_by_aggregate_equals_reference(rows, group_keys, desc, then):
    """``ORDER BY SUM(n) [DESC][, first group key]`` over the grouped
    rows, the aggregate named ``("", "SUM(n)")`` as the analyzer names
    it."""
    aggregates = (("SUM(n)", "SUM", ("t", "n")), ("COUNT(*)", "COUNT", None))
    tail = ((group_keys[0], False),) if then and group_keys else ()
    keys = ((("", "SUM(n)"), desc), *tail)
    got, _ = run(SortNode(GroupByNode(leaf(rows), group_keys, aggregates), keys))
    grouped = reference_group_by(rows, group_keys, aggregates)
    expected = reference_sort(grouped, keys)
    assert repr(got) == repr(expected)
