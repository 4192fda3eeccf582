"""The compiled row decoder and the plan-driven decode set.

Three layers of evidence that the needed set (``AccessSpec.needed`` on
a Phoenix access, the attributes a VoltDB leaf or a federation fragment
import carries) only ever narrows what is *materialised*, never what a
statement returns or is charged:

* property tests — ``split_key`` and the compiled decoder agree with
  the byte-loop / dtype-chain implementations they replaced (kept in
  ``tests/reference/storage.py``), on arbitrary bytes and every
  ``DataType``;
* a differential — every plan re-run with all decode sets widened to
  "everything" (``dataclasses.replace`` on the plan tree, or the
  collector patched to answer "all", in the test) returns the same rows
  for the same virtual milliseconds;
* pinned decode and key sets for the shapes that are easy to get wrong.

The write paths' *stored rows* (``CatalogEntry.stored_row`` /
``encode_values``, no decode at all) are held byte-identical here to the
decode / re-encode round trip they replaced, an UPDATE's rewrite
restricted to the cells it sets.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

import repro.federation.mediator as mediator_module
import repro.voltdb.system as voltdb_module
from repro.bench.tpcw_lab import TpcwLab
from repro.hbase.bytes_util import split_key
from repro.hbase.cell import Result
from repro.phoenix.catalog import (
    CF, INDEX, ROW_MARKER_QUALIFIER, TABLE, CatalogEntry,
)
from repro.phoenix.executor import PhoenixConnection
from repro.phoenix.plans import (
    AccessSpec,
    NestedLoopJoinNode,
    PlanNode,
    ScanNode,
    ValuePredicate,
)
from repro.phoenix.writes import rewrite_row
from repro.relational.company import company_schema
from repro.relational.datatypes import DataType
from repro.relational.schema import Index
from repro.sim.clock import Simulation
from repro.sql.ast import Literal
from repro.tpcw.queries import JOIN_QUERIES
from repro.voltdb.system import PartitionScheme, VoltDBSystem
from tests.conftest import (
    build_mediator,
    build_company_conn, build_company_federation, build_company_system,
    build_tpcw_systems, plan_nodes,
)
from tests.reference.generators import ROUTED_QUERIES, ROUTED_SEED, generate_query
from tests.reference.storage import (
    encode_value_reference,
    result_to_row_reference,
    row_to_put_reference,
    split_key_reference,
)


# ------------------------------------------------------------ (a) properties
# chunks that put 0x00, 0xff and the escape pair next to each other and
# next to component boundaries, beside plain arbitrary bytes
_KEY_CHUNKS = st.sampled_from(
    [b"", b"\x00", b"\xff", b"\x00\xff", b"\x00\x00", b"\xff\x00", b"a"]
) | st.binary(max_size=4)


class TestSplitKey:
    @given(st.binary(max_size=64))
    def test_matches_the_byte_loop_on_arbitrary_bytes(self, key):
        assert split_key(key) == split_key_reference(key)

    @given(st.lists(_KEY_CHUNKS, max_size=12).map(b"".join))
    def test_matches_the_byte_loop_around_escapes(self, key):
        assert split_key(key) == split_key_reference(key)

    @pytest.mark.parametrize(
        "key, parts",
        [
            (b"", [b""]),
            (b"\x00", [b"", b""]),
            (b"\x00\x00", [b"", b"", b""]),
            (b"\x00\xff", [b"\x00"]),
            (b"\x00\x00\xff", [b"", b"\x00"]),
            (b"\x00\xff\x00", [b"\x00", b""]),
            (b"\x00\xff\xff", [b"\x00\xff"]),
            (b"a\x00\x00b", [b"a", b"", b"b"]),
        ],
    )
    def test_empty_components_and_escape_adjacency(self, key, parts):
        assert split_key_reference(key) == parts
        assert split_key(key) == parts


ALL_TYPES_ENTRY = CatalogEntry(
    name="AllTypes",
    kind=TABLE,
    key_attrs=("k_int", "k_text", "k_date"),
    attrs=(
        "k_int", "v_int", "k_text", "v_float", "v_text", "k_date", "v_date",
    ),
    dtypes={
        "k_int": DataType.INT,
        "k_text": DataType.VARCHAR,
        "k_date": DataType.DATE,
        "v_int": DataType.INT,
        "v_float": DataType.FLOAT,
        "v_text": DataType.VARCHAR,
        "v_date": DataType.DATE,
    },
)

_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
_FLOATS = st.floats(allow_nan=False)
# NUL characters make the key codec escape; "" is how NULL is stored
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.just("\x00"),
                max_size=8)
_VALUES = {
    DataType.INT: _INT64,
    DataType.DATE: _INT64,
    DataType.FLOAT: _FLOATS,
    DataType.VARCHAR: _TEXT,
}
# A key component whose encoding starts with 0xff reads as an escape
# pair behind the delimiter (in the byte loop as much as now): key
# integers stay below the 2**63 - 2**56 where that begins.
_KEY_INTS = st.integers(-(1 << 62), 1 << 62)
_ROWS = st.fixed_dictionaries(
    {
        attr: st.none() | (
            _KEY_INTS
            if attr in ("k_int", "k_date")
            else _VALUES[dtype]
        )
        for attr, dtype in ALL_TYPES_ENTRY.dtypes.items()
    }
)


def _stored(entry: CatalogEntry, row: dict, absent: frozenset[str]) -> Result:
    """``row`` as the Result a read of its Put returns; the cells of
    ``absent`` were never written."""
    put = entry.stored_put(entry.encode_values(row))
    return Result.from_sorted(put.row, {
        column: [(1, value)]
        for column, value, _ts in put.cells
        if column[1].decode() not in absent
    })


class TestCompiledEncoder:
    @given(_ROWS, st.frozensets(st.sampled_from(ALL_TYPES_ENTRY.attrs)))
    def test_row_to_put_matches_the_put_add_loop(self, row, missing):
        row = {a: v for a, v in row.items() if a not in missing}
        put = ALL_TYPES_ENTRY.stored_put(ALL_TYPES_ENTRY.encode_values(row))
        expected = row_to_put_reference(ALL_TYPES_ENTRY, row)
        assert put.row == expected.row
        assert put.cells == expected.cells
        assert put.timestamp is None

    def test_key_only_entry_still_gets_the_row_marker(self):
        entry = CatalogEntry(
            name="K", kind=TABLE, key_attrs=("a", "b"), attrs=("a", "b"),
            dtypes={"a": DataType.INT, "b": DataType.VARCHAR},
        )
        put = entry.stored_put(entry.encode_values({"a": 1, "b": "x"}))
        assert put.cells == [((CF, ROW_MARKER_QUALIFIER), b"", None)]
        assert put.cells == row_to_put_reference(entry, {"a": 1, "b": "x"}).cells


class TestCompiledDecoder:
    @given(_ROWS, st.frozensets(st.sampled_from(ALL_TYPES_ENTRY.value_attrs)))
    def test_all_attrs_matches_the_per_cell_decode(self, row, absent):
        result = _stored(ALL_TYPES_ENTRY, row, absent)
        expected = result_to_row_reference(ALL_TYPES_ENTRY, result)
        got = ALL_TYPES_ENTRY.result_to_row(result)
        assert got == expected
        assert list(got) == list(expected)  # same attribute order
        for attr in absent:
            assert got[attr] is None

    @given(
        _ROWS,
        st.frozensets(st.sampled_from(ALL_TYPES_ENTRY.attrs + ("not_an_attr",))),
    )
    def test_narrowed_decode_is_the_full_row_restricted(self, row, needed):
        result = _stored(ALL_TYPES_ENTRY, row, frozenset())
        full = result_to_row_reference(ALL_TYPES_ENTRY, result)
        attrs, decode = ALL_TYPES_ENTRY.row_decoder(needed)
        got = decode(result)
        assert attrs == tuple(a for a in full if a in needed)
        assert got == tuple(v for a, v in full.items() if a in needed)

    @pytest.mark.parametrize("dtype", list(DataType))
    def test_null_decodes_to_none_for_every_type(self, dtype):
        entry = CatalogEntry(
            name="T", kind=TABLE, key_attrs=("k",), attrs=("k", "v"),
            dtypes={"k": dtype, "v": dtype},
        )
        result = _stored(entry, {"k": None, "v": None}, frozenset())
        assert result.value(CF, b"v") == b""
        assert entry.result_to_row(result) == {"k": None, "v": None}

    def test_one_decoder_per_decode_set(self):
        entry = ALL_TYPES_ENTRY
        narrow = entry.row_decoder(frozenset({"v_int"}))
        assert entry.row_decoder(frozenset({"v_int"})) is narrow
        assert entry.row_decoder(frozenset({"v_int", "v_str"})) is not narrow
        assert entry.row_decoder() is entry.row_decoder(None)

    def test_key_arity_mismatch_still_rejected(self):
        result = Result.from_sorted(b"only-one-component", {})
        with pytest.raises(ValueError, match="arity"):
            ALL_TYPES_ENTRY.result_to_row(result)


# An update's changes: any attribute (key, indexed or not, or one the
# entry lacks), python values of any kind an encoder takes
_CHANGE_VALUES = {
    **_VALUES,
    DataType.DATE: _INT64 | st.dates(),
}
_CHANGES = st.fixed_dictionaries({}, optional={
    **{
        attr: st.none() | _CHANGE_VALUES[dtype]
        for attr, dtype in ALL_TYPES_ENTRY.dtypes.items()
    },
    "not_an_attr": st.integers(),
})


def _index_on(entry: CatalogEntry, name: str, indexed_on: tuple[str, ...]):
    """A covered index of ``entry`` keyed by ``indexed_on`` + its key."""
    return CatalogEntry(
        name=f"{entry.name}.{name}", kind=INDEX,
        key_attrs=indexed_on + entry.key_attrs, attrs=entry.attrs,
        dtypes=entry.dtypes, base=entry.name, indexed_on=indexed_on,
    )


ALL_TYPES_INDEXES = (
    _index_on(ALL_TYPES_ENTRY, "ix_text", ("v_text",)),
    _index_on(ALL_TYPES_ENTRY, "ix_mixed", ("v_date", "v_float")),
    _index_on(ALL_TYPES_ENTRY, "ix_int", ("v_int",)),
)
KEY_ONLY_ENTRY = CatalogEntry(
    name="K", kind=TABLE, key_attrs=("a", "b"), attrs=("a", "b"),
    dtypes={"a": DataType.INT, "b": DataType.VARCHAR},
)


class _RecordingClient:
    """Stands in for an ``HBaseClient`` (and each of its tables) under
    ``rewrite_row``: records what it is asked to store."""

    def __init__(self) -> None:
        self.ops: list = []

    def table(self, name: str) -> "_RecordingClient":
        return self

    def put(self, op) -> None:
        self.ops.append(("put", op.row, op.cells, op.timestamp))

    def delete(self, op) -> None:
        self.ops.append(("delete", op.row))


class TestStoredRows:
    """An UPDATE's rewrite of each entry is the Put of the old round
    trip ``row_to_put({**result_to_row(r), **ch})`` restricted to the
    cells ``ch`` sets, while the row keeps its key (the whole round-trip
    Put when the entry holds none of them); a row whose key moves is
    deleted and gets the whole round-trip Put. ``stored_key`` is
    ``encode_key``."""

    @staticmethod
    def assert_same_write(entry, indexes, result, changes):
        old = entry.stored_row(result)
        new = {**old, **entry.encode_values(changes)}
        old_decoded = result_to_row_reference(entry, result)
        new_decoded = {**old_decoded, **changes}
        for target in (entry, *indexes):
            old_key = target.stored_key(old)
            assert old_key == target.encode_key(old_decoded)
            assert target.stored_key(new) == target.encode_key(new_decoded)
            expected = row_to_put_reference(target, new_decoded)
            client = _RecordingClient()
            rewrite_row(client, target, old, new, changes)
            if old_key == expected.row:
                cells = [
                    cell for cell in expected.cells
                    if cell[0][1].decode() in changes
                ] or expected.cells
                assert client.ops == [("put", expected.row, cells, None)]
            else:
                assert client.ops == [
                    ("delete", old_key),
                    ("put", expected.row, expected.cells, None),
                ]

    @given(
        _ROWS,
        st.frozensets(st.sampled_from(ALL_TYPES_ENTRY.value_attrs)),
        _CHANGES,
    )
    def test_same_put_as_the_decode_round_trip(self, row, absent, changes):
        result = _stored(ALL_TYPES_ENTRY, row, absent)
        self.assert_same_write(ALL_TYPES_ENTRY, ALL_TYPES_INDEXES, result, changes)

    @given(
        st.none() | _KEY_INTS,
        st.none() | _TEXT,
        st.fixed_dictionaries({}, optional={
            "a": st.none() | _INT64, "b": st.none() | _TEXT,
        }),
    )
    def test_key_only_entry_keeps_its_row_marker(self, a, b, changes):
        result = _stored(KEY_ONLY_ENTRY, {"a": a, "b": b}, frozenset())
        self.assert_same_write(KEY_ONLY_ENTRY, (), result, changes)
        stored = KEY_ONLY_ENTRY.stored_row(result)
        for put in (
            KEY_ONLY_ENTRY.stored_put(stored),
            KEY_ONLY_ENTRY.stored_put(stored, changes),
        ):
            assert put.cells == [((CF, ROW_MARKER_QUALIFIER), b"", None)]

    @pytest.mark.parametrize("text", ["a\x00b", "\x00", "a\x00\x00", ""])
    def test_nul_in_a_varchar_key_component(self, text):
        row = dict.fromkeys(ALL_TYPES_ENTRY.attrs)
        row.update(k_int=4, k_text=text, k_date=-1, v_text=text)
        result = _stored(ALL_TYPES_ENTRY, row, frozenset())
        stored = ALL_TYPES_ENTRY.stored_row(result)
        assert stored["k_text"] == text.encode()
        assert ALL_TYPES_ENTRY.stored_key(stored) == result.row
        self.assert_same_write(
            ALL_TYPES_ENTRY, ALL_TYPES_INDEXES, result, {"v_text": "x\x00"}
        )

    def test_absent_and_null_cells_are_empty_bytes(self):
        row = dict.fromkeys(ALL_TYPES_ENTRY.attrs)
        row.update(k_int=1, k_text="t", k_date=2, v_int=5)
        result = _stored(ALL_TYPES_ENTRY, row, frozenset({"v_float"}))
        stored = ALL_TYPES_ENTRY.stored_row(result)
        assert list(stored) == list(ALL_TYPES_ENTRY.result_to_row(result))
        assert stored["v_float"] == b""  # absent
        assert stored["v_text"] == b""  # NULL
        assert stored["v_int"] is result.value(CF, b"v_int")  # the cell itself

    def test_encode_values_leaves_out_what_the_entry_lacks(self):
        encoded = ALL_TYPES_ENTRY.encode_values(
            {"v_int": "4", "k_text": None, "not_an_attr": 1}
        )
        assert encoded == {"v_int": encode_value_reference(DataType.INT, 4),
                           "k_text": b""}

    def test_key_arity_mismatch_still_rejected(self):
        result = Result.from_sorted(b"only-one-component", {})
        with pytest.raises(ValueError, match="arity"):
            ALL_TYPES_ENTRY.stored_row(result)


# ------------------------------------------------------------ (b) differential
def accesses(root: PlanNode) -> list[AccessSpec]:
    """Every catalog access of a plan tree."""
    found: list[AccessSpec] = []
    for node in plan_nodes(root):
        if isinstance(node, ScanNode):
            found.append(node.access)
        elif isinstance(node, NestedLoopJoinNode):
            found.append(node.inner)
    return found


def widen(node: PlanNode) -> PlanNode:
    """``node`` rebuilt with every decode set forced to ``None`` (decode
    all): each node is rebuilt over its widened inputs, so the schemas
    and slots above a widened leaf follow it."""
    changes = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, PlanNode):
            changes[f.name] = widen(value)
        elif isinstance(value, AccessSpec):
            changes[f.name] = dataclasses.replace(value, needed=None)
    return dataclasses.replace(node, **changes)


def widen_every_plan(conn: PhoenixConnection, monkeypatch) -> None:
    """Make ``conn`` run every statement it plans with all decode sets
    widened (patches the planner instance: no product knob exists)."""
    plan_select = conn.planner.plan_select

    def widened(select):
        planned = plan_select(select)
        return dataclasses.replace(planned, root=widen(planned.root))

    monkeypatch.setattr(conn.planner, "plan_select", widened)


def _company_conn() -> PhoenixConnection:
    # jitter on: the virtual clocks of two connections only stay equal
    # if they make the same charge calls in the same order
    schema = company_schema()
    # no includes: reaching any other Project attribute takes a base lookup
    schema.add_index("Project", Index("idx_proj_dept", ("P_DNo",)))
    return build_company_conn(Simulation(seed=7, jitter_fraction=0.02), schema)


@pytest.mark.parametrize("cost_based", (False, True), ids=("rule", "cost-based"))
def test_random_queries_same_rows_and_ms_with_decode_sets_widened(
    cost_based, monkeypatch
):
    narrow, wide = _company_conn(), _company_conn()
    for conn in (narrow, wide):
        conn.configure_engine(cost_based=cost_based)
    widen_every_plan(wide, monkeypatch)
    rng = random.Random(20170904)
    narrowed = 0
    for i in range(200):
        spec = generate_query(rng)
        planned = narrow.plan(spec.sql)
        narrowed += any(a.needed is not None for a in accesses(planned.root))
        assert all(a.needed is None for a in accesses(wide.plan(spec.sql).root))
        got = narrow.execute_query(spec.sql, spec.params)
        expected = wide.execute_query(spec.sql, spec.params)
        assert got == expected, f"query #{i}: {spec.sql} {spec.params}"
        assert narrow.sim.clock.now_ms == wide.sim.clock.now_ms, (
            f"query #{i} charged differently: {spec.sql}"
        )
    assert narrowed == 200  # the generator never emits a star


@pytest.mark.parametrize("system_name", ["Baseline", "Synergy", "MVCC-UA"])
def test_tpcw_queries_same_rows_and_ms_with_decode_sets_widened(
    system_name, monkeypatch
):
    lab = TpcwLab(num_customers=20, repetitions=1)
    narrow, wide = lab.build_system(system_name), lab.build_system(system_name)
    for system in (narrow, wide):
        lab.populate(system)
    widen_every_plan(wide.conn, monkeypatch)
    for qid in JOIN_QUERIES:
        params = lab.generator.params_for_query(qid, 0)
        got, got_ms = narrow.timed_id(qid, params)
        expected, expected_ms = wide.timed_id(qid, params)
        assert got == expected, f"{system_name}/{qid}"
        assert got_ms == expected_ms, f"{system_name}/{qid}"


# ------------------------------------------------------------ (c) pinned cases
@pytest.fixture(scope="module")
def pinned_conn() -> PhoenixConnection:
    return _company_conn()


def _decode_sets(conn: PhoenixConnection, sql: str) -> dict[str, frozenset | None]:
    return {a.binding: a.needed for a in accesses(conn.plan(sql).root)}


class TestPinnedDecodeSets:
    def test_select_star_decodes_everything(self, pinned_conn):
        sql = "SELECT * FROM Project as p, Department as d WHERE p.P_DNo = d.DNo"
        assert _decode_sets(pinned_conn, sql) == {"p": None, "d": None}
        rows = pinned_conn.execute_query(sql)
        assert len(rows) == 3
        assert set(rows[0]) == {"PNo", "PName", "P_DNo", "DNo", "DName"}

    def test_qualified_star_widens_only_its_binding(self, pinned_conn):
        sql = (
            "SELECT p.*, d.DName FROM Project as p, Department as d "
            "WHERE p.P_DNo = d.DNo"
        )
        assert _decode_sets(pinned_conn, sql) == {
            "p": None, "d": frozenset({"DNo", "DName"}),
        }
        rows = pinned_conn.execute_query(sql)
        assert sorted(r["PName"] for r in rows) == ["proj1", "proj2", "proj3"]
        assert {(r["P_DNo"], r["DName"]) for r in rows} == {
            (1, "Dept1"), (2, "Dept2"),
        }

    def test_non_covered_index_reencodes_the_base_key(self, pinned_conn):
        sql = "SELECT PName FROM Project WHERE P_DNo = ?"
        (access,) = accesses(pinned_conn.plan(sql).root)
        assert access.entry.name == "Project.idx_proj_dept"
        assert access.lookup_entry is not None
        assert access.lookup_entry.name == "Project"
        # PNo — the base key the index row must yield — is in no decode
        # set: the index side decodes whole, only the base row is narrowed
        assert access.needed == frozenset({"PName", "P_DNo"})
        rows = pinned_conn.execute_query(sql, (2,))
        assert sorted(r["PName"] for r in rows) == ["proj1", "proj3"]

    def test_filter_on_a_column_the_index_lacks_runs_on_the_base_row(
        self, pinned_conn
    ):
        # used to die with KeyError('PName') building the server filter
        # for an index that does not store the column
        sql = "SELECT PNo FROM Project WHERE P_DNo = ? and PName <> ?"
        (access,) = accesses(pinned_conn.plan(sql).root)
        assert access.lookup_entry is not None
        assert access.needed == frozenset({"PNo", "P_DNo", "PName"})
        assert pinned_conn.execute_query(sql, (2, "proj1")) == [{"PNo": 3}]

    def test_same_binding_column_filter_keeps_both_sides(self, pinned_conn):
        sql = "SELECT e.EID FROM Employee as e WHERE e.EHome_AID = e.EOffice_AID"
        assert _decode_sets(pinned_conn, sql) == {
            "e": frozenset({"EID", "EHome_AID", "EOffice_AID"}),
        }
        rows = pinned_conn.execute_query(sql)
        assert sorted(r["EID"] for r in rows) == [5, 10]

    def test_residual_on_a_key_attr_is_decoded(self, pinned_conn):
        # WO_PNo is a key attr without its leading WO_EID bound: the
        # filter runs client-side on the decoded row, which projects Hours
        sql = "SELECT w.Hours FROM Works_On as w WHERE w.WO_PNo > ?"
        (access,) = accesses(pinned_conn.plan(sql).root)
        assert [p.attr for p in access.residuals] == ["WO_PNo"]
        assert access.needed == frozenset({"Hours", "WO_PNo"})
        rows = pinned_conn.execute_query(sql, (2,))
        assert [r["Hours"] for r in rows] == [30] * 5
        # against a NULL constant the client-side test keeps no row
        assert pinned_conn.execute_query(sql, (None,)) == []

    def test_a_hand_built_access_always_decodes_its_residuals(self, pinned_conn):
        entry = pinned_conn.catalog.table_for_relation("Works_On")
        access = AccessSpec(
            entry=entry,
            binding="w",
            residuals=(ValuePredicate("w", "WO_PNo", "=", Literal(3)),),
            needed=frozenset({"Hours"}),
        )
        assert access.needed == frozenset({"Hours", "WO_PNo"})
        assert dataclasses.replace(access, needed=None).needed is None


# ------------------------------------------------------------ (d) the other leaves
# A VoltDB procedure leaf and a federation fragment import are
# ``SourceNode``s whose schema is the composer's needed set. Widening the
# set means patching the one collector, on the composers that feed
# those two leaves only: a Phoenix backend's planner is left alone,
# because there the set also picks the access path (and so the charges).
def widen_collector(monkeypatch, composer) -> None:
    """Make ``composer.needed_attrs`` answer "all" for every binding."""
    monkeypatch.setattr(
        composer, "needed_attrs", lambda analyzed: dict.fromkeys(analyzed.bindings)
    )


def on_leaf_rows(monkeypatch, module, seen) -> None:
    """Call ``seen(schema, rows)`` with the rows each ``SourceNode``
    leaf ``module`` builds fetches."""
    real = module.SourceNode

    def leaf(fetch, label, schema):
        def fetched():
            rows = fetch()
            seen(schema, rows)
            return rows

        return real(fetched, label, schema)

    monkeypatch.setattr(module, "SourceNode", leaf)


def count_cells(monkeypatch, module) -> list[int]:
    """Count the cells ``module``'s leaves fetch (one counter for every
    system the test runs)."""
    cells = [0]

    def counted(schema, rows):
        assert all(len(row) == len(schema) for row in rows)
        cells[0] += sum(map(len, rows))

    on_leaf_rows(monkeypatch, module, counted)
    return cells


def record_keys(monkeypatch, module) -> dict[str, list]:
    """The keys of the first row ``module``'s leaves fetch, read through
    the leaf's schema, per binding."""
    seen: dict[str, list] = {}

    def recorded(schema, rows):
        if rows and schema:
            seen.setdefault(schema[0][0], list(dict(zip(schema, rows[0]))))

    on_leaf_rows(monkeypatch, module, recorded)
    return seen


def _all_replicated_voltdb(lab: TpcwLab) -> VoltDBSystem:
    system = VoltDBSystem(
        lab.schema,
        lab.workload,
        sim=Simulation(seed=lab.seed, jitter_fraction=0.02),
        schemes=(PartitionScheme("all-replicated", {}),),
    )
    lab.populate(system)
    return system


def test_voltdb_tpcw_queries_same_rows_and_ms_with_leaves_widened(monkeypatch):
    lab = TpcwLab(num_customers=20, repetitions=1)
    narrow, wide = _all_replicated_voltdb(lab), _all_replicated_voltdb(lab)
    widen_collector(monkeypatch, wide._composer)
    cells = count_cells(monkeypatch, voltdb_module)
    narrow_cells = wide_cells = 0
    for qid in JOIN_QUERIES:
        params = lab.generator.params_for_query(qid, 0)
        before = cells[0]
        got, got_ms = narrow.timed_id(qid, params)
        narrow_cells += cells[0] - before
        before = cells[0]
        expected, expected_ms = wide.timed_id(qid, params)
        wide_cells += cells[0] - before
        assert got == expected, qid
        assert repr(got_ms) == repr(expected_ms), qid
    assert narrow_cells < wide_cells


def test_voltdb_random_queries_same_rows_and_ms_with_leaves_widened(monkeypatch):
    narrow, wide = (
        build_company_system("VoltDB", Simulation(seed=7, jitter_fraction=0.02))
        for _ in range(2)
    )
    widen_collector(monkeypatch, wide._composer)
    rng = random.Random(20170904)
    for i in range(200):
        spec = generate_query(rng)
        got, got_ms = narrow.timed(spec.sql, spec.params)
        expected, expected_ms = wide.timed(spec.sql, spec.params)
        assert got == expected, f"query #{i}: {spec.sql} {spec.params}"
        assert repr(got_ms) == repr(expected_ms), f"query #{i}: {spec.sql}"


@pytest.mark.parametrize("mode", ("split", "auto"))
def test_routed_random_queries_same_rows_and_ms_with_imports_widened(
    mode, monkeypatch
):
    narrow, wide = (
        build_company_federation(mode) for _ in range(2)
    )
    widen_collector(monkeypatch, wide._composer)
    widen_collector(monkeypatch, wide.backends["voltdb"]._composer)
    cells = count_cells(monkeypatch, mediator_module)
    narrow_cells = wide_cells = 0
    rng = random.Random(ROUTED_SEED)
    for i in range(ROUTED_QUERIES):
        spec = generate_query(rng)
        before = cells[0]
        got, got_ms = narrow.timed(spec.sql, spec.params)
        narrow_cells += cells[0] - before
        before = cells[0]
        expected, expected_ms = wide.timed(spec.sql, spec.params)
        wide_cells += cells[0] - before
        assert got == expected, f"query #{i}: {spec.sql} {spec.params}"
        assert repr(got_ms) == repr(expected_ms), f"query #{i}: {spec.sql}"
    assert [r.mode for r in narrow.route_log] == [r.mode for r in wide.route_log]
    assert any(r.mode == "split" for r in narrow.route_log)
    assert narrow_cells < wide_cells


class TestPinnedKeySets:
    def test_voltdb_q11_self_join_leaf_carries_what_the_statement_reads(
        self, monkeypatch
    ):
        lab = TpcwLab(num_customers=10, repetitions=1)
        system = _all_replicated_voltdb(lab)
        seen = record_keys(monkeypatch, voltdb_module)
        system.timed_id("Q11", lab.generator.params_for_query("Q11", 0))
        # ol2.ol_i_id / ol_qty are projected and aggregated, ol_o_id and
        # ol_i_id join: Order_line order, nothing else of its row
        assert seen["ol2"] == [
            ("ol2", "ol_o_id"), ("ol2", "ol_i_id"), ("ol2", "ol_qty"),
        ]
        # the derived table carries every column its procedure returns
        assert seen["tmp"] == [("tmp", "o_id")]

    def test_split_q10_fragment_import_carries_what_the_merge_reads(
        self, monkeypatch
    ):
        lab = TpcwLab(num_customers=10, repetitions=1)
        backends = build_tpcw_systems(lab, ("Baseline", "VoltDB"))
        mediator = build_mediator(
            backends, lab.schema, lab.workload, seed=lab.seed, mode="split"
        )
        seen = record_keys(monkeypatch, mediator_module)
        texts = []
        run_on_backend = mediator._run_on_backend

        def recorded(name, sql, params, advisor_key):
            texts.append(sql)
            return run_on_backend(name, sql, params, advisor_key)

        monkeypatch.setattr(mediator, "_run_on_backend", recorded)
        mediator.execute("Q10", lab.generator.params_for_query("Q10", 0))
        assert mediator.route_log[-1].mode == "split"
        assert seen["ol"] == [("ol", "ol_o_id"), ("ol", "ol_i_id"), ("ol", "ol_qty")]
        # narrowed on import only: on the wire the fragment is the whole row
        assert "SELECT * FROM Order_line as ol" in texts
