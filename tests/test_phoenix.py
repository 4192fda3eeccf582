"""Phoenix layer: catalog, baseline transformation, planner, executor,
write path with index maintenance."""

import pytest

from repro.errors import SchemaError, SqlSyntaxError, UnsupportedStatementError
from repro.phoenix import writes
from repro.phoenix.catalog import INDEX, TABLE, VIEW
from repro.phoenix.ddl import create_baseline_schema, create_view_entry
from repro.phoenix.plans import (
    ExecutionContext, HashJoinNode, NestedLoopJoinNode, ScanNode,
)
from repro.relational.company import company_schema
from repro.voltdb import system as voltdb_system
from tests.conftest import build_company_system, execute_write, plan_nodes
from tests.reference.storage import decode_key


class TestCatalog:
    def test_baseline_transformation_creates_all_tables(self, client):
        catalog = create_baseline_schema(client, company_schema())
        # 7 relations + 3 indexes
        kinds = [entry.kind for entry in catalog.entries()]
        assert (kinds.count(TABLE), kinds.count(INDEX)) == (7, 3)
        for entry in catalog.entries():
            assert client.has_table(entry.name)

    def test_index_key_is_xtuple_plus_pk(self, client):
        catalog = create_baseline_schema(client, company_schema())
        idx = catalog.entry("Employee.idx_emp_home")
        assert idx.key_attrs == ("EHome_AID", "EID")
        assert idx.indexed_on == ("EHome_AID",)

    def test_row_key_roundtrip(self, client):
        catalog = create_baseline_schema(client, company_schema())
        wo = catalog.table_for_relation("Works_On")
        row = {"WO_EID": 3, "WO_PNo": 9, "Hours": 40}
        key = wo.encode_key(row)
        assert decode_key([wo.dtypes[a] for a in wo.key_attrs], key) == (3, 9)

    def test_missing_key_attr_encodes_null(self, client):
        """Index keys may carry NULL components (Phoenix semantics);
        statement-level validation guards base-table writes instead."""
        catalog = create_baseline_schema(client, company_schema())
        emp = catalog.table_for_relation("Employee")
        key = emp.encode_key({"EName": "x"})
        assert decode_key([emp.dtypes["EID"]], key) == (None,)

    def test_view_entry_key_is_last_relations_pk(self, client):
        catalog = create_baseline_schema(client, company_schema())
        entry = create_view_entry(
            client, catalog, "MV_Address__Employee", ("Address", "Employee")
        )
        assert entry.kind == VIEW
        assert entry.key_attrs == ("EID",)
        assert "Street" in entry.attrs and "EName" in entry.attrs

    def test_view_projection_must_include_key(self, client):
        catalog = create_baseline_schema(client, company_schema())
        with pytest.raises(SchemaError):
            create_view_entry(
                client, catalog, "BAD", ("Address", "Employee"),
                attributes=("Street", "EName"),
            )

    def test_resolve_from_name(self, client):
        catalog = create_baseline_schema(client, company_schema())
        assert catalog.resolve_from_name("Employee").kind == TABLE
        create_view_entry(client, catalog, "V1", ("Address", "Employee"))
        assert catalog.resolve_from_name("V1").kind == VIEW
        with pytest.raises(SchemaError):
            catalog.resolve_from_name("nope")


class TestPlanner:
    def test_point_get_for_full_key(self, company_conn):
        plan = company_conn.plan("SELECT * FROM Employee WHERE EID = ?")
        assert isinstance(plan.root, ScanNode)
        assert plan.root.access.is_point()

    def test_prefix_scan_for_key_prefix(self, company_conn):
        plan = company_conn.plan("SELECT * FROM Works_On WHERE WO_EID = ?")
        assert isinstance(plan.root, ScanNode)
        assert plan.root.access.prefix_attrs == ("WO_EID",)
        assert not plan.root.access.is_point()

    def test_covered_index_chosen_for_filter(self, company_conn):
        plan = company_conn.plan("SELECT * FROM Works_On WHERE Hours = ?")
        assert plan.root.access.entry.name == "Works_On.idx_wo_hours"
        assert plan.root.access.lookup_entry is None

    def test_full_scan_fallback(self, company_conn):
        plan = company_conn.plan("SELECT * FROM Address WHERE City = ?")
        assert plan.root.access.prefix_attrs == ()
        assert plan.root.access.entry.name == "Address"

    def test_nested_loop_join_on_keyed_inner(self, company_conn):
        plan = company_conn.plan(
            "SELECT * FROM Employee as e, Address as a "
            "WHERE a.AID = e.EHome_AID and e.EID = ?"
        )
        node = plan.root
        assert isinstance(node, NestedLoopJoinNode)
        assert node.inner.entry.name == "Address"

    def test_hash_join_for_derived_table(self, company_conn):
        plan = company_conn.plan(
            "SELECT * FROM Employee as e, "
            "(SELECT DNo FROM Department) as d WHERE e.E_DNo = d.DNo"
        )
        assert any(
            isinstance(n, HashJoinNode)
            for n in plan_nodes(plan.root)
        )

    def test_compile_plan_maps_nodes_and_operators_one_to_one(self, company_conn):
        """Every plan node lowers to its own operator, and no exported
        operator class exists that no plan node lowers to — an operator
        nothing constructs cannot come back unnoticed. The planners'
        hash join and the federation merge's symmetric join are two
        nodes with one lowering each, not one node with a flag."""
        from repro.phoenix import operators, plans

        plan = company_conn.plan(
            "SELECT DISTINCT e.E_DNo, COUNT(*) FROM Employee as e, "
            "Address as a, (SELECT DNo FROM Department) as d "
            "WHERE a.AID = e.EHome_AID and e.E_DNo = d.DNo and e.EID = ? "
            "and e.EHome_AID <> e.EOffice_AID "
            "GROUP BY e.E_DNo ORDER BY e.E_DNo LIMIT 3"
        )
        rows = plans.SourceNode(list, "rows", ())
        nodes = [*plan_nodes(plan.root), plans.SymmetricJoinNode(rows, rows, (), ())]
        lowered = {
            type(n): type(operators.compile_plan(n))
            for node in nodes
            for n in plan_nodes(node)
        }
        assert lowered[plans.HashJoinNode] is operators.BroadcastHashJoin
        assert lowered[plans.SymmetricJoinNode] is operators.SymmetricHashJoin

        def subclasses(namespace, base, names):
            found = (getattr(namespace, name) for name in names)
            return {
                c for c in found
                if isinstance(c, type) and issubclass(c, base) and c is not base
            }

        assert set(lowered) == subclasses(plans, plans.PlanNode, vars(plans))
        assert set(lowered.values()) == subclasses(
            operators, operators.PhysicalOperator, operators.__all__
        )
        assert len(set(lowered.values())) == len(lowered)

    def test_operators_touch_their_host_only_through_the_work_report(self):
        """Operators know no prices: all they ask of ``ctx.conn`` is
        ``operator_work(kind, rows)``, so a host that is not a Phoenix
        connection (the federation merge, a VoltDB procedure) runs them
        unchanged, and Phoenix's two operator prices live in one module."""
        import inspect
        import pathlib
        import re

        from repro.phoenix import operators, stats

        source = inspect.getsource(operators)
        assert set(re.findall(r"\bconn\.(\w+)", source)) == {"operator_work"}
        assert not re.search(r"\.(sim|charge|client)\b", source)
        repro = pathlib.Path(stats.__file__).parents[1]
        priced = [
            path.relative_to(repro).as_posix()
            for package in ("phoenix", "federation", "voltdb")
            for path in sorted((repro / package).glob("*.py"))
            if re.search(r"\b0\.0005\b|\b150\b", path.read_text())
        ]
        assert priced == ["phoenix/stats.py"]

    def test_explain_is_readable(self, company_conn):
        text = company_conn.plan(
            "SELECT * FROM Employee WHERE EID = ?"
        ).explain()
        assert "POINT GET Employee" in text


class TestExecutor:
    def test_point_query(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT EName FROM Employee WHERE EID = ?", (3,)
        )
        assert rows == [{"EName": "emp3"}]

    @pytest.mark.parametrize("cost_based", (False, True), ids=("rule", "cost-based"))
    def test_same_binding_column_comparison_filters(self, company_conn, cost_based):
        """Two attributes of ONE binding compared with each other used
        to be dropped silently on a base binding (10 rows, not 2) and to
        die in ``ctx.eval`` on a derived one. The second statement is an
        equality filter on a key the JOIN also binds — it must survive
        the nested-loop prefix."""
        company_conn.configure_engine(cost_based=cost_based)
        for sql, params, expected in (
            ("SELECT e.EID FROM Employee as e "
             "WHERE e.EHome_AID = e.EOffice_AID", (), [5, 10]),
            ("SELECT d.EID FROM (SELECT e.EID, e.EHome_AID, e.EOffice_AID "
             "FROM Employee as e) as d WHERE d.EHome_AID = d.EOffice_AID",
             (), [5, 10]),
            ("SELECT e.EID FROM Employee as e, Works_On as w "
             "WHERE e.EID = w.WO_EID and e.EID = ? and w.WO_EID = ?",
             (1, 2), []),
        ):
            rows = company_conn.execute_query(sql, params)
            assert sorted(r["EID"] for r in rows) == expected, sql

    def test_two_way_join(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT * FROM Employee as e, Address as a "
            "WHERE a.AID = e.EHome_AID and e.EID = ?", (3,)
        )
        assert len(rows) == 1
        assert rows[0]["AID"] == rows[0]["EHome_AID"]

    def test_three_way_join(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT * FROM Department as d, Employee as e, Works_On as wo "
            "WHERE d.DNo = e.E_DNo and e.EID = wo.WO_EID and d.DNo = ?", (1,)
        )
        assert rows and all(r["DNo"] == 1 for r in rows)
        assert all(r["EID"] == r["WO_EID"] for r in rows)

    def test_order_by_and_limit(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT EID FROM Employee ORDER BY EID DESC LIMIT 3"
        )
        assert [r["EID"] for r in rows] == [10, 9, 8]

    def test_group_by_aggregates(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT E_DNo, COUNT(*), MIN(EID), MAX(EID) FROM Employee "
            "GROUP BY E_DNo ORDER BY E_DNo"
        )
        assert [r["E_DNo"] for r in rows] == [1, 2]
        assert all(r["COUNT(*)"] == 5 for r in rows)

    def test_sum_and_avg(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT WO_PNo, SUM(Hours), AVG(Hours) FROM Works_On "
            "GROUP BY WO_PNo ORDER BY WO_PNo"
        )
        for r in rows:
            assert r["AVG(Hours)"] == pytest.approx(r["SUM(Hours)"] / 5)

    def test_distinct(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT DISTINCT E_DNo FROM Employee ORDER BY E_DNo"
        )
        assert [r["E_DNo"] for r in rows] == [1, 2]

    def test_self_join(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT * FROM Employee as a, Employee as b "
            "WHERE a.EID = ? and b.EID = ?", (1, 2)
        )
        assert len(rows) == 1
        names = {v for k, v in rows[0].items() if "EName" in k}
        assert names == {"emp1", "emp2"}

    def test_derived_table_join(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT e.EName FROM Employee as e, "
            "(SELECT DNo FROM Department WHERE DName = ?) as d "
            "WHERE e.E_DNo = d.DNo", ("Dept1",)
        )
        assert len(rows) == 5

    def test_theta_residual_filter(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT * FROM Employee as e, Works_On as wo "
            "WHERE e.EID = wo.WO_EID and wo.Hours > ? and e.EID = ?", (15, 2)
        )
        assert all(r["Hours"] > 15 for r in rows)

    def test_comparison_with_null_is_false(self, company_conn):
        execute_write(
            company_conn, "INSERT INTO Address (AID, Street) VALUES (?, ?)", (99, None)
        )
        rows = company_conn.execute_query(
            "SELECT * FROM Address WHERE Street = ? and AID = ?", (None, 99)
        )
        assert rows == []

    def test_range_predicates_on_encoded_values(self, company_conn):
        rows = company_conn.execute_query(
            "SELECT * FROM Works_On WHERE Hours >= ? and Hours <= ?", (20, 30)
        )
        assert rows and all(20 <= r["Hours"] <= 30 for r in rows)


class TestWritePath:
    def test_insert_visible_via_index(self, company_conn):
        execute_write(
            company_conn, "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
            (9, 1, 77),
        )
        rows = company_conn.execute_query(
            "SELECT * FROM Works_On WHERE Hours = ?", (77,)
        )
        assert len(rows) == 1

    def test_update_maintains_index(self, company_conn):
        execute_write(
            company_conn, "UPDATE Works_On SET Hours = ? WHERE WO_EID = ? and WO_PNo = ?",
            (99, 2, 2),
        )
        assert company_conn.execute_query(
            "SELECT * FROM Works_On WHERE Hours = ?", (99,)
        )
        # the stale index entry must be gone
        stale = company_conn.execute_query(
            "SELECT * FROM Works_On WHERE Hours = ? and WO_EID = ?", (20, 2)
        )
        assert stale == []

    def test_delete_removes_index_entries(self, company_conn):
        execute_write(
            company_conn, "DELETE FROM Works_On WHERE WO_EID = ? and WO_PNo = ?", (2, 2)
        )
        rows = company_conn.execute_query(
            "SELECT * FROM Works_On WHERE Hours = ? and WO_EID = ?", (20, 2)
        )
        assert rows == []

    def test_multi_row_write_rejected(self, company_conn):
        with pytest.raises(UnsupportedStatementError):
            execute_write(
                company_conn, "DELETE FROM Works_On WHERE WO_EID = ?", (2,)
            )
        with pytest.raises(UnsupportedStatementError):
            execute_write(
                company_conn, "UPDATE Employee SET EName = ? WHERE E_DNo = ?", ("x", 1)
            )

    def test_key_update_rejected(self, company_conn):
        with pytest.raises(UnsupportedStatementError):
            execute_write(
                company_conn, "UPDATE Employee SET EID = ? WHERE EID = ?", (100, 1)
            )

    def test_update_missing_row_returns_zero(self, company_conn):
        n = execute_write(
            company_conn, "UPDATE Employee SET EName = ? WHERE EID = ?", ("x", 12345)
        )
        assert n == 0

    def test_nl_join_issues_one_probe_per_outer_row(self, company_conn):
        sim = company_conn.sim
        before = sim.metrics.counters().get("client.rpc", 0)
        company_conn.execute_query(
            "SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID"
        )
        rpcs = sim.metrics.counters()["client.rpc"] - before
        # full scan of Employee (1 open + 1 batch) + 10 point gets
        assert rpcs >= 12


NOT_CONSTANT = {
    # the parser admits only a literal or ? as a SET or INSERT value, and
    # a column, literal or ? as a compared value
    "UPDATE Employee SET EName = EID WHERE EID = ?": ((1,), SqlSyntaxError),
    "INSERT INTO Employee (EID, EName) VALUES (?, EID)": ((99,), SqlSyntaxError),
    "SELECT EName FROM Employee WHERE EID = COUNT(*)": ((), SqlSyntaxError),
    # a write's WHERE is key equalities on constants
    "UPDATE Employee SET EName = ? WHERE EID = E_DNo": (("x",), UnsupportedStatementError),
    "DELETE FROM Employee WHERE EID = E_DNo": ((), UnsupportedStatementError),
}


class TestConstantsOnly:
    @pytest.mark.parametrize(
        "name", ("Baseline", "Synergy", "MVCC-A", "MVCC-UA", "VoltDB")
    )
    def test_a_value_that_is_not_a_constant_is_refused_before_evaluation(
        self, name, monkeypatch
    ):
        """``ExecutionContext.eval`` and ``eval_const`` take only a
        literal or a ``?``: what else a statement puts there is refused
        upstream, so neither function ever sees it."""
        system = build_company_system(name)

        def unreachable(*args):
            raise AssertionError(f"evaluated {args!r}")

        monkeypatch.setattr(writes, "eval_const", unreachable)
        monkeypatch.setattr(voltdb_system, "eval_const", unreachable)
        monkeypatch.setattr(ExecutionContext, "eval", unreachable)
        for sql, (params, refusal) in NOT_CONSTANT.items():
            with pytest.raises(refusal):
                system.execute(sql, params)


class TestSubqueryUnderJoin:
    """SubqueryNode feeding the OUTER side of a join — derived rows
    (keyed ``(alias, out_name)``) must drive later joins exactly like
    base-table rows, under either planner. Expected row counts are
    derived by hand from the deterministic company data."""

    def _both_planners(self, conn, sql, params=()):
        out = []
        try:
            for cost_based in (False, True):
                conn.configure_engine(cost_based=cost_based)
                rows = conn.execute_query(sql, params)
                out.append(sorted(tuple(sorted(r.items())) for r in rows))
        finally:
            conn.configure_engine(cost_based=False)
        assert out[0] == out[1]
        return out[0]

    def test_derived_feeds_nl_join_outer_keys(self, company_conn):
        """The derived binding's EID (a ``(d, EID)`` outer key merged
        through a hash join) probes the Works_On NL join."""
        sql = (
            "SELECT * FROM Works_On as wo, "
            "(SELECT EID FROM Employee WHERE E_DNo = ?) as d, Address as a "
            "WHERE wo.WO_EID = d.EID and a.AID = d.EID"
        )
        text = company_conn.plan(sql).root.describe()
        assert "NL JOIN -> Works_On" in text and "DERIVED TABLE as d" in text
        rows = self._both_planners(company_conn, sql, (1,))
        # dept 1 = even EIDs {2,4,6,8,10}; AID<=5 keeps {2,4}; each even
        # employee has exactly one Works_On row (pno=2)
        assert len(rows) == 2
        assert sorted(dict(r)["EID"] for r in rows) == [2, 4]

    def test_join_of_two_derived_tables(self, company_conn):
        sql = (
            "SELECT * FROM (SELECT EID, E_DNo FROM Employee) as d1, "
            "(SELECT DNo, DName FROM Department) as d2 "
            "WHERE d1.E_DNo = d2.DNo"
        )
        rows = self._both_planners(company_conn, sql)
        assert len(rows) == 10  # every employee matches its department

    def test_aggregate_derived_table_on_build_side(self, company_conn):
        sql = (
            "SELECT * FROM "
            "(SELECT WO_EID, SUM(Hours) FROM Works_On GROUP BY WO_EID) as t, "
            "Employee as e WHERE t.WO_EID = e.EID"
        )
        rows = self._both_planners(company_conn, sql)
        assert len(rows) == 10  # every employee works on something
        by_eid = {dict(r)["EID"]: dict(r)["SUM(Hours)"] for r in rows}
        # odd EIDs work pno 1 and 3 (10+30), even EIDs only pno 2 (20)
        assert by_eid[1] == 40 and by_eid[2] == 20

    def test_derived_as_sole_outer_of_hash_join(self, company_conn):
        sql = (
            "SELECT * FROM "
            "(SELECT EID FROM Employee WHERE E_DNo = ?) as d, Works_On as wo "
            "WHERE d.EID = wo.WO_EID"
        )
        rows = self._both_planners(company_conn, sql, (2,))
        assert len(rows) == 10  # 5 odd employees x 2 Works_On rows each
