"""Views selection + query rewriting (paper Sec. VI), including the
exact R1..R6 example of Fig. 6."""


from repro.relational.company import COMPANY_ROOTS, company_schema, company_workload
from repro.relational.datatypes import DataType
from repro.relational.schema import ForeignKey, Relation, Schema
from repro.relational.workload import Workload
from repro.sql.parser import parse_statement
from repro.synergy.graph import build_schema_graph
from repro.synergy.heuristics import JoinOverlapHeuristic
from repro.synergy.rewrite import rewrite_query
from repro.synergy.selection import select_views, select_views_for_query
from repro.synergy.trees import generate_rooted_trees
from repro.synergy.view_indexes import (
    ViewIndexPlan,
    recommend_maintenance_indexes,
    recommend_read_indexes,
)


def fig6_schema() -> Schema:
    """R1 -> R2 -> R3 -> R4 and R2 -> R5 -> R6 (paper Fig. 6(a))."""
    def rel(n, parent=None):
        attrs = [(f"pk{n}", DataType.INT)]
        fks = []
        if parent is not None:
            attrs.append((f"fk{n}", DataType.INT))
            fks = [ForeignKey(f"f{n}", (f"fk{n}",), f"R{parent}")]
        return Relation(f"R{n}", attrs, primary_key=[f"pk{n}"], foreign_keys=fks)

    return Schema([
        rel(1), rel(2, 1), rel(3, 2), rel(4, 3), rel(5, 2), rel(6, 5),
    ])


FIG6_QUERY = (
    "SELECT * FROM R2 as r2, R3 as r3, R4 as r4, R5 as r5, R6 as r6 "
    "WHERE r2.pk2 = r3.fk3 and r3.pk3 = r4.fk4 "
    "and r2.pk2 = r5.fk5 and r5.pk5 = r6.fk6"
)


class TestFig6Example:
    def setup_method(self):
        self.schema = fig6_schema()
        self.workload = Workload([FIG6_QUERY])
        self.heuristic = JoinOverlapHeuristic(self.schema, self.workload)
        graph = build_schema_graph(self.schema)
        self.trees, _ = generate_rooted_trees(graph, ("R1",), self.heuristic)

    def test_tree_shape(self):
        tree = self.trees["R1"]
        assert tree.children_of("R1") == ("R2",)
        assert set(tree.children_of("R2")) == {"R3", "R5"}

    def test_selected_views_match_paper(self):
        """Fig. 6(c): the algorithm selects R2-R3-R4 and R5-R6."""
        views = select_views_for_query(
            parse_statement(FIG6_QUERY), self.schema, self.trees, self.heuristic
        )
        assert {v.display_name for v in views} == {"R2-R3-R4", "R5-R6"}

    def test_rewrite_matches_paper(self):
        """Fig. 6(d): FROM R2-R3-R4, R5-R6 WHERE pk2 = fk5."""
        views = select_views_for_query(
            parse_statement(FIG6_QUERY), self.schema, self.trees, self.heuristic
        )
        ordered = sorted(views, key=lambda v: v.display_name)
        result = rewrite_query(parse_statement(FIG6_QUERY), self.schema, ordered)
        sql = str(result.select)
        assert "MV_R2__R3__R4" in sql and "MV_R5__R6" in sql
        # exactly one join condition remains: pk2 = fk5
        assert len(result.select.where) == 1
        cond = result.select.where[0]
        assert {cond.left.name, cond.right.name} == {"pk2", "fk5"}

    def test_unmarking_prevents_overlap(self):
        """After R2-R3-R4 is taken, R2's outgoing edge to R5 is unmarked,
        so the second view starts at R5 — not at R2."""
        views = select_views_for_query(
            parse_statement(FIG6_QUERY), self.schema, self.trees, self.heuristic
        )
        for v in views:
            if "R5" in v.relations:
                assert v.relations[0] == "R5"


class TestCompanySelection:
    def setup_method(self):
        self.schema = company_schema()
        self.workload = company_workload()
        self.heuristic = JoinOverlapHeuristic(self.schema, self.workload)
        graph = build_schema_graph(self.schema)
        self.trees, _ = generate_rooted_trees(
            graph, COMPANY_ROOTS, self.heuristic
        )

    def test_per_query_selection(self):
        result = select_views(self.workload, self.schema, self.trees, self.heuristic)
        names = {
            sid: [v.display_name for v in views]
            for sid, views in result.per_query.items()
        }
        assert names["W1"] == ["Address-Employee"]
        assert names["W2"] == ["Employee-Works_On"]
        assert names["W3"] == ["Employee-Works_On"]

    def test_final_set_deduplicated(self):
        result = select_views(self.workload, self.schema, self.trees, self.heuristic)
        names = [v.display_name for v in result.final_views]
        assert names == ["Address-Employee", "Employee-Works_On"]

    def test_self_join_gets_no_views(self):
        q = parse_statement(
            "SELECT * FROM Employee as a, Employee as b, Address as x "
            "WHERE x.AID = a.EHome_AID and a.EID = b.EID"
        )
        assert select_views_for_query(q, self.schema, self.trees, self.heuristic) == []

    def test_non_join_query_gets_no_views(self):
        q = parse_statement("SELECT * FROM Employee WHERE EID = ?")
        assert select_views_for_query(q, self.schema, self.trees, self.heuristic) == []

    def test_non_fk_join_not_materialized(self):
        # joining on a non-key attribute marks no edges
        q = parse_statement(
            "SELECT * FROM Employee as e, Dependent as d "
            "WHERE e.EHome_AID = d.DPHome_AID"
        )
        assert select_views_for_query(q, self.schema, self.trees, self.heuristic) == []

    def test_rewrite_w2_keeps_external_join(self):
        """W2's D-E join cannot materialize (E belongs to Address's
        hierarchy); the rewritten query joins Department with the view."""
        result = select_views(self.workload, self.schema, self.trees, self.heuristic)
        w2 = parse_statement(self.workload.by_id("W2").sql)
        rewritten = rewrite_query(w2, self.schema, result.per_query["W2"])
        sql = str(rewritten.select)
        assert "Department as d" in sql
        assert "MV_Employee__Works_On" in sql
        assert "d.DNo = v0.E_DNo" in sql


class TestViewIndexes:
    def setup_method(self):
        self.schema = company_schema()
        self.workload = company_workload()
        self.heuristic = JoinOverlapHeuristic(self.schema, self.workload)
        graph = build_schema_graph(self.schema)
        self.trees, _ = generate_rooted_trees(graph, COMPANY_ROOTS, self.heuristic)
        self.selection = select_views(
            self.workload, self.schema, self.trees, self.heuristic
        )
        self.rewritten = {}
        for stmt in self.workload:
            self.rewritten[stmt.statement_id] = rewrite_query(
                stmt.parsed, self.schema, self.selection.per_query[stmt.statement_id]
            )

    def test_read_index_on_uncovered_filter(self):
        """W3 filters the E-WO view on Hours, which is not the view key
        (WO_EID, WO_PNo) -> a view-index on Hours is recommended."""
        plan = ViewIndexPlan()
        recommend_read_indexes(self.schema, self.rewritten, plan)
        specs = {(s.view.display_name, s.indexed_on) for s in plan.specs}
        assert ("Employee-Works_On", ("Hours",)) in specs

    def test_key_covered_filter_needs_no_index(self):
        """W1 filters Address-Employee on EID = the view key."""
        plan = ViewIndexPlan()
        recommend_read_indexes(self.schema, self.rewritten, plan)
        assert not any(
            s.view.display_name == "Address-Employee" for s in plan.specs
        )

    def test_maintenance_index_for_mid_path_updates(self):
        writes = Workload(["UPDATE Employee SET EName = ? WHERE EID = ?"])
        plan = ViewIndexPlan()
        recommend_maintenance_indexes(
            self.schema, self.selection.final_views, writes, plan
        )
        specs = {(s.view.display_name, s.indexed_on, s.reason) for s in plan.specs}
        assert ("Employee-Works_On", ("EID",), "maintenance") in specs
        # Address-Employee is keyed by EID already -> no index needed
        assert not any(
            s.view.display_name == "Address-Employee" for s in plan.specs
        )

    def test_plan_deduplicates(self):
        plan = ViewIndexPlan()
        recommend_read_indexes(self.schema, self.rewritten, plan)
        n = len(plan.specs)
        recommend_read_indexes(self.schema, self.rewritten, plan)
        assert len(plan.specs) == n
