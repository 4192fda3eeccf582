"""Candidate-views generation (paper Sec. V): schema graph, DAG
reduction, topological order, root assignment, rooted trees — asserted
against the paper's Company walkthrough (Figs. 4 and 5) and the TPC-W
deployment (Sec. IX-D2)."""

import pytest

from repro.errors import ViewSelectionError
from repro.relational.company import COMPANY_ROOTS, company_schema, company_workload
from repro.relational.datatypes import DataType
from repro.relational.schema import ForeignKey, Relation, Schema
from repro.relational.workload import Workload
from repro.synergy.graph import build_schema_graph
from repro.synergy.heuristics import JoinOverlapHeuristic
from repro.synergy.trees import generate_rooted_trees
from repro.synergy.views import candidate_views, candidate_views_for_trees
from repro.tpcw.schema import TPCW_ROOTS, tpcw_schema
from repro.tpcw.workload import tpcw_workload


class UniformHeuristic:
    """Workload-oblivious weights: every edge weighs 1."""

    def edge_weight(self, edge) -> float:
        return 1.0

    def path_weight(self, path) -> float:
        return sum(1.0 for _ in path)


@pytest.fixture(scope="module")
def company():
    schema = company_schema()
    workload = company_workload()
    graph = build_schema_graph(schema)
    heuristic = JoinOverlapHeuristic(schema, workload)
    trees, assignment = generate_rooted_trees(graph, COMPANY_ROOTS, heuristic)
    return schema, workload, graph, heuristic, trees, assignment


class TestSchemaGraph:
    def test_company_graph_edges(self, company):
        _, _, graph, _, _, _ = company
        assert len(graph.edges) == 9
        # multi-edge between Address and Employee (home + office)
        ae = [e for e in graph.edges
              if (e.parent, e.child) == ("Address", "Employee")]
        assert len(ae) == 2

    def test_dag_removes_office_edge(self, company):
        """Fig. 5(a): the (AID, EOffice_AID) edge is removed because the
        workload never joins on it."""
        schema, _, graph, heuristic, _, _ = company
        dag = graph.to_dag(heuristic)
        ae = [e for e in dag.edges
              if (e.parent, e.child) == ("Address", "Employee")]
        assert len(ae) == 1
        assert ae[0].fk_attrs == ("EHome_AID",)

    def test_topological_order_valid(self, company):
        _, _, graph, heuristic, _, _ = company
        dag = graph.to_dag(heuristic)
        topo = dag.topological_order()
        position = {n: i for i, n in enumerate(topo)}
        for e in dag.edges:
            assert position[e.parent] < position[e.child]

    def test_cycle_detected(self):
        a = Relation("A", [("a", DataType.INT), ("b_ref", DataType.INT)],
                     primary_key=["a"],
                     foreign_keys=[ForeignKey("ab", ("b_ref",), "B")])
        b = Relation("B", [("b", DataType.INT), ("a_ref", DataType.INT)],
                     primary_key=["b"],
                     foreign_keys=[ForeignKey("ba", ("a_ref",), "A")])
        graph = build_schema_graph(Schema([a, b]))
        with pytest.raises(ViewSelectionError):
            graph.to_dag(UniformHeuristic())

    def test_paths_enumeration(self, company):
        _, _, graph, heuristic, _, _ = company
        dag = graph.to_dag(heuristic)
        paths = dag.paths("Address", "Works_On")
        assert len(paths) == 1
        assert [e.child for e in paths[0]] == ["Employee", "Works_On"]


class TestRootAssignment:
    def test_company_assignment_matches_paper(self, company):
        """Fig. 4(b)/5(c): E, WO, DP -> Address; DL, P -> Department."""
        _, _, _, _, _, assignment = company
        assert assignment == {
            "Employee": "Address",
            "Works_On": "Address",
            "Dependent": "Address",
            "Department_Location": "Department",
            "Project": "Department",
        }

    def test_company_trees_match_paper(self, company):
        _, _, _, _, trees, _ = company
        a = trees["Address"]
        assert a.children_of("Address") == ("Employee",)
        assert set(a.children_of("Employee")) == {"Works_On", "Dependent"}
        d = trees["Department"]
        assert set(d.children_of("Department")) == {
            "Department_Location", "Project",
        }

    def test_workload_aware_heuristic_keeps_the_joined_edge(self, company):
        """Heuristic ablation (Sec. V): workload-aware weights rank the
        (AID, EHome_AID) edge W1 joins on above the office edge no query
        joins on, and the Address tree keeps it; uniform weights cannot
        tell the two apart."""
        _, _, graph, heuristic, trees, _ = company
        home, office = sorted(
            (e for e in graph.edges if (e.parent, e.child) == ("Address", "Employee")),
            key=lambda e: e.fk_attrs != ("EHome_AID",),
        )
        assert heuristic.edge_weight(home) > heuristic.edge_weight(office)
        uniform = UniformHeuristic()
        assert uniform.edge_weight(home) == uniform.edge_weight(office)
        assert trees["Address"].parent_edges["Employee"].fk_attrs == ("EHome_AID",)

    def test_tie_breaks_toward_first_root(self, company):
        """Employee has weight-1 paths from both Address (W1) and
        Department (W2); the paper assigns it to Address, the root
        listed first in Q_company."""
        _, _, _, _, _, assignment = company
        assert assignment["Employee"] == "Address"

    def test_unknown_root_rejected(self, company):
        schema, workload, graph, heuristic, _, _ = company
        with pytest.raises(ViewSelectionError):
            generate_rooted_trees(graph, ("Nope",), heuristic)

    def test_unreachable_relation_stays_unassigned(self):
        schema = tpcw_schema()
        graph = build_schema_graph(schema)
        heuristic = JoinOverlapHeuristic(schema, tpcw_workload())
        _, assignment = generate_rooted_trees(graph, TPCW_ROOTS, heuristic)
        assert "Shopping_cart" not in assignment

    def test_tpcw_assignment(self):
        schema = tpcw_schema()
        graph = build_schema_graph(schema)
        heuristic = JoinOverlapHeuristic(schema, tpcw_workload())
        trees, assignment = generate_rooted_trees(graph, TPCW_ROOTS, heuristic)
        assert assignment["Item"] == "Author"
        assert assignment["Order_line"] == "Author"  # via the hot Item chain
        assert assignment["Shopping_cart_line"] == "Author"
        assert assignment["Orders"] == "Customer"
        assert assignment["CC_Xacts"] == "Customer"
        assert assignment["Address"] == "Country"
        assert trees["Customer"].children_of("Orders") == ("CC_Xacts",)

    def test_each_relation_in_at_most_one_tree(self):
        """The single-lock guarantee rests on this invariant."""
        schema = tpcw_schema()
        graph = build_schema_graph(schema)
        heuristic = JoinOverlapHeuristic(schema, tpcw_workload())
        trees, _ = generate_rooted_trees(graph, TPCW_ROOTS, heuristic)
        seen: set[str] = set()
        for tree in trees.values():
            for node in tree.nodes[1:]:
                assert node not in seen
                seen.add(node)

    def test_tree_paths_unique(self, company):
        _, _, _, _, trees, _ = company
        tree = trees["Address"]
        path = tree.path_from_root("Works_On")
        assert [e.child for e in path] == ["Employee", "Works_On"]
        with pytest.raises(ViewSelectionError):
            tree.path_from_root("Item")


class TestCandidateViews:
    def test_company_candidates_are_all_tree_paths(self, company):
        _, _, _, _, trees, _ = company
        names = {v.display_name for v in candidate_views_for_trees(trees)}
        assert names == {
            "Address-Employee",
            "Address-Employee-Works_On",
            "Address-Employee-Dependent",
            "Employee-Works_On",
            "Employee-Dependent",
            "Department-Department_Location",
            "Department-Project",
        }

    def test_view_key_is_last_relation_pk(self, company):
        schema, _, _, _, trees, _ = company
        for view in candidate_views(trees["Address"]):
            assert view.key_attrs(schema) == tuple(
                schema.relation(view.last).primary_key
            )

    def test_view_name_joins_its_relations(self, company):
        _, _, _, _, trees, _ = company
        view = next(
            v for v in candidate_views(trees["Address"])
            if v.display_name == "Address-Employee"
        )
        assert view.relations == ("Address", "Employee")
        assert view.name == "MV_Address__Employee"

    def test_empty_tree_has_no_candidates(self):
        schema = company_schema()
        graph = build_schema_graph(schema)
        heuristic = JoinOverlapHeuristic(schema, Workload())
        trees, _ = generate_rooted_trees(graph, ("Works_On",), heuristic)
        assert candidate_views(trees["Works_On"]) == []
