"""TPC-W substrate: generator determinism/cardinalities, workload
parseability, micro-benchmark setup."""

import pytest

from repro.sql.ast import Select
from repro.sql.parser import parse_statement
from repro.tpcw import (
    TPCW_ROOTS,
    MicrobenchDataGenerator,
    TpcwDataGenerator,
    micro_schema,
    micro_workload,
    tpcw_schema,
    tpcw_workload,
)
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.writes import WRITE_STATEMENTS


class TestGenerator:
    def test_scaling_rules_match_paper(self):
        g = TpcwDataGenerator(100, seed=1)
        assert g.num_items == 10 * 100       # NUM_ITEMS = 10 x NUM_CUST
        assert g.num_orders == 10 * 100      # Customer:Orders = 1:10

    def test_determinism(self):
        a = list(TpcwDataGenerator(20, seed=5).all_rows())
        b = list(TpcwDataGenerator(20, seed=5).all_rows())
        assert a == b

    def test_seed_changes_data(self):
        a = list(TpcwDataGenerator(20, seed=5).rows_for("Orders"))
        b = list(TpcwDataGenerator(20, seed=6).rows_for("Orders"))
        assert a != b

    def test_foreign_keys_resolve(self):
        g = TpcwDataGenerator(20, seed=5)
        items = list(g.rows_for("Item"))
        assert all(1 <= r["i_a_id"] <= g.num_authors for r in items)
        lines = list(g.rows_for("Order_line"))
        assert all(1 <= r["ol_i_id"] <= g.num_items for r in lines)
        assert all(1 <= r["ol_o_id"] <= g.num_orders for r in lines)

    def test_topological_load_order(self):
        g = TpcwDataGenerator(20, seed=5)
        order = g.relation_order()
        assert order.index("Author") < order.index("Item")
        assert order.index("Orders") < order.index("Order_line")
        assert order.index("Customer") < order.index("Orders")

    def test_min_scale_enforced(self):
        with pytest.raises(ValueError):
            TpcwDataGenerator(5)

    def test_query_params_valid(self):
        g = TpcwDataGenerator(20, seed=5)
        for qid in JOIN_QUERIES:
            params = g.params_for_query(qid, rep=0)
            assert len(params) >= 1

    def test_w7_w8_share_target_line(self):
        g = TpcwDataGenerator(20, seed=5)
        w7 = g.params_for_write("W7", 3)
        w8 = g.params_for_write("W8", 3)
        assert w7[:2] == w8  # same (cart, item)

    def test_w12_targets_existing_line(self):
        g = TpcwDataGenerator(20, seed=5)
        _, sc_id, i_id = g.params_for_write("W12", 0)
        lines = [
            (r["scl_sc_id"], r["scl_i_id"])
            for r in g.rows_for("Shopping_cart_line")
        ]
        assert (sc_id, i_id) in lines

    def test_insert_reps_do_not_collide(self):
        g = TpcwDataGenerator(20, seed=5)
        ids = {g.params_for_write("W1", rep)[0] for rep in range(10)}
        assert len(ids) == 10
        assert min(ids) > g.num_orders


class TestWorkloadText:
    def test_all_statements_parse(self):
        for sql in list(JOIN_QUERIES.values()) + list(WRITE_STATEMENTS.values()):
            parse_statement(sql)

    def test_workload_assembly(self):
        w = tpcw_workload()
        assert len(list(w)) == 24
        assert sum(isinstance(s.parsed, Select) for s in w) == 11
        assert len(list(w.writes())) == 13

    def test_self_join_flags(self):
        for qid in ("Q7", "Q9", "Q11"):
            stmt = parse_statement(JOIN_QUERIES[qid])
            assert isinstance(stmt, Select) and stmt.uses_relation_twice()
        for qid in ("Q1", "Q2", "Q10"):
            assert not parse_statement(JOIN_QUERIES[qid]).uses_relation_twice()

    def test_roots_are_relations(self):
        schema = tpcw_schema()
        for root in TPCW_ROOTS:
            assert schema.has_relation(root)


class TestMicrobench:
    def test_cardinality_chain(self):
        g = MicrobenchDataGenerator(10, seed=1)
        assert g.num_orders == 100
        assert g.num_order_lines == 1000
        lines = list(g.rows_for("Order_line"))
        assert len(lines) == 1000

    def test_micro_schema_and_workload(self):
        schema = micro_schema()
        assert len(schema.relations) == 3
        w = micro_workload()
        assert len(list(w)) == 2

    def test_micro_views_materialize(self):
        from repro.systems import SynergySystem
        from repro.tpcw.microbench import MICRO_ROOTS

        system = SynergySystem(micro_schema(), micro_workload(), MICRO_ROOTS)
        names = {v.display_name for v in system.views}
        assert names == {"Customer-Orders", "Customer-Orders-Order_line"}
