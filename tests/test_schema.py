"""Relational model tests (paper Sec. II-A definitions)."""

import pytest

from repro.errors import SchemaError
from repro.relational.company import company_schema
from repro.relational.datatypes import DataType
from repro.relational.schema import ForeignKey, Index, Relation, Schema
from repro.relational.workload import Workload
from repro.sql.ast import Select
from repro.tpcw.schema import tpcw_schema


class TestRelation:
    def test_basic_construction(self):
        r = Relation("R", [("a", DataType.INT), "b"], primary_key=["a"])
        assert r.primary_key == ("a",)
        assert r.attribute("b").dtype is DataType.VARCHAR

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ["a", "a"], primary_key=["a"])

    def test_empty_pk_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ["a"], primary_key=[])

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            Relation("R", ["a"], primary_key=["z"])

    def test_fk_attr_must_exist(self):
        with pytest.raises(SchemaError):
            Relation("R", ["a"], primary_key=["a"],
                     foreign_keys=[ForeignKey("f", ("zz",), "T")])

    def test_duplicate_fk_name_rejected(self):
        with pytest.raises(SchemaError):
            Relation(
                "R", ["a", "b"], primary_key=["a"],
                foreign_keys=[ForeignKey("f", ("b",), "T"),
                              ForeignKey("f", ("a",), "T")],
            )


class TestSchema:
    def test_dangling_fk_rejected(self):
        r = Relation("R", ["a", "b"], primary_key=["a"],
                     foreign_keys=[ForeignKey("f", ("b",), "Missing")])
        with pytest.raises(SchemaError):
            Schema([r])

    def test_fk_arity_must_match_pk(self):
        t = Relation("T", ["x", "y"], primary_key=["x", "y"])
        r = Relation("R", ["a", "b"], primary_key=["a"],
                     foreign_keys=[ForeignKey("f", ("b",), "T")])
        with pytest.raises(SchemaError):
            Schema([t, r])

    def test_fk_must_encode_like_the_pk_it_references(self):
        """View maintenance reuses a child's stored FK bytes as the
        parent's key component, so the two sides need one dtype."""
        t = Relation("T", [("x", DataType.INT)], primary_key=["x"])
        r = Relation("R", [("a", DataType.INT), ("b", DataType.VARCHAR)],
                     primary_key=["a"],
                     foreign_keys=[ForeignKey("f", ("b",), "T")])
        with pytest.raises(SchemaError, match="does not encode like T.x"):
            Schema([t, r])

    @pytest.mark.parametrize("build", [company_schema, tpcw_schema])
    def test_shipped_fks_are_int_to_int(self, build):
        schema = build()
        for parent, child, fk in schema.relationships():
            pk = schema.relation(parent).primary_key
            for fk_attr, pk_attr in zip(fk.attributes, pk):
                assert schema.relation(child).dtype_of(fk_attr) is DataType.INT
                assert schema.relation(parent).dtype_of(pk_attr) is DataType.INT

    def test_duplicate_relation_rejected(self):
        r = Relation("R", ["a"], primary_key=["a"])
        with pytest.raises(SchemaError):
            Schema([r, Relation("R", ["b"], primary_key=["b"])])

    def test_relationships_company(self):
        schema = company_schema()
        rels = schema.relationships()
        pairs = {(p, c, fk.name) for p, c, fk in rels}
        assert ("Address", "Employee", "emp_home_addr") in pairs
        assert ("Address", "Employee", "emp_office_addr") in pairs
        assert ("Department", "Employee", "emp_dept") in pairs
        assert ("Employee", "Works_On", "wo_emp") in pairs
        assert len(rels) == 9  # Fig. 4(a) has 9 FK edges

    def test_index_validation(self):
        schema = company_schema()
        with pytest.raises(SchemaError):
            schema.add_index("Employee", Index("bad", ("nope",)))
        with pytest.raises(SchemaError):
            schema.add_index("Employee", Index("idx_emp_home", ("EID",)))

    def test_indexes_listed(self):
        schema = company_schema()
        names = [x.name for x in schema.indexes("Employee")]
        assert "idx_emp_home" in names and "idx_emp_dept" in names

    def test_tpcw_schema_wellformed(self):
        schema = tpcw_schema()
        assert len(schema.relations) == 10
        assert schema.relation("Order_line").primary_key == ("ol_o_id", "ol_id")
        assert len(schema.relationships()) == 12


class TestWorkload:
    def test_auto_ids(self):
        w = Workload(["SELECT * FROM Country", "SELECT * FROM Item"])
        assert [s.statement_id for s in w] == ["w1", "w2"]

    def test_by_id(self):
        w = Workload()
        w.add("SELECT * FROM Country", statement_id="q")
        assert w.by_id("q").sql.startswith("SELECT")
        with pytest.raises(KeyError):
            w.by_id("missing")

    def test_reads_writes_split(self):
        w = Workload([
            "SELECT * FROM Country",
            "INSERT INTO Country (co_id) VALUES (?)",
            "UPDATE Country SET co_name = ? WHERE co_id = ?",
        ])
        assert sum(isinstance(s.parsed, Select) for s in w) == 1
        assert len(list(w.writes())) == 2
