"""SQL front-end tests: lexer, parser, printer, analyzer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SqlError, SqlSyntaxError
from repro.relational.company import company_schema
from repro.sql.analyzer import analyze_select
from repro.synergy.graph import build_schema_graph
from repro.synergy.heuristics import joins_match_edge
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    Delete,
    DerivedTable,
    FuncCall,
    Insert,
    Literal,
    Param,
    Select,
    Star,
    TableRef,
    Update,
)
from repro.sql.lexer import TokType, tokenize
from repro.sql.parser import parse_statement
from repro.tpcw.queries import JOIN_QUERIES
from tests.reference.generators import generate_query
from tests.reference.sql import count_params


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("SELECT a.b, 'x''y', 1.5, ? FROM t")
        kinds = [t.type for t in toks]
        assert kinds[0] is TokType.KEYWORD
        assert TokType.PARAM in kinds
        strings = [t.text for t in toks if t.type is TokType.STRING]
        assert strings == ["x'y"]

    def test_operators(self):
        toks = tokenize("a <> b <= c >= d < e > f = g")
        ops = [t.text for t in toks if t.type is TokType.OP]
        assert ops == ["<>", "<=", ">=", "<", ">", "="]

    def test_negative_number(self):
        toks = tokenize("SELECT -5")
        nums = [t.text for t in toks if t.type is TokType.NUMBER]
        assert nums == ["-5"]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops")

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT a; DROP TABLE")

    def test_qualified_name_not_float(self):
        toks = tokenize("t1.c2")
        assert [t.text for t in toks[:-1]] == ["t1", ".", "c2"]


class TestParser:
    def test_select_star(self):
        stmt = parse_statement("SELECT * FROM Employee")
        assert isinstance(stmt, Select)
        assert stmt.projections == (Star(),)

    def test_aliases_with_and_without_as(self):
        a = parse_statement("SELECT * FROM Employee as e")
        b = parse_statement("SELECT * FROM Employee e")
        assert a.from_items[0].alias == b.from_items[0].alias == "e"

    def test_where_conjunction(self):
        stmt = parse_statement(
            "SELECT * FROM T as a, U as b WHERE a.x = b.y and a.z = ? and b.w >= 5"
        )
        assert len(stmt.where) == 3
        assert stmt.where[2].op == ">="

    def test_order_group_limit_distinct(self):
        stmt = parse_statement(
            "SELECT DISTINCT a, SUM(b) FROM T GROUP BY a "
            "ORDER BY SUM(b) DESC, a ASC LIMIT 7"
        )
        assert stmt.distinct
        assert stmt.limit == 7
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending
        assert stmt.group_by == (ColumnRef("a"),)

    def test_derived_table(self):
        stmt = parse_statement(
            "SELECT * FROM (SELECT o_id FROM Orders LIMIT 3) as tmp, T as t "
            "WHERE t.x = tmp.o_id"
        )
        assert isinstance(stmt.from_items[0], DerivedTable)
        assert stmt.from_items[0].alias == "tmp"
        assert stmt.from_items[0].select.limit == 3

    def test_count_star(self):
        stmt = parse_statement("SELECT COUNT(*) FROM T")
        f = stmt.projections[0]
        assert isinstance(f, FuncCall) and f.arg is None and f.name == "COUNT"

    def test_insert(self):
        stmt = parse_statement("INSERT INTO T (a, b) VALUES (?, 'x')")
        assert isinstance(stmt, Insert)
        assert stmt.columns == ("a", "b")
        assert isinstance(stmt.values[0], Param)
        assert stmt.values[1] == Literal("x")

    def test_update(self):
        stmt = parse_statement("UPDATE T SET a = ?, b = 2 WHERE k = ?")
        assert isinstance(stmt, Update)
        assert [c for c, _ in stmt.assignments] == ["a", "b"]
        assert len(stmt.where) == 1

    def test_delete(self):
        stmt = parse_statement("DELETE FROM T WHERE k = ? and k2 = ?")
        assert isinstance(stmt, Delete)
        assert len(stmt.where) == 2

    def test_param_indices_in_order(self):
        stmt = parse_statement("SELECT * FROM T WHERE a = ? and b = ? and c = ?")
        indices = [c.right.index for c in stmt.where]
        assert indices == [0, 1, 2]
        assert count_params(stmt) == 3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT * FROM T garbage , extra ,")

    def test_empty_statement_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("EXPLAIN SELECT 1")

    def test_star_qualified(self):
        stmt = parse_statement("SELECT j.* FROM Item as j")
        assert stmt.projections == (Star(qualifier="j"),)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(*) FROM Department as d",
            "SELECT SUM '(' x) FROM T",
            "SELECT e '.' '*' FROM Employee as e",
            "SELECT SUM(a, b) FROM T",
            "SELECT SUM(3) FROM T",
            "SELECT * FROM Works_On as w WHERE 10 < w.Hours",
            "SELECT * FROM T WHERE SUM(x) = 3",
            "SELECT ? FROM T",
            "SELECT a FROM T ORDER BY 1",
            "INSERT INTO T (a) VALUES (SUM(x))",
            "UPDATE Employee SET E_DNo = TRUE WHERE EID = ?",
        ],
    )
    def test_a_form_outside_the_dialect_is_a_syntax_error(self, sql):
        with pytest.raises(SqlSyntaxError) as raised:
            parse_statement(sql)
        assert raised.value.position is not None


class TestParseMemo:
    """``parse_statement`` hands every caller the same tree for the same
    text, which is sound only while that tree cannot be changed."""

    @staticmethod
    def texts():
        import random

        from repro.relational.company import company_workload
        from repro.tpcw.workload import tpcw_workload

        rng = random.Random(20)
        yield from (s.sql for s in (*tpcw_workload(), *company_workload()))
        yield from (generate_query(rng).sql for _ in range(200))

    def test_every_ast_dataclass_is_frozen(self):
        import dataclasses

        from repro.sql import ast

        nodes = [
            cls for cls in vars(ast).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        ]
        assert len(nodes) >= 13
        for cls in nodes:
            assert cls.__dataclass_params__.frozen, cls.__name__

    def test_no_mutable_container_reachable_from_a_parsed_statement(self):
        import dataclasses

        def walk(node, path):
            assert not isinstance(node, (list, dict, set)), path
            if dataclasses.is_dataclass(node):
                for f in dataclasses.fields(node):
                    walk(getattr(node, f.name), f"{path}.{f.name}")
            elif isinstance(node, tuple):
                for i, item in enumerate(node):
                    walk(item, f"{path}[{i}]")

        count = 0
        for text in self.texts():
            stmt = parse_statement(text)
            walk(stmt, type(stmt).__name__)
            hash(stmt)  # frozen all the way down
            count += 1
        assert count >= 224

    def test_same_text_same_tree(self):
        for text in self.texts():
            assert parse_statement(text) is parse_statement(text)
        # exact text: a different spelling is a different (equal) tree
        a = parse_statement("SELECT * FROM T WHERE k = ?")
        b = parse_statement("SELECT  * FROM T WHERE k = ?")
        assert a == b and a is not b

    def test_a_malformed_text_raises_on_every_call(self):
        messages = set()
        for _ in range(3):
            with pytest.raises(SqlSyntaxError) as raised:
                parse_statement("SELECT * FROM T garbage , extra ,")
            messages.add(str(raised.value))
        assert len(messages) == 1


class TestPrinterRoundtrip:
    CASES = [
        "SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID and e.EID = ?",
        "SELECT a, SUM(b) FROM T GROUP BY a ORDER BY SUM(b) DESC LIMIT 5",
        "SELECT DISTINCT x FROM T WHERE y <> 'a''b'",
        "SELECT * FROM (SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT 10) as tmp",
        JOIN_QUERIES["Q10"],
        JOIN_QUERIES["Q11"],
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_parse_print_parse_fixpoint(self, sql):
        first = parse_statement(sql)
        assert parse_statement(str(first)) == first

    def test_null_and_small_floats_print_as_the_parser_reads_them(self):
        text = "SELECT * FROM Employee WHERE EName = NULL and x = 0.00001"
        assert str(parse_statement(text)) == text

    LITERALS = st.one_of(
        st.none(),
        st.integers(min_value=-(10**12), max_value=10**12),
        st.floats(min_value=1e-9, max_value=1e12),
        st.floats(min_value=-1e12, max_value=-1e-9),
        st.text(alphabet="ab' ,?", max_size=8),
    )

    @given(LITERALS, LITERALS)
    def test_any_literal_reads_back_as_itself(self, first, second):
        stmt = Select(
            projections=(Star(),),
            from_items=(TableRef("T"),),
            where=(
                BinOp("=", ColumnRef("a"), Literal(first)),
                BinOp("<>", ColumnRef("k"), Literal(second)),
            ),
        )
        back = parse_statement(str(stmt))
        assert back == stmt
        # == alone would let 2.0 read back as 2
        assert [type(c.right.value) for c in back.where] == [
            type(first), type(second)
        ]

    @given(st.integers(min_value=0, max_value=2**32))
    def test_generated_queries_round_trip(self, seed):
        import random

        stmt = parse_statement(generate_query(random.Random(seed)).sql)
        assert parse_statement(str(stmt)) == stmt


class TestAnalyzer:
    def setup_method(self):
        self.schema = company_schema()

    def test_join_and_filter_classification(self):
        stmt = parse_statement(
            "SELECT * FROM Department as d, Employee as e "
            "WHERE d.DNo = e.E_DNo and d.DNo = ?"
        )
        a = analyze_select(stmt, self.schema)
        assert len(a.joins) == 1 and len(a.filters) == 1
        j = a.joins[0]
        assert {j.left_relation, j.right_relation} == {"Department", "Employee"}
        assert a.equi_joins() == [j]

    def test_unqualified_column_resolution(self):
        stmt = parse_statement(
            "SELECT EName FROM Employee as e, Address as a "
            "WHERE a.AID = e.EHome_AID and Zip = ?"
        )
        a = analyze_select(stmt, self.schema)
        assert a.filters[0].relation == "Address"

    def test_ambiguous_unqualified_rejected(self):
        stmt = parse_statement(
            "SELECT * FROM Employee as e, Employee as f WHERE EName = ?"
        )
        with pytest.raises(SqlError):
            analyze_select(stmt, self.schema)

    def test_unknown_alias_rejected(self):
        stmt = parse_statement("SELECT * FROM Employee as e WHERE zz.EID = ?")
        with pytest.raises(SqlError):
            analyze_select(stmt, self.schema)

    def test_duplicate_binding_rejected(self):
        stmt = parse_statement("SELECT * FROM Employee as e, Address as e")
        with pytest.raises(SqlError):
            analyze_select(stmt, self.schema)

    def test_self_join_detection(self):
        stmt = parse_statement(
            "SELECT * FROM Employee as a, Employee as b WHERE a.EID = b.EID"
        )
        assert stmt.uses_relation_twice()

    def test_same_binding_condition_is_filter(self):
        stmt = parse_statement(
            "SELECT * FROM Employee as e WHERE e.EHome_AID = e.EOffice_AID"
        )
        a = analyze_select(stmt, self.schema)
        assert not a.joins and len(a.filters) == 1

    def test_matches_fk_edge(self):
        stmt = parse_statement(
            "SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID"
        )
        a = analyze_select(stmt, self.schema)
        edges = {e.fk_name: e for e in build_schema_graph(self.schema).edges}
        assert joins_match_edge(edges["emp_home_addr"], a.joins)
        assert not joins_match_edge(edges["emp_office_addr"], a.joins)

    def test_theta_join_captured(self):
        stmt = parse_statement(
            "SELECT * FROM Works_On as x, Works_On as y WHERE x.Hours <> y.Hours"
        )
        a = analyze_select(stmt, self.schema)
        assert a.joins[0].op == "<>"
        assert a.equi_joins() == []
