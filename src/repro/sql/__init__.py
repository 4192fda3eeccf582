"""A small SQL front end.

Hand-rolled lexer + recursive-descent parser for the SQL subset the
paper's workloads run; any other form is a ``SqlSyntaxError``:

* ``SELECT [DISTINCT]`` of ``*``, ``b.*``, columns and ``COUNT(*)`` /
  ``F(column)`` aggregates; FROM tables and derived tables with aliases;
  a conjunctive ``WHERE`` of ``column op (column | literal | ?)``;
  ``GROUP BY`` columns; ``ORDER BY`` columns or aggregates; ``LIMIT n``.
* ``INSERT INTO t (cols) VALUES (...)`` and ``UPDATE t SET c = v, ...
  WHERE ...``, each value a literal or ``?``.
* ``DELETE FROM t WHERE ...``.

The :mod:`repro.sql.analyzer` resolves aliases against a
:class:`~repro.relational.schema.Schema` and extracts the equi-join
graph used by the view-selection machinery.
"""

from repro.sql.ast import (
    BinOp,
    ColumnRef,
    Delete,
    DerivedTable,
    FuncCall,
    Insert,
    Literal,
    OrderItem,
    Param,
    Select,
    Star,
    Statement,
    TableRef,
    Update,
)
from repro.sql.analyzer import AnalyzedSelect, JoinCondition, analyze_select
from repro.sql.parser import parse_statement

__all__ = [
    "AnalyzedSelect",
    "BinOp",
    "ColumnRef",
    "Delete",
    "DerivedTable",
    "FuncCall",
    "Insert",
    "JoinCondition",
    "Literal",
    "OrderItem",
    "Param",
    "Select",
    "Star",
    "Statement",
    "TableRef",
    "Update",
    "analyze_select",
    "parse_statement",
]
