"""Relational schema model (Section II-A of the paper).

A :class:`~repro.relational.schema.Relation` is a set of attributes with
a primary key and zero or more foreign keys; an
:class:`~repro.relational.schema.Index` is a covered index over a subset
of a relation's attributes; a :class:`~repro.relational.schema.Schema`
is the set of relations plus their index sets. The
:mod:`repro.relational.company` module reconstructs the paper's Company
example (Fig. 2) which the unit tests check the view-generation
machinery against, edge for edge.
"""

from repro.relational.datatypes import DataType, encode_value
from repro.relational.schema import (
    Attribute,
    ForeignKey,
    Index,
    Relation,
    Schema,
)
from repro.relational.workload import Workload

__all__ = [
    "Attribute",
    "DataType",
    "ForeignKey",
    "Index",
    "Relation",
    "Schema",
    "Workload",
    "encode_value",
]
