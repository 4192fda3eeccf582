"""Relation, Index and Schema models (paper Section II-A).

Notation follows the paper:

* ``PK(R)`` — tuple of attributes uniquely identifying each record.
* ``FK(R)`` — a set of attributes referencing another relation; ``F(R)``
  is the set of all foreign keys of ``R``.
* An index ``X(R)`` is a *covered* index: a set of attributes stored in
  the index itself; ``Xtuple(R)`` is the tuple of attributes it is
  indexed upon; the index **key** is ``Xtuple(R) + PK(R)`` in that order.
* A schema ``S`` is the set of relations with their index sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.relational.datatypes import DataType


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation."""

    name: str
    dtype: DataType = DataType.VARCHAR


@dataclass(frozen=True)
class ForeignKey:
    """``attributes`` of the owning relation reference ``references``'s PK.

    ``name`` disambiguates multiple FKs to the same target (e.g. the
    Company schema's Employee has both a home and an office address FK).
    """

    name: str
    attributes: tuple[str, ...]
    references: str

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError(f"foreign key {self.name!r} has no attributes")


@dataclass(frozen=True)
class Index:
    """A covered index: ``indexed_on`` = Xtuple(R), ``includes`` = the rest.

    The full attribute set of the index is ``indexed_on + includes``;
    the physical key is ``indexed_on + PK(R)``.
    """

    name: str
    indexed_on: tuple[str, ...]
    includes: tuple[str, ...] = ()

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.indexed_on + self.includes))


class Relation:
    """A named set of attributes with a primary key and foreign keys."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute | tuple[str, DataType] | str],
        primary_key: Iterable[str],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        attrs: list[Attribute] = []
        for a in attributes:
            if isinstance(a, Attribute):
                attrs.append(a)
            elif isinstance(a, tuple):
                attrs.append(Attribute(a[0], a[1]))
            else:
                attrs.append(Attribute(a))
        self.name = name
        self._attrs: dict[str, Attribute] = {}
        for a in attrs:
            if a.name in self._attrs:
                raise SchemaError(f"{name}: duplicate attribute {a.name!r}")
            self._attrs[a.name] = a
        self.primary_key: tuple[str, ...] = tuple(primary_key)
        if not self.primary_key:
            raise SchemaError(f"{name}: empty primary key")
        for k in self.primary_key:
            if k not in self._attrs:
                raise SchemaError(f"{name}: PK attribute {k!r} not in relation")
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        seen_fk: set[str] = set()
        for fk in self.foreign_keys:
            if fk.name in seen_fk:
                raise SchemaError(f"{name}: duplicate foreign key name {fk.name!r}")
            seen_fk.add(fk.name)
            for a in fk.attributes:
                if a not in self._attrs:
                    raise SchemaError(
                        f"{name}: FK {fk.name!r} attribute {a!r} not in relation"
                    )

    # -- attribute access ---------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return tuple(self._attrs.values())

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._attrs)

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attrs[name]
        except KeyError:
            raise SchemaError(f"{self.name}: no attribute {name!r}") from None

    def has_attribute(self, name: str) -> bool:
        return name in self._attrs

    def dtype_of(self, name: str) -> DataType:
        return self.attribute(name).dtype


class Schema:
    """A set of relations and their covered-index sets."""

    def __init__(self, relations: Iterable[Relation]) -> None:
        self._relations: dict[str, Relation] = {}
        for r in relations:
            if r.name in self._relations:
                raise SchemaError(f"duplicate relation {r.name!r}")
            self._relations[r.name] = r
        self._indexes: dict[str, list[Index]] = {name: [] for name in self._relations}
        self._validate_foreign_keys()

    def _validate_foreign_keys(self) -> None:
        for rel in self._relations.values():
            for fk in rel.foreign_keys:
                target = self._relations.get(fk.references)
                if target is None:
                    raise SchemaError(
                        f"{rel.name}: FK {fk.name!r} references unknown "
                        f"relation {fk.references!r}"
                    )
                if len(fk.attributes) != len(target.primary_key):
                    raise SchemaError(
                        f"{rel.name}: FK {fk.name!r} arity {len(fk.attributes)} "
                        f"!= PK arity {len(target.primary_key)} of {target.name}"
                    )
                # view maintenance reuses a child's stored FK bytes as its
                # parent's key components, so both sides share one type
                for fk_attr, pk_attr in zip(fk.attributes, target.primary_key):
                    fk_type = rel.dtype_of(fk_attr)
                    pk_type = target.dtype_of(pk_attr)
                    if fk_type is not pk_type:
                        raise SchemaError(
                            f"{rel.name}: FK {fk.name!r} attribute {fk_attr!r} "
                            f"({fk_type.name}) does not encode like "
                            f"{target.name}.{pk_attr} ({pk_type.name})"
                        )

    # -- relations ---------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation {name!r} in schema") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    @property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    # -- indexes -----------------------------------------------------------------
    def add_index(self, relation_name: str, index: Index) -> None:
        rel = self.relation(relation_name)
        for a in index.attributes:
            if not rel.has_attribute(a):
                raise SchemaError(
                    f"index {index.name!r}: attribute {a!r} not in {rel.name}"
                )
        if any(x.name == index.name for x in self._indexes[relation_name]):
            raise SchemaError(f"duplicate index name {index.name!r} on {relation_name}")
        self._indexes[relation_name].append(index)

    def indexes(self, relation_name: str) -> tuple[Index, ...]:
        self.relation(relation_name)
        return tuple(self._indexes[relation_name])

    # -- relationships (Definition 1) ------------------------------------------------
    def relationships(self) -> list[tuple[str, str, ForeignKey]]:
        """All (parent, child, fk) triples: child's fk references parent's PK."""
        out: list[tuple[str, str, ForeignKey]] = []
        for rel in self._relations.values():
            for fk in rel.foreign_keys:
                out.append((fk.references, rel.name, fk))
        return out
