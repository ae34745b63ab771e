"""Databases: finite sets of ground relational atoms.

A database is a set of ground facts (Section 3.2).  The *carrier* of a
database is the set of constants occurring in it; the paper's bounded and local
equivalence notions are phrased in terms of the carrier size.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..domains import Domain, NumericValue, normalize_value
from ..errors import DomainError
from .atoms import GroundAtom


class Database:
    """An immutable set of ground facts with set-algebra operations.

    Facts can be supplied either as :class:`GroundAtom` objects or as
    ``(predicate, values)`` pairs; values are normalized to exact numbers.
    """

    __slots__ = ("_facts", "_by_predicate", "_arities", "_carrier", "_sorted_carrier")

    def __init__(self, facts: Iterable = ()):  # noqa: ANN001 - heterogeneous input
        self._index(frozenset(_coerce_fact(fact) for fact in facts))

    @classmethod
    def _of_normalized(cls, facts: frozenset[GroundAtom]) -> "Database":
        """A database over atoms already normalized — taken from other
        databases — without coercing every fact again."""
        database = cls.__new__(cls)
        database._index(facts)
        return database

    def _index(self, facts: frozenset[GroundAtom]) -> None:
        self._facts: frozenset[GroundAtom] = facts
        by_predicate: dict[str, set[tuple]] = {}
        carrier: set[NumericValue] = set()
        for fact in self._facts:
            by_predicate.setdefault(fact.predicate, set()).add(fact.values)
            carrier.update(fact.values)
        self._by_predicate: dict[str, frozenset[tuple]] = {
            predicate: frozenset(rows) for predicate, rows in by_predicate.items()
        }
        self._arities: dict[str, frozenset[int]] = _arities_of(by_predicate)
        self._carrier: frozenset[NumericValue] = frozenset(carrier)
        self._sorted_carrier: tuple[NumericValue, ...] | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def facts(self) -> frozenset[GroundAtom]:
        return self._facts

    def carrier(self) -> frozenset[NumericValue]:
        """The set of constants occurring in the database, carr(D)."""
        return self._carrier

    @property
    def carrier_size(self) -> int:
        return len(self._carrier)

    def predicates(self) -> frozenset[str]:
        return frozenset(self._by_predicate)

    def relation(self, predicate: str) -> frozenset[tuple]:
        """All tuples of the given predicate (empty when absent)."""
        return self._by_predicate.get(predicate, frozenset())

    @property
    def relation_arities(self) -> Mapping[str, frozenset[int]]:
        """``{predicate: the lengths of its rows}``, recorded while the rows
        are grouped by predicate (a predicate may be stored at several
        arities)."""
        return self._arities

    def contains(self, predicate: str, values: Sequence[NumericValue]) -> bool:
        return tuple(values) in self._by_predicate.get(predicate, frozenset())

    def sorted_carrier(self) -> tuple[NumericValue, ...]:
        """carr(D) sorted ascending — the interning order of the columnar
        store: a constant's *rank* in this tuple is its interned id, so id
        comparisons and value comparisons agree.  Computed lazily once (the
        database is immutable)."""
        cached = self._sorted_carrier
        if cached is None:
            cached = tuple(sorted(self._carrier))
            self._sorted_carrier = cached
        return cached

    def __contains__(self, fact) -> bool:  # noqa: ANN001
        return _coerce_fact(fact) in self._facts

    def __iter__(self) -> Iterator[GroundAtom]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __bool__(self) -> bool:
        return bool(self._facts)

    def __eq__(self, other) -> bool:  # noqa: ANN001
        if not isinstance(other, Database):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        return hash(self._facts)

    # ------------------------------------------------------------------
    # Set algebra (used by the decomposition machinery of Section 6)
    # ------------------------------------------------------------------
    def union(self, other: "Database") -> "Database":
        return Database._of_normalized(self._facts | other._facts)

    def intersection(self, other: "Database") -> "Database":
        return Database._of_normalized(self._facts & other._facts)

    def difference(self, other: "Database") -> "Database":
        return Database._of_normalized(self._facts - other._facts)

    def issubset(self, other: "Database") -> bool:
        return self._facts <= other._facts

    def add_facts(self, facts: Iterable) -> "Database":  # noqa: ANN001
        """The database with ``facts`` added.  Only the new facts are
        indexed: the other relations and the carrier are shared with (or
        unioned onto) this database's."""
        new = {_coerce_fact(fact) for fact in facts} - self._facts
        if not new:
            return self
        added: dict[str, set[tuple]] = {}
        for fact in new:
            added.setdefault(fact.predicate, set()).add(fact.values)
        by_predicate = dict(self._by_predicate)
        carrier: set[NumericValue] = set()
        for predicate, rows in added.items():
            by_predicate[predicate] = self.relation(predicate) | rows
            for row in rows:
                carrier.update(row)
        arities = dict(self._arities)
        for predicate, lengths in _arities_of(added).items():
            arities[predicate] = arities.get(predicate, frozenset()) | lengths
        database = Database.__new__(Database)
        database._facts = self._facts | new
        database._by_predicate = by_predicate
        database._arities = arities
        if carrier <= self._carrier:
            database._carrier = self._carrier
            database._sorted_carrier = self._sorted_carrier
        else:
            database._carrier = self._carrier | carrier
            database._sorted_carrier = None
        return database

    def restrict_to_predicates(self, predicates: Iterable[str]) -> "Database":
        wanted = set(predicates)
        return Database._of_normalized(
            frozenset(fact for fact in self._facts if fact.predicate in wanted)
        )

    # ------------------------------------------------------------------
    # Validation and display
    # ------------------------------------------------------------------
    def check_domain(self, domain: Domain) -> None:
        """Verify that every constant of the database belongs to ``domain``."""
        for value in self._carrier:
            if not domain.contains(value):
                raise DomainError(f"database constant {value!r} is not in {domain.value}")

    def to_sorted_facts(self) -> list[GroundAtom]:
        return sorted(self._facts, key=lambda fact: (fact.predicate, fact.values))

    def __str__(self) -> str:
        if not self._facts:
            return "{}"
        inner = ", ".join(str(fact) for fact in self.to_sorted_facts())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Database({len(self._facts)} facts, carrier size {self.carrier_size})"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_relations(cls, relations: Mapping[str, Iterable[Sequence[NumericValue]]]) -> "Database":
        """Build a database from a mapping ``predicate -> iterable of rows``."""
        facts = []
        for predicate, rows in relations.items():
            for row in rows:
                facts.append(GroundAtom(predicate, tuple(normalize_value(v) for v in row)))
        return cls(facts)

    def to_relations(self) -> dict[str, set[tuple]]:
        return {predicate: set(rows) for predicate, rows in self._by_predicate.items()}


def _arities_of(by_predicate: Mapping[str, Iterable[tuple]]) -> dict[str, frozenset[int]]:
    """``{predicate: the lengths of its rows}`` over rows grouped by predicate."""
    return {predicate: frozenset(map(len, rows)) for predicate, rows in by_predicate.items()}


def _coerce_fact(fact) -> GroundAtom:  # noqa: ANN001
    if isinstance(fact, GroundAtom):
        return GroundAtom(fact.predicate, tuple(normalize_value(v) for v in fact.values))
    predicate, values = fact
    return GroundAtom(str(predicate), tuple(normalize_value(v) for v in values))


EMPTY_DATABASE = Database()
