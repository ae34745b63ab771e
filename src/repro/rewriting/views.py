"""Materialized view definitions and their extents.

A *view* is a named query whose result a warehouse keeps materialized: the
view's name doubles as a fresh predicate under which the result is stored,
so queries can be posed *over* views as if they were base relations.  The
paper's introduction motivates exactly this setting — rewriting optimizers
substitute pre-computed views for fact-table subqueries, and the
substitution is safe only when the rewritten query is equivalent to the
original over every database (which is what :mod:`repro.core` decides).

The stored relation of a view:

* **non-aggregate view** ``v(x̄) ← A1 ∨ … ∨ An`` — the answer set under set
  semantics, one row per answer tuple (arity ``|x̄|``);
* **aggregate view** ``v(x̄, α(ȳ)) ← A`` — one row per group, the grouping
  values followed by the aggregate value (arity ``|x̄| + 1``; the aggregate
  value occupies the *last* column).

A view *duplicates* when some disjunct of its definition uses variables that
are not exported through the head: distinct satisfying assignments then
collapse onto one stored row, so unfolding the view multiplies assignments
and duplicate-sensitive aggregates over the view cannot be threaded through
soundly (see :mod:`repro.rewriting.unfold`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from ..aggregates.functions import get_function
from ..datalog.database import Database
from ..datalog.queries import Query
from ..datalog.terms import Variable
from ..engine.evaluator import evaluate_aggregate, evaluate_set
from ..errors import RewritingError

#: Aggregation functions whose results are scalars and can therefore be
#: stored in a materialized view column (top2/bot2 return tuples; avg can
#: return None only on empty bags, which never form a group).
MATERIALIZABLE_FUNCTIONS = frozenset(
    {"count", "sum", "max", "min", "avg", "prod", "cntd", "parity"}
)


@dataclass(frozen=True)
class View:
    """A named materialized view: the view predicate plus its definition."""

    name: str
    query: Query

    def __post_init__(self) -> None:
        if not self.name:
            raise RewritingError("view names must be non-empty")
        if self.name in self.query.predicates():
            raise RewritingError(
                f"view {self.name!r} is defined in terms of itself (recursive views "
                "are outside the paper's query class)"
            )
        for term in self.query.head_terms:
            if not isinstance(term, Variable):
                raise RewritingError(
                    f"view {self.name!r} has a non-variable head term {term}; "
                    "materialized view heads must export variables"
                )
        if len(set(self.query.head_terms)) != len(self.query.head_terms):
            raise RewritingError(
                f"view {self.name!r} repeats a head variable; export each column once"
            )
        aggregate = self.query.aggregate
        if aggregate is not None and aggregate.function not in MATERIALIZABLE_FUNCTIONS:
            raise RewritingError(
                f"view {self.name!r} aggregates with {aggregate.function}, whose "
                "results are not scalar values storable in a view column"
            )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def is_aggregate(self) -> bool:
        return self.query.is_aggregate

    @property
    def arity(self) -> int:
        """The arity of the stored relation (aggregate views append the
        aggregate value as one extra column)."""
        return len(self.query.head_terms) + (1 if self.is_aggregate else 0)

    @property
    def head_variables(self) -> tuple[Variable, ...]:
        """The exported columns, in head order (without the aggregate column)."""
        return tuple(self.query.head_terms)  # type: ignore[return-value]

    def duplicating_variables(self) -> set[Variable]:
        """Variables some disjunct uses but does not export — non-empty
        exactly when the view duplicates (for a non-aggregate view).

        Aggregate views are grouped, so their non-exported variables are
        *absorbed* by the aggregate rather than collapsed; duplication is a
        property of non-aggregate views only.
        """
        exported = set(self.query.head_terms) | set(self.query.aggregation_variables())
        hidden: set[Variable] = set()
        for disjunct in self.query.disjuncts:
            hidden |= disjunct.variables() - exported
        return hidden

    @property
    def is_duplicating(self) -> bool:
        return not self.is_aggregate and bool(self.duplicating_variables())

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def rows(self, database: Database) -> set[tuple]:
        """The stored relation of the view over ``database``."""
        if self.is_aggregate:
            return {
                key + (value,)
                for key, value in evaluate_aggregate(
                    self.query, database, get_function(self.query.aggregate.function)
                ).items()
            }
        return evaluate_set(self.query, database)

    def __str__(self) -> str:
        return f"{self.name} := {self.query}"


class ViewCatalog:
    """A set of materialized views with pairwise-distinct predicates."""

    def __init__(self, views: Iterable[View] = ()):
        self._views: dict[str, View] = {}
        base_predicates: set[str] = set()
        for view in views:
            if view.name in self._views:
                raise RewritingError(f"duplicate view name {view.name!r}")
            self._views[view.name] = view
            base_predicates |= view.query.predicates()
        clash = base_predicates & set(self._views)
        if clash:
            names = ", ".join(sorted(clash))
            raise RewritingError(
                f"view name(s) {names} collide with predicates used in view definitions"
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[View]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def get(self, name: str) -> Optional[View]:
        return self._views.get(name)

    def __getitem__(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise RewritingError(f"unknown view {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._views)

    def base_predicates(self) -> set[str]:
        """The predicates the view definitions are written over."""
        result: set[str] = set()
        for view in self:
            result |= view.query.predicates()
        return result

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(
        self, database: Database, names: Optional[Iterable[str]] = None
    ) -> Database:
        """The database extended with the stored relation of every view, or
        of the views in ``names`` only.

        Rewritten queries may join views against base dimension tables, so
        the materialized instance keeps the base facts alongside the view
        extents.  No view predicate of the catalog — materialized or not —
        may already occur in the base data.
        """
        clash = set(self._views) & set(database.predicates())
        if clash:
            names_text = ", ".join(sorted(clash))
            raise RewritingError(
                f"view name(s) {names_text} collide with base relations of the database"
            )
        views = list(self) if names is None else [self[name] for name in names]
        facts = []
        for view in views:
            for row in view.rows(database):
                facts.append((view.name, row))
        return database.add_facts(facts)

    @classmethod
    def from_mapping(cls, definitions: Mapping[str, Query]) -> "ViewCatalog":
        """Build a catalog from ``{name: definition}``."""
        return cls(View(name, query) for name, query in definitions.items())

    def __str__(self) -> str:
        return "\n".join(str(view) for view in self)
