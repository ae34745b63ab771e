"""Disjunctive aggregate and non-aggregate queries.

A query has the form ``q(x̄) ← A1 ∨ ... ∨ An`` and an aggregate query the form
``q(x̄, α(ȳ)) ← A1 ∨ ... ∨ An`` (Sections 3.1 and 3.3 of the paper), where

* each ``Ai`` is a safe condition containing all head variables,
* ``x̄`` are the grouping (distinguished) variables,
* ``ȳ`` are the aggregation variables, disjoint from ``x̄``,
* ``α`` is an aggregation function named in the aggregate term.

A query interns its disjuncts on construction and on unpickling
(:func:`~repro.datalog.conditions.intern_condition`), so equal disjuncts of
one process are one object.

The classes here are purely syntactic; evaluation lives in
:mod:`repro.engine` and the decision procedures in :mod:`repro.core`.  The
sum ≡ c·count rewriting (:func:`sum_count_reduction`) is syntactic too, so a
query keeps its count form, like its evaluation key, once computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..errors import MalformedQueryError, UnsafeQueryError
from .atoms import Comparison, ComparisonOp, RelationalAtom
from .canonical import evaluation_key
from .conditions import Condition, intern_condition
from .terms import Constant, Term, Variable, substitute_terms


@dataclass(frozen=True)
class AggregateTerm:
    """An aggregate term ``α(ȳ)`` appearing in a query head.

    ``function`` is the name of the aggregation function (resolved through
    :func:`repro.aggregates.get_function`); ``arguments`` are the aggregation
    variables, possibly empty (``count``, ``parity``).
    """

    function: str
    arguments: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", self.function.lower())
        object.__setattr__(self, "arguments", tuple(self.arguments))
        for argument in self.arguments:
            if not isinstance(argument, Variable):
                raise MalformedQueryError(
                    f"aggregation arguments must be variables, got {argument!r}"
                )

    @property
    def arity(self) -> int:
        return len(self.arguments)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "AggregateTerm":
        return AggregateTerm(
            self.function,
            tuple(mapping.get(argument, argument) for argument in self.arguments),
        )

    def __str__(self) -> str:
        if not self.arguments:
            return self.function
        args = ", ".join(str(argument) for argument in self.arguments)
        return f"{self.function}({args})"

    def __repr__(self) -> str:
        return f"AggregateTerm({str(self)!r})"


@dataclass(frozen=True)
class Query:
    """A disjunctive query, possibly carrying a single aggregate term.

    ``head_terms`` are the terms of the head *excluding* the aggregate term.
    They are normally variables (the grouping variables) but may contain
    constants for reduced queries (Section 7 notes that reduction can move
    constants into the head).
    """

    name: str
    head_terms: tuple[Term, ...]
    disjuncts: tuple[Condition, ...]
    aggregate: Optional[AggregateTerm] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "head_terms", tuple(self.head_terms))
        self._intern_disjuncts()
        self._validate()

    def _intern_disjuncts(self) -> None:
        object.__setattr__(
            self, "disjuncts", tuple(intern_condition(d) for d in self.disjuncts)
        )

    def __hash__(self) -> int:
        # Queries key every hot cache of the symbolic engine (Γ memoization,
        # group-comparison kernels); the generated dataclass hash re-walks
        # the whole AST per lookup, so it is computed once and cached.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.name, self.head_terms, self.disjuncts, self.aggregate))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __getstate__(self):
        # The cached structural hash must not cross process boundaries:
        # string hashing is salted per interpreter, so a pickled hash would
        # be wrong in a spawn-started worker.  Recompute lazily on first use.
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        return state

    def __setstate__(self, state) -> None:
        # Unpickling skips __post_init__: re-intern the disjuncts, so a
        # forked worker's copies map back to the canonical conditions its
        # parent already planned and compiled.
        self.__dict__.update(state)
        self._intern_disjuncts()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.name:
            raise MalformedQueryError("query name must be non-empty")
        if not self.disjuncts:
            raise MalformedQueryError("a query must have at least one disjunct")
        head_variables = self.grouping_variables()
        aggregation_variables = set(self.aggregation_variables())
        if head_variables & aggregation_variables:
            overlap = ", ".join(sorted(v.name for v in head_variables & aggregation_variables))
            raise MalformedQueryError(
                f"grouping and aggregation variables must be disjoint (overlap: {overlap})"
            )
        required = head_variables | aggregation_variables
        for index, disjunct in enumerate(self.disjuncts):
            if not disjunct.is_safe():
                raise UnsafeQueryError(f"disjunct {index} of query {self.name!r} is unsafe")
            missing = required - disjunct.variables()
            if missing:
                names = ", ".join(sorted(v.name for v in missing))
                raise MalformedQueryError(
                    f"disjunct {index} of query {self.name!r} is missing head variables: {names}"
                )

    # ------------------------------------------------------------------
    # Head structure
    # ------------------------------------------------------------------
    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None

    @property
    def aggregate_function(self) -> Optional[str]:
        return self.aggregate.function if self.aggregate else None

    def grouping_variables(self) -> set[Variable]:
        """The variables among the head terms (the grouping variables x̄)."""
        return {term for term in self.head_terms if isinstance(term, Variable)}

    def aggregation_variables(self) -> tuple[Variable, ...]:
        """The aggregation variables ȳ (empty tuple for non-aggregate queries
        and for nullary aggregation functions)."""
        return self.aggregate.arguments if self.aggregate else ()

    def head_variables(self) -> set[Variable]:
        return self.grouping_variables() | set(self.aggregation_variables())

    # ------------------------------------------------------------------
    # Classification (Sections 3 and 7)
    # ------------------------------------------------------------------
    @property
    def is_conjunctive(self) -> bool:
        """Whether the query has a single disjunct."""
        return len(self.disjuncts) == 1

    @property
    def is_positive(self) -> bool:
        """Whether no disjunct contains a negated relational atom."""
        return all(disjunct.is_positive for disjunct in self.disjuncts)

    @property
    def is_linear(self) -> bool:
        """Whether the query is conjunctive, positive, and no predicate occurs
        more than once (Section 7)."""
        if not self.is_conjunctive or not self.is_positive:
            return False
        atoms = self.disjuncts[0].positive_atoms
        predicates = [atom.predicate for atom in atoms]
        return len(predicates) == len(set(predicates))

    @property
    def is_quasilinear(self) -> bool:
        """Whether the query is conjunctive and no predicate that occurs in a
        positive literal occurs more than once (in particular, no predicate
        occurs both positively and negated) — Section 7."""
        if not self.is_conjunctive:
            return False
        disjunct = self.disjuncts[0]
        positive_predicates = [atom.predicate for atom in disjunct.positive_atoms]
        if len(positive_predicates) != len(set(positive_predicates)):
            return False
        return not (set(positive_predicates) & disjunct.negated_predicates())

    # ------------------------------------------------------------------
    # Variables, constants, predicates, sizes
    # ------------------------------------------------------------------
    def variables(self) -> set[Variable]:
        result: set[Variable] = set(self.grouping_variables())
        result |= set(self.aggregation_variables())
        for disjunct in self.disjuncts:
            result |= disjunct.variables()
        return result

    def constants(self) -> set[Constant]:
        result: set[Constant] = {
            term for term in self.head_terms if isinstance(term, Constant)
        }
        for disjunct in self.disjuncts:
            result |= disjunct.constants()
        return result

    def predicates(self) -> set[str]:
        result: set[str] = set()
        for disjunct in self.disjuncts:
            result |= disjunct.predicates()
        return result

    @property
    def sorted_predicates(self) -> tuple[str, ...]:
        """The predicates of the query, sorted (cached: the symbolic engine
        keys relation signatures by it on every ``S_L``)."""
        cached = self.__dict__.get("_cached_sorted_predicates")
        if cached is None:
            cached = tuple(sorted(self.predicates()))
            object.__setattr__(self, "_cached_sorted_predicates", cached)
        return cached

    @property
    def uses_comparisons(self) -> bool:
        """Whether any disjunct contains a comparison literal (cached).

        Comparison-free queries admit the symbolic engine's
        restricted-relation-signature cache: their symbolic results cannot
        depend on the block *order* of an ordering, only on which terms it
        equates.
        """
        cached = self.__dict__.get("_cached_uses_comparisons")
        if cached is None:
            cached = any(disjunct.comparisons for disjunct in self.disjuncts)
            object.__setattr__(self, "_cached_uses_comparisons", cached)
        return cached

    @property
    def evaluation_key(self) -> str:
        """The query's canonical serialization without its name (cached):
        equal exactly for isomorphic queries — equal up to variable names,
        literal order and duplicates within a disjunct, disjunct order, and
        comparison orientation (:mod:`repro.datalog.canonical`).

        Isomorphic queries have the same group index over every ``S_L``, so
        the symbolic engine keys its shared cache by this string and the
        catalog sweep decides each isomorphism class once.  No reduction
        runs: the key preserves the group index, not only equivalence.
        """
        cached = self.__dict__.get("_cached_evaluation_key")
        if cached is None:
            cached = evaluation_key(self)
            object.__setattr__(self, "_cached_evaluation_key", cached)
        return cached

    @property
    def count_form(self) -> Optional[tuple["Query", Constant, Optional[str]]]:
        """The query's :func:`sum_count_reduction` (cached): the dispatcher
        reads both count forms of every pair it routes."""
        if "_cached_count_form" not in self.__dict__:
            object.__setattr__(self, "_cached_count_form", sum_count_reduction(self))
        return self.__dict__["_cached_count_form"]

    @property
    def vocabulary(self) -> tuple[frozenset, frozenset, int, bool]:
        """What a local search over the query reads (cached): its
        ``(predicate, arity)`` pairs, its constants, its variable size and
        whether it compares."""
        cached = self.__dict__.get("_cached_vocabulary")
        if cached is None:
            cached = (
                frozenset(self.predicate_arities().items()),
                frozenset(self.constants()),
                self.variable_size,
                self.uses_comparisons,
            )
            object.__setattr__(self, "_cached_vocabulary", cached)
        return cached

    def predicate_arities(self) -> dict[str, int]:
        """Map each predicate occurring in the query to its arity.

        Raises :class:`MalformedQueryError` when a predicate is used with two
        different arities.
        """
        arities: dict[str, int] = {}
        for disjunct in self.disjuncts:
            for atom in disjunct.relational_atoms:
                known = arities.get(atom.predicate)
                if known is None:
                    arities[atom.predicate] = atom.arity
                elif known != atom.arity:
                    raise MalformedQueryError(
                        f"predicate {atom.predicate!r} used with arities {known} and {atom.arity}"
                    )
        return arities

    @property
    def variable_size(self) -> int:
        """The maximum number of variables of any disjunct (Section 4)."""
        return max(disjunct.variable_size for disjunct in self.disjuncts)

    @property
    def term_size(self) -> int:
        """τ(q): the number of constants in the query plus its variable size."""
        return len(self.constants()) + self.variable_size

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def rename_variables(self, mapping: Mapping[Variable, Variable]) -> "Query":
        """Apply a variable renaming to the whole query (head and body)."""
        head = substitute_terms(self.head_terms, mapping)
        aggregate = self.aggregate.rename(dict(mapping)) if self.aggregate else None
        disjuncts = tuple(disjunct.substitute(mapping) for disjunct in self.disjuncts)
        return Query(self.name, head, disjuncts, aggregate)

    def standardize_apart(self, taken: Iterable[Variable], prefix: str = "v") -> "Query":
        """Rename variables so that none of them occurs in ``taken``."""
        taken_names = {variable.name for variable in taken}
        mapping: dict[Variable, Variable] = {}
        counter = itertools.count()
        for variable in sorted(self.variables()):
            if variable.name in taken_names:
                while True:
                    candidate = Variable(f"{prefix}{next(counter)}")
                    if candidate.name not in taken_names and candidate not in self.variables():
                        break
                mapping[variable] = candidate
                taken_names.add(candidate.name)
        if not mapping:
            return self
        return self.rename_variables(mapping)

    def with_disjuncts(self, disjuncts: Sequence[Condition]) -> "Query":
        return Query(self.name, self.head_terms, tuple(disjuncts), self.aggregate)

    def with_aggregate(self, aggregate: Optional[AggregateTerm]) -> "Query":
        return Query(self.name, self.head_terms, self.disjuncts, aggregate)

    def without_aggregate(self) -> "Query":
        """The non-aggregate projection q̂ of the query (Section 7): the same
        body with the aggregate term removed from the head."""
        return Query(self.name, self.head_terms, self.disjuncts, None)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def head_string(self) -> str:
        parts = [str(term) for term in self.head_terms]
        if self.aggregate is not None:
            parts.append(str(self.aggregate))
        return f"{self.name}({', '.join(parts)})"

    def __str__(self) -> str:
        body = " ; ".join(str(disjunct) for disjunct in self.disjuncts)
        return f"{self.head_string()} :- {body}"

    def __repr__(self) -> str:
        return f"Query({str(self)!r})"


def term_size_of_pair(first: Query, second: Query) -> int:
    """τ(q, q'): the number of constants occurring in at least one of the
    queries plus the maximum of their variable sizes (Section 4)."""
    constants = first.constants() | second.constants()
    return len(constants) + max(first.variable_size, second.variable_size)


def catalog_predicate_arities(queries: Iterable[Query]) -> dict[str, int]:
    """The predicates (with arities) occurring in any of the queries, checking
    that shared predicates are used with consistent arities."""
    arities: dict[str, int] = {}
    for query in queries:
        for predicate, arity in query.predicate_arities().items():
            known = arities.get(predicate)
            if known is None:
                arities[predicate] = arity
            elif known != arity:
                raise MalformedQueryError(
                    f"predicate {predicate!r} used with arities {known} and {arity}"
                )
    return arities


def combined_predicate_arities(first: Query, second: Query) -> dict[str, int]:
    """The predicates (with arities) occurring in either query, checking that
    shared predicates are used with consistent arities."""
    return catalog_predicate_arities((first, second))


def _equality_closure(disjunct, term) -> set:
    """The equality class of ``term`` under the disjunct's ``=`` comparisons:
    every term reachable through a chain like ``y = z, z = 1`` (constants are
    traversed too, so ``y = 1, 1 = w, w = c`` connects ``y`` with ``c``)."""
    adjacency: dict[object, set] = {}
    for comparison in disjunct.comparisons:
        if comparison.op is ComparisonOp.EQ:
            adjacency.setdefault(comparison.left, set()).add(comparison.right)
            adjacency.setdefault(comparison.right, set()).add(comparison.left)
    seen = {term}
    frontier = [term]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency.get(current, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def aggregation_pin(query: Query) -> Optional[Constant]:
    """The constant every disjunct pins the sum's aggregation variable to,
    propagated through equality chains (``y = 1`` but also ``y = z, z = 1``
    and longer chains).

    Returns ``None`` unless the query is a unary ``sum`` and every disjunct's
    equality closure of the aggregation variable contains exactly one
    constant, the same in all disjuncts, and that constant is nonzero.  Two
    distinct constants in one closure make the disjunct unsatisfiable; the
    rewriting stays out of that corner (a dead disjunct is better surfaced by
    the decision procedures than silently normalized).  A pin to 0 is also
    excluded: a sum pinned to 0 returns 0 for every group, so its equivalence
    with another query degenerates to agreement of the group-key sets —
    count-equivalence is strictly stronger and a NOT_EQUIVALENT verdict on
    the count forms would not transfer back.
    """
    aggregate = query.aggregate
    if aggregate is None or aggregate.function != "sum" or len(aggregate.arguments) != 1:
        return None
    variable = aggregate.arguments[0]
    pin: Optional[Constant] = None
    for disjunct in query.disjuncts:
        constants = {
            term for term in _equality_closure(disjunct, variable) if isinstance(term, Constant)
        }
        if len(constants) != 1:
            return None
        (constant,) = constants
        if constant.value == 0:
            return None
        if pin is None:
            pin = constant
        elif pin != constant:
            # Disjuncts pinning to different constants: sum ≡ c·count needs
            # per-disjunct agreement on c, otherwise no single multiplier
            # relates the two aggregates.
            return None
    return pin


def sum_count_reduction(query: Query) -> Optional[tuple[Query, Constant, Optional[str]]]:
    """The count form of a query, when it has one: ``(count_query, c, note)``
    such that the query returns ``c · count_query`` on every database.

    A ``count()`` query is its own count form with multiplier 1 (and no
    note); a ``sum`` query whose aggregation variable is pinned to a nonzero
    constant ``c`` in every disjunct (see :func:`aggregation_pin`) reduces to
    the same body with ``count()`` in the head and multiplier ``c``.  Other
    queries have no count form.
    """
    aggregate = query.aggregate
    if aggregate is None:
        return None
    if aggregate.function == "count":
        return query, Constant(1), None
    pin = aggregation_pin(query)
    if pin is None:
        return None
    variable = query.aggregate.arguments[0]
    rewritten = query.with_aggregate(AggregateTerm("count", ()))
    if pin.value == 1:
        note = f"sum({variable}) with {variable} = 1 rewritten to count()"
    else:
        note = f"sum({variable}) with {variable} = {pin} rewritten to {pin}·count()"
    return rewritten, pin, note


def equality(left: Term, right: Term) -> Comparison:
    """Convenience constructor for an equality comparison."""
    return Comparison(left, ComparisonOp.EQ, right)


def conjunctive_query(
    name: str,
    head_terms: Sequence[Term],
    literals: Sequence,
    aggregate: Optional[AggregateTerm] = None,
) -> Query:
    """Build a conjunctive (single-disjunct) query from a literal list."""
    return Query(name, tuple(head_terms), (Condition(tuple(literals)),), aggregate)
