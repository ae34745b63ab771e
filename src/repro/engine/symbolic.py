"""Symbolic evaluation over databases of the form S_L (Theorem 4.8).

The bounded-equivalence procedure does not enumerate concrete databases
(there are infinitely many); instead it enumerates subsets ``S`` of the finite
atom universe BASE together with a complete ordering ``L`` of the term set
``T``, and evaluates the queries *symbolically* over the pair ``S_L``:
variables of the query are mapped to terms of ``T`` rather than to values,
comparisons are decided by ``L``, and groups collect *bags of term tuples*
whose equality is then settled by the ordered-identity deciders.

Terms that ``L`` makes equal are identified by mapping every term to the
representative of its block, so a subset ``S`` paired with an ordering that
equates terms behaves exactly like its instantiation with a non-injective
assignment.

Evaluation runs the compiled kernels of :mod:`repro.engine.compile` (the
naive reference exists only over concrete databases): the symbolic database is interned into a columnar store whose id
order mirrors the block order of ``L``, so comparisons decided by the
ordering become integer comparisons on ids.

The one form the bounded-equivalence sweep asks for is
:func:`symbolic_group_index`: each query's groups as ``{key: Counter(bag)}``.
A non-aggregate query is the same form with ``()`` bag elements (its
answers with multiplicities, as in the ``count`` reduction of Section 8), so
aggregate and non-aggregate pairs are compared on one result.  For
*comparison-free* queries the index depends only on the canonical relations
of the predicates the query mentions (constants canonicalize to themselves
and block representatives ignore block order), so it is keyed by that
*restricted relation signature* instead of the full ``(atoms, ordering)``
pair, and the query by its rename-only
:attr:`~repro.datalog.queries.Query.evaluation_key` instead of its AST:
isomorphic queries (equal up to variable names, literal and disjunct order,
duplicate literals and comparison orientation) have the same index over
every ``S_L``.  One computation is then shared across every ordering of a
block partition, across subsets that merge to the same relations, across
every member of an isomorphism class, and across sweep groups and session
deltas.  Cached indexes are interned by content, so equal groups are one
shared object.

No cache here is keyed by a ``Query``: whether a query uses comparisons,
its sorted predicate tuple and its evaluation key are lazily cached
attributes of the query itself
(:attr:`~repro.datalog.queries.Query.uses_comparisons`,
:attr:`~repro.datalog.queries.Query.sorted_predicates`,
:attr:`~repro.datalog.queries.Query.evaluation_key`), and its disjuncts
are interned conditions, so the plan and kernel lookups behind every
evaluation hit on identity.

:func:`symbolic_satisfying_assignments`, :func:`symbolic_groups` and
:func:`symbolic_answer_multiset` are uncached views kept for callers and for
the oracle tests that check them against the definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..caches import put_bounded, register_cache, run_registered_clears
from ..datalog.atoms import RelationalAtom
from ..datalog.database import Database
from ..datalog.queries import Query
from ..datalog.terms import Constant, Term, Variable
from ..domains import NumericValue
from ..errors import EvaluationError
from ..obs import REGISTRY as _OBS
from ..orderings.complete_orderings import CompleteOrdering
from . import compile as _compile
from .planner import plan_condition  # noqa: F401 -- unused; perfbench/layers.py wraps this binding


@lru_cache(maxsize=8192)
def _representative_map(ordering: CompleteOrdering) -> dict[Term, Term]:
    """Every term of the ordering mapped to its block representative.

    One bounded-equivalence run pairs each of its (few) orderings with
    thousands of subsets; computing the map once per ordering keeps the
    per-subset canonicalization a plain dict lookup.
    """
    mapping: dict[Term, Term] = {}
    for index, block in enumerate(ordering.blocks):
        representative = ordering.representative(index)
        for term in block:
            mapping[term] = representative
    return mapping


@dataclass(frozen=True)
class SymbolicDatabase:
    """A subset of BASE together with a complete ordering of the term set."""

    atoms: frozenset[RelationalAtom]
    ordering: CompleteOrdering

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        for atom in self.atoms:
            if atom.negated:
                raise EvaluationError("symbolic databases contain positive atoms only")

    def canonical(self, term: Term) -> Term:
        """The representative of the term's block under the ordering."""
        try:
            return _representative_map(self.ordering)[term]
        except KeyError:
            raise KeyError(f"term {term} does not occur in this ordering") from None

    @cached_property
    def canonical_relations(self) -> dict[str, frozenset[tuple[Term, ...]]]:
        """The atoms of the database with every term replaced by its block
        representative, grouped by predicate.  The same pass records
        :attr:`relation_arities`."""
        representative = _representative_map(self.ordering)
        relations: dict[str, set[tuple[Term, ...]]] = {}
        for atom in self.atoms:
            row = tuple(representative[argument] for argument in atom.arguments)
            relations.setdefault(atom.predicate, set()).add(row)
        # cached_property stores in the instance dict, as this does.
        self.__dict__["relation_arities"] = {
            predicate: frozenset(map(len, rows)) for predicate, rows in relations.items()
        }
        return {predicate: frozenset(rows) for predicate, rows in relations.items()}

    @cached_property
    def relation_arities(self) -> dict[str, frozenset[int]]:
        """``{predicate: the lengths of its rows}``, recorded by the pass
        that builds :attr:`canonical_relations` (reached here only before
        that pass has run)."""
        self.canonical_relations  # noqa: B018 - the pass records the arities
        return self.__dict__["relation_arities"]

    @cached_property
    def carrier_terms(self) -> frozenset[Term]:
        """The block representatives occurring in the database — the symbolic
        counterpart of the carrier of the instantiated database."""
        carrier: set[Term] = set()
        for rows in self.canonical_relations.values():
            for row in rows:
                carrier.update(row)
        return frozenset(carrier)

    @cached_property
    def _signature_memo(self) -> dict[tuple[str, ...], tuple]:
        # Restricted relation signatures by predicate tuple.  One database
        # instance serves every query and pair of a catalog sweep, so the
        # per-(S, L) signatures are built once instead of once per cell.
        return {}

    def relation(self, predicate: str) -> frozenset[tuple[Term, ...]]:
        return self.canonical_relations.get(predicate, frozenset())

    def contains(self, predicate: str, row: tuple[Term, ...]) -> bool:
        return row in self.canonical_relations.get(predicate, frozenset())

    def instantiate(self, assignment: "dict[Term, NumericValue] | None" = None) -> Database:
        """The concrete database σ(S) for a satisfying assignment σ of the
        ordering — by default δ(S), for the canonical assignment δ."""
        if assignment is None:
            assignment = self.ordering.instantiate()
        facts = []
        for atom in self.atoms:
            values = tuple(
                argument.value if isinstance(argument, Constant) else assignment[argument]
                for argument in atom.arguments
            )
            facts.append((atom.predicate, values))
        return Database(facts)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class SymbolicAssignment:
    """An assignment of query variables to block representatives, labeled with
    the disjunct it satisfies."""

    mapping: tuple[tuple[Variable, Term], ...]
    disjunct_index: int

    def __post_init__(self) -> None:
        # Dict-backed lookup for term_of; equality and hashing still use the
        # canonical sorted tuple.
        object.__setattr__(self, "_lookup", dict(self.mapping))

    def term_of(self, term: Term, database: SymbolicDatabase) -> Term:
        if isinstance(term, Constant):
            return database.canonical(term)
        try:
            return self._lookup[term]  # type: ignore[attr-defined]
        except KeyError:
            raise EvaluationError(f"symbolic assignment does not bind {term}") from None

    def terms_of(self, terms, database: SymbolicDatabase) -> tuple[Term, ...]:
        return tuple(self.term_of(term, database) for term in terms)


def relation_signature(query: Query, database: SymbolicDatabase) -> tuple:
    """The canonical relations of the database restricted to the predicates
    the query mentions — the cache key under which comparison-free group
    indexes are shared across orderings, subsets, and catalog pairs.
    Memoized on the database instance per predicate tuple."""
    predicates = query.sorted_predicates
    memo = database._signature_memo
    signature = memo.get(predicates)
    if signature is None:
        relations = database.canonical_relations
        empty: frozenset = frozenset()
        signature = tuple(
            (predicate, relations.get(predicate, empty)) for predicate in predicates
        )
        memo[predicates] = signature
    return signature


#: Per-cache entry cap; overflow evicts the oldest quarter (``put_bounded``).
_SHARED_CACHE_LIMIT = 65536

_GROUP_INDEX_BY_RELATIONS: dict[tuple, dict] = {}
_GROUP_INDEX_INTERN: dict[frozenset, dict] = {}

# Both tables are registered under clear_symbolic_caches, which drops them
# together with the representative-map memo and the Γ counters below.
register_cache("engine/symbolic.py:_GROUP_INDEX_BY_RELATIONS", "clear_symbolic_caches",
               _GROUP_INDEX_BY_RELATIONS.clear)
register_cache("engine/symbolic.py:_GROUP_INDEX_INTERN", "clear_symbolic_caches",
               _GROUP_INDEX_INTERN.clear)


def symbolic_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the shared group-index table and the sizes of
    both symbolic tables."""
    return {
        "shared_hits": _OBS.get("engine.gamma.shared_hits"),
        "shared_misses": _OBS.get("engine.gamma.shared_misses"),
        "group_index_entries": len(_GROUP_INDEX_BY_RELATIONS),
        "interned_indexes": len(_GROUP_INDEX_INTERN),
    }


def clear_symbolic_caches() -> None:
    """Drop the memoized symbolic results: the representative-map memo by
    hand, the group-index tables through their cache-registry
    registrations."""
    _representative_map.cache_clear()
    run_registered_clears("clear_symbolic_caches")
    _OBS.reset("engine.gamma.")


# ----------------------------------------------------------------------
# Uncached views (the oracle tests check these against the definition)
# ----------------------------------------------------------------------
def symbolic_satisfying_assignments(
    query: Query, database: SymbolicDatabase
) -> list[SymbolicAssignment]:
    """The symbolic counterpart of Γ(q, S_L)."""
    return list(_compile.compiled_symbolic_assignments(query, database))


def symbolic_groups(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], list[tuple[Term, ...]]]:
    """For every symbolic group key d̄ (a tuple of block representatives), the
    bag of aggregation-variable tuples collected for that group."""
    return {
        group_key: list(bag.elements())
        for group_key, bag in _compile.compiled_symbolic_group_index(query, database).items()
    }


def symbolic_answer_multiset(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], int]:
    """For non-aggregate queries: the answer tuples with multiplicities
    (bag-set semantics over S_L; the decision procedures compare bag-set
    answers through the ``count``-queries instead)."""
    return {
        answer: sum(bag.values())
        for answer, bag in _compile.compiled_symbolic_group_index(query, database).items()
    }


# ----------------------------------------------------------------------
# The group index: the one form the sweep compares
# ----------------------------------------------------------------------
def symbolic_group_index(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], Counter]:
    """``{group key: multiset of bag elements}`` for one query over one S_L —
    the canonical form under which group comparisons are one dict equality.
    A non-aggregate query's bags hold ``()`` elements, so its index maps each
    answer to ``Counter({(): multiplicity})``: the set of answers is the key
    set and the answer multiset the whole index.

    For comparison-free queries the index is cached per (evaluation key,
    restricted relation signature): isomorphic queries share one entry, so
    it is built once per isomorphism class and relation signature — across
    orderings, subsets, sweep groups and session deltas — and *interned* by
    content: two queries producing equal groups over the same S_L share one
    index object, so the sweep's per-pair agreement check is an identity
    check.  Callers must treat the result as read-only.
    """
    if query.uses_comparisons:
        return _compile.compiled_symbolic_group_index(query, database)
    key = (query.evaluation_key, relation_signature(query, database))
    cached = _GROUP_INDEX_BY_RELATIONS.get(key)
    if cached is None:
        _OBS.inc("engine.gamma.shared_misses")
        cached = _intern_group_index(_compile.compiled_symbolic_group_index(query, database))
        put_bounded(_GROUP_INDEX_BY_RELATIONS, key, cached, _SHARED_CACHE_LIMIT)
    else:
        _OBS.inc("engine.gamma.shared_hits")
    return cached


def _intern_group_index(index: dict) -> dict:
    frozen = frozenset(
        (group_key, frozenset(counter.items())) for group_key, counter in index.items()
    )
    canonical = _GROUP_INDEX_INTERN.get(frozen)
    if canonical is None:
        put_bounded(_GROUP_INDEX_INTERN, frozen, index, _SHARED_CACHE_LIMIT)
        return index
    return canonical
