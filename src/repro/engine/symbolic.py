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

Evaluation runs the compiled kernels of :mod:`repro.engine.compile` under
every engine mode (the ``naive`` reference exists only over concrete
databases): the symbolic database is interned into a columnar store whose id
order mirrors the block order of ``L``, so comparisons decided by the
ordering become integer comparisons on ids.  Symbolic ``Γ(q, S_L)`` is
memoized per ``(query, database)`` pair, so the thousands of evaluations
performed by one bounded-equivalence run (and across runs sharing subsets,
e.g. an equivalence matrix over a catalog) are each paid for once.

For *comparison-free* queries the memoization is sharper: the satisfying
assignments, groups, and answer multisets depend only on the canonical
relations of the predicates the query mentions (constants canonicalize to
themselves and block representatives ignore block order), so results are
keyed by that *restricted relation signature* instead of the full
``(atoms, ordering)`` pair.  One Γ computation is then shared across every
ordering of a block partition, across subsets that merge to the same
relations, and — with a catalog-wide BASE — across every catalog pair that
mentions the query.  :func:`symbolic_group_index` is the form the catalog
sweep compares: each query's groups as ``{key: Counter(bag)}``, interned by
content so that equal groups are one shared object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..caches import register_cache, run_registered_clears
from ..datalog.atoms import RelationalAtom
from ..datalog.database import Database
from ..datalog.queries import Query
from ..datalog.terms import Constant, Term, Variable
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
        representative, grouped by predicate."""
        representative = _representative_map(self.ordering)
        relations: dict[str, set[tuple[Term, ...]]] = {}
        for atom in self.atoms:
            row = tuple(representative[argument] for argument in atom.arguments)
            relations.setdefault(atom.predicate, set()).add(row)
        return {predicate: frozenset(rows) for predicate, rows in relations.items()}

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

    def instantiate(self) -> Database:
        """A concrete database δ(S) for the canonical satisfying assignment δ
        of the ordering."""
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

    def as_dict(self) -> dict[Variable, Term]:
        return dict(self.mapping)

    def term_of(self, term: Term, database: SymbolicDatabase) -> Term:
        if isinstance(term, Constant):
            return database.canonical(term)
        try:
            return self._lookup[term]  # type: ignore[attr-defined]
        except KeyError:
            raise EvaluationError(f"symbolic assignment does not bind {term}") from None

    def terms_of(self, terms, database: SymbolicDatabase) -> tuple[Term, ...]:
        return tuple(self.term_of(term, database) for term in terms)


@lru_cache(maxsize=4096)
def query_uses_comparisons(query: Query) -> bool:
    """Whether any disjunct of the query contains a comparison literal.

    Comparison-free queries admit the restricted-relation-signature caches
    below: their symbolic results cannot depend on the block *order* of the
    ordering, only on which terms it equates.
    """
    return any(disjunct.comparisons for disjunct in query.disjuncts)


@lru_cache(maxsize=4096)
def _query_predicates(query: Query) -> tuple[str, ...]:
    return tuple(sorted(query.predicates()))


def _signature_for(database: SymbolicDatabase, predicates: tuple[str, ...]) -> tuple:
    """The canonical relations of the database restricted to a predicate
    tuple, memoized on the database instance."""
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


def relation_signature(query: Query, database: SymbolicDatabase) -> tuple:
    """The canonical relations of the database restricted to the predicates
    the query mentions — the cache key under which comparison-free symbolic
    results are shared across orderings, subsets, and catalog pairs."""
    return _signature_for(database, _query_predicates(query))


#: Per-cache entry cap; dicts iterate in insertion order, so overflow evicts
#: the oldest quarter (bounded memory for long-lived processes sweeping many
#: catalogs, without the per-hit bookkeeping of a true LRU).
_SHARED_CACHE_LIMIT = 65536

_ASSIGNMENTS_BY_RELATIONS: dict[tuple, tuple[SymbolicAssignment, ...]] = {}
_GROUPS_BY_RELATIONS: dict[tuple, dict] = {}
_MULTISET_BY_RELATIONS: dict[tuple, dict] = {}
_ANSWER_COMPARISON_BY_RELATIONS: dict[tuple, bool] = {}
_GROUP_INDEX_BY_RELATIONS: dict[tuple, dict] = {}
_GROUP_INDEX_INTERN: dict[frozenset, dict] = {}

# Each shared table is registered under clear_symbolic_caches, which drops
# them together with the lru-backed memos and the Γ counters below.
register_cache("engine/symbolic.py:_ASSIGNMENTS_BY_RELATIONS", "clear_symbolic_caches",
               _ASSIGNMENTS_BY_RELATIONS.clear)
register_cache("engine/symbolic.py:_GROUPS_BY_RELATIONS", "clear_symbolic_caches",
               _GROUPS_BY_RELATIONS.clear)
register_cache("engine/symbolic.py:_MULTISET_BY_RELATIONS", "clear_symbolic_caches",
               _MULTISET_BY_RELATIONS.clear)
register_cache("engine/symbolic.py:_ANSWER_COMPARISON_BY_RELATIONS", "clear_symbolic_caches",
               _ANSWER_COMPARISON_BY_RELATIONS.clear)
register_cache("engine/symbolic.py:_GROUP_INDEX_BY_RELATIONS", "clear_symbolic_caches",
               _GROUP_INDEX_BY_RELATIONS.clear)
register_cache("engine/symbolic.py:_GROUP_INDEX_INTERN", "clear_symbolic_caches",
               _GROUP_INDEX_INTERN.clear)


def _shared_cache_put(cache: dict, key, value) -> None:
    if len(cache) >= _SHARED_CACHE_LIMIT:
        for stale in list(itertools.islice(iter(cache), _SHARED_CACHE_LIMIT // 4)):
            del cache[stale]
    cache[key] = value


def symbolic_cache_stats() -> dict[str, int]:
    """Hit/miss counters and sizes of the shared symbolic caches."""
    return {
        "shared_hits": _OBS.get("engine.gamma.shared_hits"),
        "shared_misses": _OBS.get("engine.gamma.shared_misses"),
        "assignments_entries": len(_ASSIGNMENTS_BY_RELATIONS),
        "groups_entries": len(_GROUPS_BY_RELATIONS),
        "multiset_entries": len(_MULTISET_BY_RELATIONS),
        "answer_comparison_entries": len(_ANSWER_COMPARISON_BY_RELATIONS),
    }


def _shares_by_relations(query: Query) -> bool:
    return not query_uses_comparisons(query)


def symbolic_satisfying_assignments(
    query: Query, database: SymbolicDatabase
) -> list[SymbolicAssignment]:
    """The symbolic counterpart of Γ(q, S_L)."""
    if _shares_by_relations(query):
        key = (query, relation_signature(query, database))
        cached = _ASSIGNMENTS_BY_RELATIONS.get(key)
        if cached is None:
            _OBS.inc("engine.gamma.shared_misses")
            cached = _compile.compiled_symbolic_assignments(query, database)
            _shared_cache_put(_ASSIGNMENTS_BY_RELATIONS, key, cached)
        else:
            _OBS.inc("engine.gamma.shared_hits")
        return list(cached)
    return list(_symbolic_assignments_cached(query, database))


@lru_cache(maxsize=16384)
def _symbolic_assignments_cached(
    query: Query, database: SymbolicDatabase
) -> tuple[SymbolicAssignment, ...]:
    return _compile.compiled_symbolic_assignments(query, database)


def clear_symbolic_caches() -> None:
    """Drop the memoized symbolic Γ(q, S_L) results (both keyings): the
    lru-backed memos by hand, the shared relation-signature tables through
    their cache-registry registrations."""
    _symbolic_assignments_cached.cache_clear()
    _representative_map.cache_clear()
    run_registered_clears("clear_symbolic_caches")
    _OBS.reset("engine.gamma.")


# ----------------------------------------------------------------------
# Groups and result signatures
# ----------------------------------------------------------------------
def symbolic_groups(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], list[tuple[Term, ...]]]:
    """For every symbolic group key d̄ (a tuple of block representatives), the
    bag of aggregation-variable tuples collected for that group.

    For comparison-free queries the result is cached by the restricted
    relation signature and shared; callers must treat it as read-only.
    Grouping happens on interned id keys inside the compiled driver, so Γ is
    never materialized as :class:`SymbolicAssignment` objects.
    """
    if _shares_by_relations(query):
        key = (query, relation_signature(query, database))
        cached = _GROUPS_BY_RELATIONS.get(key)
        if cached is None:
            cached = _compile.compiled_symbolic_groups(query, database)
            _shared_cache_put(_GROUPS_BY_RELATIONS, key, cached)
        return cached
    return _compile.compiled_symbolic_groups(query, database)


def symbolic_answer_multiset(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], int]:
    """For non-aggregate queries: the answer tuples with multiplicities
    (bag-set semantics, used by the bag-set equivalence reduction).

    Cached by restricted relation signature for comparison-free queries;
    callers must treat the result as read-only.
    """
    if _shares_by_relations(query):
        key = (query, relation_signature(query, database))
        cached = _MULTISET_BY_RELATIONS.get(key)
        if cached is None:
            cached = _compile.compiled_symbolic_multiset(query, database)
            _shared_cache_put(_MULTISET_BY_RELATIONS, key, cached)
        return cached
    return _compile.compiled_symbolic_multiset(query, database)


# ----------------------------------------------------------------------
# Group-comparison kernels (single-sweep catalog engine)
# ----------------------------------------------------------------------
@lru_cache(maxsize=16384)
def _pair_predicates(first: Query, second: Query) -> tuple[str, ...]:
    return tuple(sorted(set(_query_predicates(first)) | set(_query_predicates(second))))


def _pair_signature(first: Query, second: Query, database: SymbolicDatabase) -> tuple:
    """The canonical relations restricted to the union of the two queries'
    predicates — the key under which comparison results are shared."""
    return _signature_for(database, _pair_predicates(first, second))


def _shares_pair(first: Query, second: Query) -> bool:
    return not query_uses_comparisons(first) and not query_uses_comparisons(second)


def symbolic_group_index(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], "Counter"]:
    """``{group key: multiset of bag elements}`` for one query over one S_L —
    the canonical form under which group comparisons are one dict equality.
    Cached per (query, restricted relation signature), so the multisets are
    built O(catalog) times per sweep, not O(pairs), and *interned* by
    content: two queries producing equal groups over the same S_L share one
    index object, so the sweep's per-pair agreement check is an identity
    check.  Callers must treat the result as read-only.
    """
    if _shares_by_relations(query):
        key = (query, relation_signature(query, database))
        cached = _GROUP_INDEX_BY_RELATIONS.get(key)
        if cached is None:
            cached = _intern_group_index(_compute_group_index(query, database))
            _shared_cache_put(_GROUP_INDEX_BY_RELATIONS, key, cached)
        return cached
    return _compute_group_index(query, database)


def _intern_group_index(index: dict) -> dict:
    frozen = frozenset(
        (group_key, frozenset(counter.items())) for group_key, counter in index.items()
    )
    canonical = _GROUP_INDEX_INTERN.get(frozen)
    if canonical is None:
        _shared_cache_put(_GROUP_INDEX_INTERN, frozen, index)
        return index
    return canonical


def _compute_group_index(query: Query, database: SymbolicDatabase) -> dict:
    from collections import Counter

    return {
        group_key: Counter(bag)
        for group_key, bag in symbolic_groups(query, database).items()
    }


def compare_symbolic_answers(
    first: Query, second: Query, database: SymbolicDatabase, semantics: str
) -> bool:
    """Whether two non-aggregate queries produce the same symbolic answers
    over one ``S_L`` (as a set for ``"set"`` semantics, with multiplicities
    for ``"bag-set"``).

    For comparison-free pairs the result is cached by the pair's joint
    restricted relation signature, so one comparison serves every ordering of
    a block partition, every subset merging to the same canonical relations,
    and every (subset, ordering-class) cell of a catalog sweep that
    re-examines the pair.
    """
    if _shares_pair(first, second):
        key = (first, second, semantics, _pair_signature(first, second, database))
        cached = _ANSWER_COMPARISON_BY_RELATIONS.get(key)
        if cached is None:
            cached = _compute_answer_comparison(first, second, database, semantics)
            _shared_cache_put(_ANSWER_COMPARISON_BY_RELATIONS, key, cached)
        return cached
    return _compute_answer_comparison(first, second, database, semantics)


def _compute_answer_comparison(
    first: Query, second: Query, database: SymbolicDatabase, semantics: str
) -> bool:
    left = symbolic_answer_multiset(first, database)
    right = symbolic_answer_multiset(second, database)
    if semantics == "bag-set":
        return left == right
    return set(left) == set(right)
