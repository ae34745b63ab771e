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

The engine executes the same plans as the concrete engine (see
:mod:`repro.engine.planner`): positive atoms are matched by probing hash
indexes of the canonical relations on the already-bound columns, and
comparisons — decided by the ordering ``L`` rather than by numeric values —
and negated atoms filter as soon as their variables are bound.  Symbolic
``Γ(q, S_L)`` is memoized per ``(query, database)`` pair, so the thousands of
evaluations performed by one bounded-equivalence run (and across runs sharing
subsets, e.g. an equivalence matrix over a catalog) are each paid for once.

For *comparison-free* queries the memoization is sharper: the satisfying
assignments, groups, and answer multisets depend only on the canonical
relations of the predicates the query mentions (constants canonicalize to
themselves and block representatives ignore block order), so results are
keyed by that *restricted relation signature* instead of the full
``(atoms, ordering)`` pair.  One Γ computation is then shared across every
ordering of a block partition, across subsets that merge to the same
relations, and — with a catalog-wide BASE — across every catalog pair that
mentions the query (the ROADMAP's shared-BASE item).
:func:`catalog_symbolic_groups` is the batched, BASE-sharing entry point that
evaluates a whole catalog over one ``S_L`` through that cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, Optional

from ..caches import register_cache, run_registered_clears
from ..datalog.atoms import RelationalAtom
from ..datalog.conditions import Condition
from ..datalog.database import Database, build_column_index
from ..datalog.queries import Query
from ..datalog.terms import Constant, Term, Variable
from ..errors import EvaluationError
from ..obs import REGISTRY as _OBS
from ..orderings.complete_orderings import CompleteOrdering
from . import compile as _compile
from .modes import ENGINE_COMPILED, active_engine
from .planner import AtomStep, BindStep, CompareStep, NegationStep, Plan, plan_condition


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
    def _indexes(self) -> dict[tuple[str, tuple[int, ...]], dict[tuple, tuple[tuple, ...]]]:
        return {}

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

    def index(
        self, predicate: str, columns: tuple[int, ...]
    ) -> Mapping[tuple, tuple[tuple, ...]]:
        """A hash index of the canonical relation on the given columns, built
        lazily and cached (the database is immutable, so it never goes stale).
        Keys and rows hold block representatives, mirroring
        :meth:`repro.datalog.database.Database.index`."""
        key = (predicate, columns)
        cached = self._indexes.get(key)
        if cached is None:
            cached = build_column_index(
                self.canonical_relations.get(predicate, frozenset()), columns
            )
            self._indexes[key] = cached
        return cached

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

    @classmethod
    def from_dict(cls, mapping: Mapping[Variable, Term], disjunct_index: int):
        ordered = tuple(sorted(mapping.items(), key=lambda item: item[0].name))
        return cls(ordered, disjunct_index)

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
_GROUP_COMPARISON_BY_RELATIONS: dict[tuple, "GroupComparison"] = {}
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
register_cache("engine/symbolic.py:_GROUP_COMPARISON_BY_RELATIONS", "clear_symbolic_caches",
               _GROUP_COMPARISON_BY_RELATIONS.clear)
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
        "group_comparison_entries": len(_GROUP_COMPARISON_BY_RELATIONS),
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
            cached = _compute_symbolic_assignments(query, database)
            _shared_cache_put(_ASSIGNMENTS_BY_RELATIONS, key, cached)
        else:
            _OBS.inc("engine.gamma.shared_hits")
        return list(cached)
    return list(_symbolic_assignments_cached(query, database))


@lru_cache(maxsize=16384)
def _symbolic_assignments_cached(
    query: Query, database: SymbolicDatabase
) -> tuple[SymbolicAssignment, ...]:
    return _compute_symbolic_assignments(query, database)


def _compute_symbolic_assignments(
    query: Query, database: SymbolicDatabase
) -> tuple[SymbolicAssignment, ...]:
    # ``naive`` has no symbolic counterpart (the reference engine only exists
    # over concrete databases), so anything but ``compiled`` runs the plan
    # interpreter below.
    if active_engine() == ENGINE_COMPILED:
        return _compile.compiled_symbolic_assignments(query, database)
    results: list[SymbolicAssignment] = []
    for index, disjunct in enumerate(query.disjuncts):
        plan = plan_condition(disjunct, lambda predicate: len(database.relation(predicate)))
        for mapping in execute_symbolic_plan(plan, database):
            results.append(SymbolicAssignment.from_dict(mapping, index))
    return tuple(results)


def clear_symbolic_caches() -> None:
    """Drop the memoized symbolic Γ(q, S_L) results (both keyings): the
    lru-backed memos by hand, the shared relation-signature tables through
    their cache-registry registrations."""
    _symbolic_assignments_cached.cache_clear()
    _representative_map.cache_clear()
    run_registered_clears("clear_symbolic_caches")
    _OBS.reset("engine.gamma.")


# ----------------------------------------------------------------------
# Plan execution (symbolic engine)
# ----------------------------------------------------------------------
def execute_symbolic_plan(
    plan: Plan, database: SymbolicDatabase
) -> Iterator[dict[Variable, Term]]:
    """Enumerate the symbolic assignments satisfying the plan's condition.

    Identical in structure to the concrete executor, except that terms are
    block representatives (constants canonicalize through the ordering) and
    comparisons are decided by the ordering ``L`` instead of numerically.
    """
    if not plan.resolvable:
        return
    ordering = database.ordering
    partials: list[dict[Variable, Term]] = [{}]
    for step in plan.steps:
        if isinstance(step, AtomStep):
            partials = _join_symbolic_atom(step, database, partials)
        elif isinstance(step, BindStep):
            source = step.source
            if isinstance(source, Constant):
                value = database.canonical(source)
                for partial in partials:
                    partial[step.variable] = value
            else:
                for partial in partials:
                    partial[step.variable] = partial[source]
        elif isinstance(step, CompareStep):
            comparison = step.comparison
            partials = [
                partial
                for partial in partials
                if ordering.satisfies(
                    type(comparison)(
                        _require_symbolic(comparison.left, partial, database),
                        comparison.op,
                        _require_symbolic(comparison.right, partial, database),
                    )
                )
            ]
        else:  # NegationStep
            atom = step.atom
            partials = [
                partial
                for partial in partials
                if not database.contains(
                    atom.predicate,
                    tuple(
                        _require_symbolic(argument, partial, database)
                        for argument in atom.arguments
                    ),
                )
            ]
        if not partials:
            return
    yield from partials


def _join_symbolic_atom(
    step: AtomStep, database: SymbolicDatabase, partials: list[dict[Variable, Term]]
) -> list[dict[Variable, Term]]:
    atom = step.atom
    extended: list[dict[Variable, Term]] = []
    if step.bound_columns:
        index = database.index(atom.predicate, step.bound_columns)
        arguments = [atom.arguments[column] for column in step.bound_columns]
        for partial in partials:
            key = tuple(_require_symbolic(argument, partial, database) for argument in arguments)
            for row in index.get(key, ()):
                match = _match_symbolic_atom(atom, row, partial, database)
                if match is not None:
                    extended.append(match)
    else:
        relation = database.relation(atom.predicate)
        for partial in partials:
            for row in relation:
                match = _match_symbolic_atom(atom, row, partial, database)
                if match is not None:
                    extended.append(match)
    return extended


def _match_symbolic_atom(
    atom: RelationalAtom,
    row: tuple[Term, ...],
    partial: Mapping[Variable, Term],
    database: SymbolicDatabase,
) -> Optional[dict[Variable, Term]]:
    if len(row) != atom.arity:
        return None
    extended = dict(partial)
    for argument, value in zip(atom.arguments, row):
        if isinstance(argument, Constant):
            if database.canonical(argument) != value:
                return None
        else:
            bound = extended.get(argument)
            if bound is None:
                extended[argument] = value
            elif bound != value:
                return None
    return extended


def _maybe_symbolic(
    term: Term, assignment: Mapping[Variable, Term], database: SymbolicDatabase
) -> Optional[Term]:
    if isinstance(term, Constant):
        return database.canonical(term)
    return assignment.get(term)


def _require_symbolic(
    term: Term, assignment: Mapping[Variable, Term], database: SymbolicDatabase
) -> Term:
    value = _maybe_symbolic(term, assignment, database)
    if value is None:
        raise EvaluationError(f"unbound term {term} during symbolic evaluation")
    return value


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
    """
    if _shares_by_relations(query):
        key = (query, relation_signature(query, database))
        cached = _GROUPS_BY_RELATIONS.get(key)
        if cached is None:
            cached = _compute_symbolic_groups(query, database)
            _shared_cache_put(_GROUPS_BY_RELATIONS, key, cached)
        return cached
    return _compute_symbolic_groups(query, database)


def _compute_symbolic_groups(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], list[tuple[Term, ...]]]:
    if active_engine() == ENGINE_COMPILED:
        # Grouping happens on interned id keys inside the compiled driver;
        # Γ is never materialized as SymbolicAssignment objects.
        return _compile.compiled_symbolic_groups(query, database)
    aggregation_variables = query.aggregation_variables()
    groups: dict[tuple[Term, ...], list[tuple[Term, ...]]] = {}
    for assignment in symbolic_satisfying_assignments(query, database):
        key = assignment.terms_of(query.head_terms, database)
        bag_element = assignment.terms_of(aggregation_variables, database)
        groups.setdefault(key, []).append(bag_element)
    return groups


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
            cached = _compute_answer_multiset(query, database)
            _shared_cache_put(_MULTISET_BY_RELATIONS, key, cached)
        return cached
    return _compute_answer_multiset(query, database)


def _compute_answer_multiset(
    query: Query, database: SymbolicDatabase
) -> dict[tuple[Term, ...], int]:
    if active_engine() == ENGINE_COMPILED:
        return _compile.compiled_symbolic_multiset(query, database)
    result: dict[tuple[Term, ...], int] = {}
    for assignment in symbolic_satisfying_assignments(query, database):
        key = assignment.terms_of(query.head_terms, database)
        result[key] = result.get(key, 0) + 1
    return result


def catalog_symbolic_groups(
    queries: Mapping[str, Query], database: SymbolicDatabase
) -> dict[str, dict[tuple[Term, ...], list[tuple[Term, ...]]]]:
    """BASE-sharing entry point: the symbolic groups of every query of a
    catalog over one ``S_L``.

    When the catalog is checked pairwise over a shared BASE (see
    :class:`repro.core.bounded.SharedBaseContext`), each Γ(q, S_L) is computed
    once here and every pair mentioning ``q`` reuses it through the
    restricted-relation-signature cache.
    """
    return {name: symbolic_groups(query, database) for name, query in queries.items()}


# ----------------------------------------------------------------------
# Group-comparison kernels (single-sweep catalog engine)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupComparison:
    """The ordering-independent part of comparing two queries over one S_L.

    ``keys_match`` is whether the two queries produce the same group keys;
    ``residual`` lists the groups whose bags differ *as multisets* — only
    those can fail an ordered identity (``α(B) = α(B)`` is trivially valid),
    so only those need the per-ordering deciders.  An instance with matching
    keys and an empty residual certifies agreement under *every* ordering of
    the block partition.
    """

    keys_match: bool
    residual: tuple[tuple[tuple[Term, ...], tuple[tuple[Term, ...], ...], tuple[tuple[Term, ...], ...]], ...] = ()

    @property
    def agree_everywhere(self) -> bool:
        return self.keys_match and not self.residual


@lru_cache(maxsize=16384)
def _pair_predicates(first: Query, second: Query) -> tuple[str, ...]:
    return tuple(sorted(set(_query_predicates(first)) | set(_query_predicates(second))))


def _pair_signature(first: Query, second: Query, database: SymbolicDatabase) -> tuple:
    """The canonical relations restricted to the union of the two queries'
    predicates — the key under which comparison results are shared."""
    return _signature_for(database, _pair_predicates(first, second))


def _shares_pair(first: Query, second: Query) -> bool:
    return not query_uses_comparisons(first) and not query_uses_comparisons(second)


def compare_symbolic_groups(
    first: Query, second: Query, database: SymbolicDatabase
) -> GroupComparison:
    """Compare the symbolic groups of two aggregate queries over one ``S_L``,
    separating the ordering-independent part (group keys and multiset-equal
    bags) from the residual groups that still need ordered-identity checks.

    For comparison-free pairs the result is cached by the pair's joint
    restricted relation signature, so one comparison serves every ordering of
    a block partition, every subset merging to the same canonical relations,
    and — in a catalog sweep — every (subset, ordering-class) cell the pair
    is re-examined under.
    """
    if _shares_pair(first, second):
        key = (first, second, _pair_signature(first, second, database))
        cached = _GROUP_COMPARISON_BY_RELATIONS.get(key)
        if cached is None:
            cached = _compute_group_comparison(first, second, database)
            _shared_cache_put(_GROUP_COMPARISON_BY_RELATIONS, key, cached)
        return cached
    return _compute_group_comparison(first, second, database)


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


def _compute_group_comparison(
    first: Query, second: Query, database: SymbolicDatabase
) -> GroupComparison:
    left_index = symbolic_group_index(first, database)
    right_index = symbolic_group_index(second, database)
    if left_index is right_index or left_index == right_index:
        # The common case for equivalent rewritings: identical groups, so
        # every ordered identity holds trivially under every ordering.
        return GroupComparison(keys_match=True)
    if left_index.keys() != right_index.keys():
        return GroupComparison(keys_match=False)
    left_groups = symbolic_groups(first, database)
    right_groups = symbolic_groups(second, database)
    residual = tuple(
        (group_key, tuple(left_groups[group_key]), tuple(right_groups[group_key]))
        for group_key in left_groups
        if left_index[group_key] != right_index[group_key]
    )
    return GroupComparison(keys_match=True, residual=residual)


def compare_symbolic_answers(
    first: Query, second: Query, database: SymbolicDatabase, semantics: str
) -> bool:
    """Whether two non-aggregate queries produce the same symbolic answers
    over one ``S_L`` (as a set for ``"set"`` semantics, with multiplicities
    for ``"bag-set"``), cached like :func:`compare_symbolic_groups`."""
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
