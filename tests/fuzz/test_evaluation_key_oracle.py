"""Fuzzing the evaluation key against the definitions it stands for.

``Query.evaluation_key`` is what lets the catalog sweep settle a pair
without search and share one group index per isomorphism class, so equal
keys must mean equal results.  Queries come from ``QueryGenerator`` (with
comparisons, negation and up to two disjuncts); each gets variants that are
isomorphic by construction: a renamed copy, a full renaming that includes
the head, shuffled literals, shuffled disjuncts, a duplicated literal,
flipped comparisons, and all of these at once.  The oracles:

* every variant has its original's key;
* queries with equal keys — the variants, and any generated queries or
  near misses (one negation dropped or one comparison negated) that
  collide — have equal group indexes on every ``S_L`` of a small
  BASE, computed by the uncached compiled driver (the cached
  ``symbolic_group_index`` is itself keyed by the evaluation key);
* queries with equal keys have equal naive results on random databases.

And three cases where the key must differ or stay narrow: a duplicated
disjunct (it changes multiplicities), a query equal to another only after
reduction (the key keeps the group index, not only equivalence), and a
query whose symmetric-tie search is forced past the budget (its key then
follows variable names, and is still equal only for isomorphic copies).

The seeds are fixed and no hypothesis strategy runs, so the slice is
deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro import parse_query
from repro.core.bounded import build_catalog_base
from repro.datalog import canonical
from repro.datalog.atoms import Comparison
from repro.datalog.conditions import Condition
from repro.datalog.queries import Query
from repro.datalog.terms import Constant, Variable
from repro.domains import Domain
from repro.engine import naive_evaluate
from repro.engine.compile import compiled_symbolic_group_index
from repro.engine.symbolic import SymbolicDatabase
from repro.obs import REGISTRY
from repro.orderings.complete_orderings import enumerate_complete_orderings
from repro.store import canonical_hash
from repro.workloads import QueryGenerator, QueryProfile
from repro.workloads.generators import renamed_copy

PROFILES = {
    "sum": QueryProfile(
        predicates={"p": 2, "r": 1},
        constants=(1,),
        aggregation_function="sum",
        max_positive_atoms=2,
        max_comparisons=1,
        comparison_operators=("<", "<=", ">", ">=", "!=", "="),
    ),
    "plain": QueryProfile(
        predicates={"p": 2, "r": 1},
        constants=(1,),
        aggregation_function=None,
        max_positive_atoms=2,
        max_comparisons=1,
        comparison_operators=(">", ">=", "="),
    ),
}
SEEDS = (0, 1, 2)
QUERIES_PER_SEED = 3
DATABASES = 6


def _rebuild(query: Query, disjuncts) -> Query:
    return Query(query.name, query.head_terms, tuple(disjuncts), query.aggregate)


def _shuffle_literals(query: Query, rng: random.Random) -> Query:
    disjuncts = []
    for disjunct in query.disjuncts:
        literals = list(disjunct.literals)
        rng.shuffle(literals)
        disjuncts.append(Condition(tuple(literals)))
    return _rebuild(query, disjuncts)


def _shuffle_disjuncts(query: Query, rng: random.Random) -> Query:
    disjuncts = list(query.disjuncts)
    rng.shuffle(disjuncts)
    return _rebuild(query, disjuncts)


def _duplicate_literal(query: Query, rng: random.Random) -> Query:
    disjuncts = []
    for disjunct in query.disjuncts:
        literals = list(disjunct.literals)
        literals.insert(rng.randrange(len(literals) + 1), rng.choice(literals))
        disjuncts.append(Condition(tuple(literals)))
    return _rebuild(query, disjuncts)


def _flip_comparisons(query: Query, rng: random.Random) -> Query:
    disjuncts = []
    for disjunct in query.disjuncts:
        literals = tuple(
            literal.flip() if isinstance(literal, Comparison) else literal
            for literal in disjunct.literals
        )
        disjuncts.append(Condition(literals))
    return _rebuild(query, disjuncts)


def _rename_all(query: Query, rng: random.Random) -> Query:
    variables = sorted(query.variables())
    names = [f"w{index}" for index in range(len(variables))]
    rng.shuffle(names)
    return query.rename_variables(dict(zip(variables, (Variable(n) for n in names))))


def _variants(query: Query, rng: random.Random) -> list[Query]:
    everything = query
    for transform in (
        _rename_all, _shuffle_literals, _shuffle_disjuncts, _duplicate_literal,
        _flip_comparisons,
    ):
        everything = transform(everything, rng)
    return [
        renamed_copy(query),
        _rename_all(query, rng),
        _shuffle_literals(query, rng),
        _shuffle_disjuncts(query, rng),
        _duplicate_literal(query, rng),
        _flip_comparisons(query, rng),
        everything,
    ]


def _near_misses(query: Query) -> list[Query]:
    """Queries one literal away from ``query`` — a negation dropped or a
    comparison negated — that a key too coarse would join with it."""
    misses = []
    for position, disjunct in enumerate(query.disjuncts):
        for index, literal in enumerate(disjunct.literals):
            if isinstance(literal, Comparison):
                changed = literal.negate()
            elif literal.negated:
                changed = literal.positive()
            else:
                continue
            literals = list(disjunct.literals)
            literals[index] = changed
            disjuncts = list(query.disjuncts)
            disjuncts[position] = Condition(tuple(literals))
            misses.append(_rebuild(query, disjuncts))
    return misses


def _symbolic_databases(query: Query) -> list[SymbolicDatabase]:
    """Every S_L of a BASE over the constant 1 and one fresh term."""
    terms, base, _fresh = build_catalog_base((query,), 1, extra_constants=(Constant(1),))
    orderings = [
        ordering
        for ordering in enumerate_complete_orderings(terms, Domain.RATIONALS)
        if ordering.is_satisfiable()
    ]
    databases = []
    for mask in range(1 << len(base)):
        atoms = frozenset(atom for bit, atom in enumerate(base) if mask >> bit & 1)
        databases.extend(SymbolicDatabase(atoms, ordering) for ordering in orderings)
    return databases


def _assert_same_results(queries: list[Query], generator: QueryGenerator) -> None:
    """Equal group indexes on every S_L and equal naive results on random
    databases, for queries that share one key."""
    reference, others = queries[0], queries[1:]
    if not others:
        return
    for database in _symbolic_databases(reference):
        expected = compiled_symbolic_group_index(reference, database)
        for other in others:
            assert compiled_symbolic_group_index(other, database) == expected, (
                reference, other, database,
            )
    for _ in range(DATABASES):
        database = generator.database(max_facts=8)
        expected = naive_evaluate(reference, database)
        for other in others:
            assert naive_evaluate(other, database) == expected, (reference, other, database)


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
def test_equal_keys_mean_equal_results(profile_name):
    by_key: dict[str, list[Query]] = {}
    for seed in SEEDS:
        generator = QueryGenerator(PROFILES[profile_name], seed=seed)
        rng = random.Random(seed)
        for index in range(QUERIES_PER_SEED):
            query = generator.query(f"g{index}")
            variants = _variants(query, rng)
            for variant in variants:
                assert variant.evaluation_key == query.evaluation_key, (query, variant)
            by_key.setdefault(query.evaluation_key, []).extend([query, *variants])
            for miss in _near_misses(query):
                by_key.setdefault(miss.evaluation_key, []).append(miss)
    databases = QueryGenerator(PROFILES[profile_name], seed=SEEDS[0])
    for queries in by_key.values():
        _assert_same_results(queries, databases)


def test_duplicated_disjunct_changes_the_key():
    query = parse_query("q(x, count()) :- p(x, y) ; r(x)")
    doubled = _rebuild(query, query.disjuncts + query.disjuncts[:1])
    assert doubled.evaluation_key != query.evaluation_key


def test_reduction_is_not_part_of_the_key():
    pinned = parse_query("q(x, count()) :- p(x, y), y = 1")
    constant = parse_query("q(x, count()) :- p(x, 1)")
    # Equivalent, and the store key (taken after reduction) joins them ...
    assert canonical_hash(pinned) == canonical_hash(constant)
    # ... but they are not isomorphic: the evaluation key keeps them apart.
    assert pinned.evaluation_key != constant.evaluation_key


def test_a_bailed_out_key_is_equal_only_for_isomorphic_copies(monkeypatch):
    monkeypatch.setattr(canonical, "_PERMUTATION_BUDGET", 1)
    texts = [
        "q(count()) :- p(x, y), p(y, x)",
        "q(count()) :- p(y, x), p(x, y)",  # the same literals, reordered
        "q(count()) :- p(a, b), p(b, a)",  # a renaming
        "q(count()) :- p(x, y), p(y, y)",  # not isomorphic
        "q(count()) :- p(x, y), p(x, y)",  # not isomorphic
        "q(count()) :- p(x, x), p(y, y)",  # not isomorphic
    ]
    before = REGISTRY.get("datalog.key.tie_bailouts")
    queries = [parse_query(text) for text in texts]
    keys = [query.evaluation_key for query in queries]
    assert REGISTRY.get("datalog.key.tie_bailouts") > before
    assert keys[0] == keys[1]
    assert len({keys[0], keys[3], keys[4], keys[5]}) == 4
    generator = QueryGenerator(QueryProfile(predicates={"p": 2}, constants=(1,)), seed=3)
    for key in set(keys):
        _assert_same_results(
            [query for query, other in zip(queries, keys) if other == key], generator
        )
