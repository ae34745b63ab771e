"""Tests for bag-set/set semantics equivalence and the counterexample search."""

import itertools
import random

import pytest

from parity_inputs import generated_catalog
from repro import Domain, parse_database, parse_query
from repro.core import (
    as_count_query,
    bag_set_equivalent,
    enumerate_databases,
    exhaustive_counterexample,
    find_counterexample,
    set_equivalent,
    value_pool,
)
from repro.datalog.queries import term_size_of_pair
from repro.engine import evaluate_bag_set, evaluate_set, naive_evaluate
from repro.errors import MalformedQueryError

#: Hand-written non-aggregate pairs: a projection that multiplies answers, a
#: renaming, a duplicated disjunct, a strict against a weak filter, and a
#: projection under negation.
HAND_WRITTEN_PAIRS = [
    pytest.param("q(x) :- p(x, y)", "q(x) :- p(x, y), p(x, z)", id="projection"),
    pytest.param("q(x) :- p(x, y), not r(y)", "q(x) :- p(x, z), not r(z)", id="renaming"),
    pytest.param("q(x) :- p(x)", "q(x) :- p(x) ; p(x)", id="duplicate-disjunct"),
    pytest.param("q(x) :- p(x, y), y > 0", "q(x) :- p(x, y), y >= 0", id="strict-vs-weak"),
    pytest.param(
        "q(x) :- p(x, y), not r(y)", "q(x) :- p(x, y), not r(y), p(x, z)",
        id="negated-projection",
    ),
]

#: Every pair of two ``plain`` generated catalogs (queries over ``p/2`` and
#: ``r/1`` beside renamed copies, with unsatisfiable disjuncts among them).
GENERATED_PAIRS = [
    pytest.param(str(catalog[first]), str(catalog[second]), id=f"plain-{seed}-{first}-{second}")
    for seed, catalog in ((seed, generated_catalog("plain", seed)) for seed in (0, 2))
    for first, second in itertools.combinations(catalog, 2)
]


def _oracle_pool(first, second) -> list:
    """τ(q, q') values for the exhaustive oracle: the queries' constants,
    then the smallest non-negative integers not among them."""
    values = sorted({constant.value for constant in first.constants() | second.constants()})
    fresh = (value for value in itertools.count() if value not in values)
    while len(values) < term_size_of_pair(first, second):
        values.append(next(fresh))
    return values


class TestCountQueryReduction:
    def test_as_count_query_shape(self):
        query = parse_query("q(x) :- p(x, y), not r(y)")
        count_query = as_count_query(query)
        assert count_query.is_aggregate
        assert count_query.aggregate_function == "count"
        assert count_query.head_terms == query.head_terms
        assert count_query.disjuncts == query.disjuncts

    def test_as_count_query_rejects_aggregates(self):
        with pytest.raises(MalformedQueryError):
            as_count_query(parse_query("q(x, sum(y)) :- p(x, y)"))

    def test_count_query_matches_bag_set_semantics_pointwise(self):
        query = parse_query("q(x) :- p(x, y), not r(y)")
        count_query = as_count_query(query)
        database = parse_database("p(1, 2). p(1, 3). p(2, 5). r(3).")
        from repro.engine import evaluate_aggregate

        counts = evaluate_aggregate(count_query, database)
        bag = evaluate_bag_set(query, database)
        assert counts == dict(bag)


class TestBagSetEquivalence:
    def test_projection_not_bag_set_equivalent(self):
        first = parse_query("q(x) :- p(x, y)")
        second = parse_query("q(x) :- p(x, y), p(x, z)")
        assert set_equivalent(first, second).equivalent
        assert not bag_set_equivalent(first, second).equivalent

    def test_duplicate_disjunct_not_bag_set_equivalent(self):
        first = parse_query("q(x) :- p(x)")
        second = parse_query("q(x) :- p(x) ; p(x)")
        assert set_equivalent(first, second).equivalent
        assert not bag_set_equivalent(first, second).equivalent

    def test_renaming_is_bag_set_equivalent(self):
        first = parse_query("q(x) :- p(x, y), not r(y)")
        second = parse_query("q(x) :- p(x, z), not r(z)")
        assert set_equivalent(first, second).equivalent
        assert bag_set_equivalent(first, second).equivalent

    @pytest.mark.parametrize("first_text,second_text", HAND_WRITTEN_PAIRS + GENERATED_PAIRS)
    def test_verdict_matches_the_definition(self, first_text, second_text):
        """The count-query reduction against the definition of bag-set
        equivalence: a NOT_EQUIVALENT witness gives the two queries different
        answer multiplicities under the naive reference, and an EQUIVALENT
        pair has no such database over τ(q, q') values."""
        first, second = parse_query(first_text), parse_query(second_text)
        report = bag_set_equivalent(first, second)
        if report.equivalent:
            pool = _oracle_pool(first, second)
            assert exhaustive_counterexample(first, second, pool, semantics="bag-set") is None
        else:
            witness = report.counterexample.database
            assert witness is not None
            assert naive_evaluate(first, witness, bag=True) != naive_evaluate(
                second, witness, bag=True
            )

    def test_bag_set_equivalence_rejects_aggregates(self):
        with pytest.raises(MalformedQueryError):
            bag_set_equivalent(
                parse_query("q(x, sum(y)) :- p(x, y)"), parse_query("q(x, sum(y)) :- p(x, y)")
            )

    def test_set_equivalence_with_negation(self):
        first = parse_query("q(x) :- p(x), not r(x)")
        second = parse_query("q(x) :- p(x)")
        assert not set_equivalent(first, second).equivalent


class TestCounterexampleSearch:
    def test_finds_distinguishing_database(self):
        first = parse_query("q(x, sum(y)) :- p(x, y)")
        second = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        witness = find_counterexample(first, second, rng=random.Random(1))
        assert witness is not None
        from repro.engine import evaluate_aggregate

        assert evaluate_aggregate(first, witness) != evaluate_aggregate(second, witness)

    def test_no_counterexample_for_equivalent_queries(self):
        first = parse_query("q(x, max(y)) :- p(x, y), y > 0")
        second = parse_query("q(x, max(y)) :- p(x, y), 0 < y")
        assert find_counterexample(first, second, trials=150, rng=random.Random(2)) is None

    def test_bag_set_semantics_counterexample(self):
        first = parse_query("q(x) :- p(x, y)")
        second = parse_query("q(x) :- p(x, y), p(x, z)")
        witness = find_counterexample(first, second, semantics="bag-set", rng=random.Random(3))
        assert witness is not None
        assert evaluate_bag_set(first, witness) != evaluate_bag_set(second, witness)
        assert evaluate_set(first, witness) == evaluate_set(second, witness)

    def test_value_pool_contains_query_constants_and_neighbours(self):
        first = parse_query("q(x) :- p(x), x > 7")
        second = parse_query("q(x) :- p(x), x > 7")
        pool = value_pool(first, second, Domain.INTEGERS)
        assert 7 in pool and 8 in pool and 6 in pool

    def test_integer_domain_respected(self):
        first = parse_query("q(x, count()) :- p(x), x > 0, x < 2")
        second = parse_query("q(x, count()) :- p(x), x = 1")
        assert find_counterexample(first, second, domain=Domain.INTEGERS, trials=200) is None
        witness = find_counterexample(
            first, second, domain=Domain.RATIONALS, trials=500, rng=random.Random(5)
        )
        assert witness is not None

    def test_exhaustive_oracle_finds_small_witness(self):
        first = parse_query("q(count()) :- p(y)")
        second = parse_query("q(count()) :- p(y), not r(y)")
        witness = exhaustive_counterexample(first, second, values=[0], max_facts=2)
        assert witness is not None and len(witness) <= 2

    def test_exhaustive_oracle_confirms_equivalence_over_pool(self):
        first = parse_query("q(max(y)) :- p(y) ; p(y), p(z)")
        second = parse_query("q(max(y)) :- p(y)")
        assert exhaustive_counterexample(first, second, values=[0, 1]) is None

    def test_enumerate_databases_counts(self):
        databases = list(enumerate_databases({"p": 1}, [0, 1]))
        # Subsets of {p(0), p(1)}: 4 databases.
        assert len(databases) == 4

    def test_queries_without_predicates(self):
        first = parse_query("q(1) :- 1 < 2")
        second = parse_query("q(1) :- 2 < 3")
        assert find_counterexample(first, second) is None
