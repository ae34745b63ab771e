"""Tests for database decompositions and the decomposition principles
(Sections 5 and 6)."""

import pytest

from repro import parse_database, parse_query
from repro.aggregates import get_function
from repro.core import (
    decomposition,
    decomposition_principle_holds,
    direct_aggregate,
    extend_database,
    recombine_group,
    recombine_idempotent,
    verify_decomposition,
)
from repro.core.decomposition import assignment_database
from repro.datalog import Database
from repro.engine import group_assignments
from repro.errors import ReproError


@pytest.fixture
def queries():
    first = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
    second = parse_query("q(x, sum(y)) :- p(x, y), not r(y), y > 0 ; p(x, y), not r(y), y <= 0")
    return first, second


@pytest.fixture
def database():
    return parse_database("p(1, 2). p(1, 3). p(1, -1). p(2, 5). r(3). r(9).")


class TestExtendDatabase:
    def test_fixpoint_adds_blocking_negated_facts(self):
        first = parse_query("q(x, count()) :- p(x, y), not r(y)")
        second = parse_query("q(x, count()) :- p(x, y), not r(y)")
        full = parse_database("p(1, 2). r(2).")
        base = parse_database("p(1, 2).")
        extended = extend_database(base, first, second, full)
        # The assignment x=1, y=2 satisfies q over the base but not over the
        # full database (r(2) blocks it); the procedure must add r(2).
        assert extended.contains("r", (2,))

    def test_no_additions_when_nothing_blocks(self):
        first = parse_query("q(x, count()) :- p(x, y), not r(y)")
        full = parse_database("p(1, 2). r(5).")
        base = parse_database("p(1, 2).")
        assert extend_database(base, first, first, full) == base

    def test_extension_stays_within_full_database(self, queries, database):
        first, second = queries
        base = parse_database("p(1, 3).")
        extended = extend_database(base, first, second, database)
        assert extended.issubset(database)

    def test_cascading_extension(self):
        # Adding one fact enables a new assignment whose negated atom forces another.
        first = parse_query("q(x, count()) :- p(x, y), not p(y, x)")
        full = parse_database("p(1, 2). p(2, 1). p(1, 1).")
        base = parse_database("p(1, 2).")
        extended = extend_database(base, first, first, full)
        assert extended.contains("p", (2, 1))


class TestDecompositionConstruction:
    def test_assignment_database(self, queries, database):
        first, _ = queries
        assignments = group_assignments(first, database)[(1,)]
        for assignment in assignments:
            part = assignment_database(first, assignment)
            assert part.issubset(database)
            assert len(part) == 1

    def test_decomposition_properties(self, queries, database):
        first, second = queries
        parts = decomposition(first, second, database, (1,))
        assert parts
        check = verify_decomposition(first, second, database, (1,), parts)
        assert check.sizes_ok
        assert check.assignments_cover
        assert check.intersections_ok
        assert check.is_decomposition

    def test_decomposition_for_every_group(self, queries, database):
        first, second = queries
        for group in group_assignments(first, database):
            parts = decomposition(first, second, database, group)
            assert verify_decomposition(first, second, database, group, parts).is_decomposition

    def test_parts_are_small(self, queries, database):
        first, second = queries
        from repro.datalog import term_size_of_pair

        bound = term_size_of_pair(first, second)
        for part in decomposition(first, second, database, (1,)):
            assert part.carrier_size <= bound

    def test_empty_group_has_empty_decomposition(self, queries, database):
        first, second = queries
        assert decomposition(first, second, database, (99,)) == []


class TestDecompositionPrinciples:
    def test_sum_recombination_inclusion_exclusion(self, queries, database):
        first, second = queries
        function = get_function("sum")
        parts = decomposition(first, second, database, (1,))
        direct = direct_aggregate(function, first, database, (1,))
        recombined = recombine_group(function, first, parts, (1,))
        assert direct == recombined

    def test_count_recombination(self, database):
        first = parse_query("q(x, count()) :- p(x, y), not r(y)")
        second = parse_query("q(x, count()) :- p(x, y)")
        function = get_function("count")
        parts = decomposition(first, second, database, (1,))
        assert direct_aggregate(function, first, database, (1,)) == recombine_group(
            function, first, parts, (1,)
        )

    def test_max_recombination_idempotent(self, database):
        first = parse_query("q(x, max(y)) :- p(x, y), not r(y)")
        second = parse_query("q(x, max(y)) :- p(x, y), not r(y), y > 0 ; p(x, y), not r(y), y <= 0")
        function = get_function("max")
        parts = decomposition(first, second, database, (1,))
        assert direct_aggregate(function, first, database, (1,)) == recombine_idempotent(
            function, first, parts, (1,)
        )

    def test_principle_holds_helper(self, queries, database):
        first, second = queries
        for group in group_assignments(first, database):
            assert decomposition_principle_holds(first, second, database, group)

    def test_idempotent_recombination_requires_idempotent_function(self, queries, database):
        first, second = queries
        function = get_function("sum")
        parts = decomposition(first, second, database, (1,))
        with pytest.raises(ReproError):
            recombine_idempotent(function, first, parts, (1,))

    def test_group_recombination_requires_group_function(self, database):
        first = parse_query("q(x, max(y)) :- p(x, y)")
        function = get_function("max")
        parts = decomposition(first, first, database, (1,))
        with pytest.raises(ReproError):
            recombine_group(function, first, parts, (1,))

    def test_principles_on_randomized_databases(self, rng):
        """Empirical version of Theorem 6.5's key step on random databases."""
        from repro.workloads import QueryGenerator, QueryProfile

        first = parse_query("q(x, parity) :- p(x, y), not r(y)")
        second = parse_query("q(x, parity) :- p(x, y), not r(y), s(x, x) ; p(x, y), not r(y)")
        generator = QueryGenerator(QueryProfile(predicates={"p": 2, "r": 1, "s": 2}), seed=17)
        for _ in range(10):
            database = generator.database(max_facts=8)
            for group in group_assignments(first, database):
                assert decomposition_principle_holds(first, second, database, group)


class TestLocalToGlobalTransfer:
    def test_locally_equivalent_queries_agree_on_larger_databases(self, rng):
        """Theorem 6.5, observed empirically: queries verified locally
        equivalent agree on databases with many more constants than τ."""
        from repro.core import local_equivalence
        from repro.engine import evaluate_aggregate
        from repro.workloads import QueryGenerator, QueryProfile

        first = parse_query("q(max(y)) :- p(y), not r(y)")
        second = parse_query("q(max(y)) :- p(y), not r(y) ; p(y), not r(y), p(y)")
        assert local_equivalence(first, second).equivalent
        generator = QueryGenerator(QueryProfile(predicates={"p": 1, "r": 1}), seed=23)
        for _ in range(25):
            database = generator.database(max_facts=14)
            assert evaluate_aggregate(first, database) == evaluate_aggregate(second, database)


def _growing_database(size: int) -> Database:
    """``size`` p-facts spread over three groups, and an r-fact blocking
    roughly every fourth aggregation value."""
    import random

    rng = random.Random(size)
    facts = []
    for index in range(size):
        value = rng.randint(-4, 8)
        facts.append(("p", (index % 3 + 1, value)))
        if index % 4 == 0:
            facts.append(("r", (value,)))
    return Database(facts)


class TestRecombinationOnGrowingDatabases:
    """Propositions 5.1/5.2 on every group of databases of growing size."""

    @pytest.mark.parametrize("size", [6, 12, 20])
    def test_sum_decomposes_and_recombines(self, queries, size):
        first, second = queries
        database = _growing_database(size)
        function = get_function("sum")
        for group in group_assignments(first, database):
            parts = decomposition(first, second, database, group)
            assert verify_decomposition(first, second, database, group, parts).is_decomposition
            assert direct_aggregate(function, first, database, group) == recombine_group(
                function, first, parts, group
            )

    @pytest.mark.parametrize("size", [6, 12, 20])
    def test_max_recombines_idempotently(self, size):
        first = parse_query("q(x, max(y)) :- p(x, y), not r(y)")
        second = parse_query("q(x, max(y)) :- p(x, y), not r(y) ; p(x, y), not r(y), p(x, y)")
        database = _growing_database(size)
        function = get_function("max")
        for group in group_assignments(first, database):
            parts = decomposition(first, second, database, group)
            assert direct_aggregate(function, first, database, group) == recombine_idempotent(
                function, first, parts, group
            )
