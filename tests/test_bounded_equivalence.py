"""Tests for bounded and local equivalence (Theorem 4.8)."""

import itertools

import pytest

from repro import Domain, parse_query
from repro.core import (
    BAG_SET_SEMANTICS,
    SET_SEMANTICS,
    bounded_equivalence,
    build_base,
    local_equivalence,
)
from repro.core.bounded import CheckStats, check_subset_sweep, prepare_sweep_run
from repro.core.counterexample import exhaustive_counterexample
from repro.errors import ReproError, UnsupportedAggregateError


def _full_enumeration(first, second, bound):
    """Reference search without symmetry reduction: every subset of BASE, in
    (size, lexicographic) order, through the sweep's per-subset check.
    Returns ``(equivalent, subsets_examined)``."""
    setup = prepare_sweep_run({"a": first, "b": second}, bound, Domain.RATIONALS, SET_SEMANTICS)
    stats = CheckStats()
    for size in range(len(setup.base) + 1):
        for combination in itertools.combinations(setup.base, size):
            stats.subsets_examined += 1
            if check_subset_sweep(setup, frozenset(combination), [("a", "b")], stats):
                return False, stats.subsets_examined
    return True, stats.subsets_examined


class TestBase:
    def test_base_contains_all_atoms_over_t(self):
        first = parse_query("q(max(y)) :- p(y), y > 3")
        second = parse_query("q(max(y)) :- p(y), r(y, y)")
        terms, base, fresh = build_base(first, second, 2)
        # T = {3} plus two fresh variables; p is unary, r is binary.
        assert len(terms) == 3
        assert len(fresh) == 2
        assert len(base) == 3 + 9

    def test_fresh_variables_avoid_query_variables(self):
        first = parse_query("q(max(y)) :- p(y, _u0)")
        second = parse_query("q(max(y)) :- p(y, z)")
        _, _, fresh = build_base(first, second, 2)
        assert all(v.name != "_u0" for v in fresh)


class TestAggregateBoundedEquivalence:
    def test_identical_queries_are_equivalent(self):
        query = parse_query("q(max(y)) :- p(y), not r(y)")
        report = bounded_equivalence(query, query, 2)
        assert report.equivalent
        assert report.subsets_examined > 0

    def test_renamed_copy_is_equivalent(self):
        first = parse_query("q(sum(y)) :- p(y, z)")
        second = parse_query("q(sum(y)) :- p(y, w)")
        assert bounded_equivalence(first, second, 2).equivalent

    def test_max_ignores_duplicates_but_sum_does_not(self):
        single = parse_query("q(max(y)) :- p(y)")
        double = parse_query("q(max(y)) :- p(y) ; p(y)")
        assert bounded_equivalence(single, double, 2).equivalent
        single_sum = parse_query("q(sum(y)) :- p(y)")
        double_sum = parse_query("q(sum(y)) :- p(y) ; p(y)")
        report = bounded_equivalence(single_sum, double_sum, 2)
        assert not report.equivalent
        assert report.counterexample is not None

    def test_negation_is_distinguished(self):
        first = parse_query("q(count()) :- p(y)")
        second = parse_query("q(count()) :- p(y), not r(y)")
        report = bounded_equivalence(first, second, 1)
        assert not report.equivalent
        witness = report.counterexample
        assert witness is not None and witness.database is not None
        # The witness database must actually distinguish the queries.
        from repro.engine import evaluate_aggregate

        assert evaluate_aggregate(first, witness.database) != evaluate_aggregate(
            second, witness.database
        )

    def test_comparison_rewriting_is_recognized(self):
        first = parse_query("q(count()) :- p(y), y > 0")
        second = parse_query("q(count()) :- p(y), 0 < y")
        assert bounded_equivalence(first, second, 2).equivalent

    def test_domain_sensitivity_of_comparisons(self):
        # Over Z, p(y), 0 < y < 2 is the same as p(y), y = 1; over Q it is not.
        first = parse_query("q(count()) :- p(y), y > 0, y < 2")
        second = parse_query("q(count()) :- p(y), y = 1")
        assert bounded_equivalence(first, second, 1, domain=Domain.INTEGERS).equivalent
        assert not bounded_equivalence(first, second, 1, domain=Domain.RATIONALS).equivalent

    def test_zero_bound_compares_constant_only_databases(self):
        first = parse_query("q(count()) :- p(1)")
        second = parse_query("q(count()) :- p(1), p(1)")
        assert bounded_equivalence(first, second, 0).equivalent

    def test_different_functions_rejected(self):
        first = parse_query("q(sum(y)) :- p(y)")
        second = parse_query("q(max(y)) :- p(y)")
        with pytest.raises(UnsupportedAggregateError):
            bounded_equivalence(first, second, 1)

    def test_aggregate_vs_plain_rejected(self):
        first = parse_query("q(sum(y)) :- p(y)")
        second = parse_query("q(y) :- p(y)")
        with pytest.raises(UnsupportedAggregateError):
            bounded_equivalence(first, second, 1)

    def test_search_space_guard(self):
        first = parse_query("q(sum(y)) :- p(x, y, z)")
        second = parse_query("q(sum(y)) :- p(x, y, w)")
        with pytest.raises(ReproError):
            bounded_equivalence(first, second, 4, max_subsets=1000)

    def test_symmetry_reduction_matches_full_enumeration(self):
        first = parse_query("q(count()) :- p(y), not r(y)")
        second = parse_query("q(count()) :- p(y)")
        with_reduction = bounded_equivalence(first, second, 2)
        full_equivalent, full_examined = _full_enumeration(first, second, 2)
        assert with_reduction.equivalent == full_equivalent
        assert with_reduction.subsets_examined < full_examined

    def test_report_statistics_populated(self):
        query = parse_query("q(max(y)) :- p(y)")
        report = bounded_equivalence(query, query, 2)
        assert report.orderings_examined >= report.subsets_examined
        # Identical bags are proved equal by interned-index identity: no
        # ordered identity is left to check.
        assert report.identities_checked == 0
        assert bool(report) is True
        doubled = parse_query("q(max(y)) :- p(y) ; p(y)")
        assert bounded_equivalence(query, doubled, 2).identities_checked > 0


class TestNEquivalenceVersusTrueEquivalence:
    def test_n_equivalent_but_not_equivalent(self):
        """Two count-queries that agree on all databases with one constant but
        differ once two constants are available."""
        first = parse_query("q(count()) :- p(y), p(z), y < z")
        second = parse_query("q(count()) :- p(y), p(z), y != z")
        assert bounded_equivalence(first, second, 1).equivalent
        report = bounded_equivalence(first, second, 2)
        assert not report.equivalent

    def test_bound_monotonicity(self):
        first = parse_query("q(sum(y)) :- p(y)")
        second = parse_query("q(sum(y)) :- p(y), not r(y)")
        for bound in (0, 1):
            smaller = bounded_equivalence(first, second, bound)
            if not smaller.equivalent:
                # Once a counterexample exists it persists for larger bounds.
                assert not bounded_equivalence(first, second, bound + 1).equivalent
                break


class TestLocalEquivalence:
    def test_local_equivalence_uses_term_size(self):
        first = parse_query("q(max(y)) :- p(y), y > 3")
        second = parse_query("q(max(y)) :- p(y), y > 3, p(y)")
        report = local_equivalence(first, second)
        # τ = one constant (3) plus the maximal variable size (1, the variable y).
        assert report.bound == 2
        assert report.equivalent

    def test_local_equivalence_agrees_with_exhaustive_oracle(self):
        pairs = [
            ("q(count()) :- p(y), not r(y)", "q(count()) :- p(y)", False),
            ("q(max(y)) :- p(y) ; p(y), r(y)", "q(max(y)) :- p(y)", True),
            ("q(sum(y)) :- p(y), y > 0", "q(sum(y)) :- p(y), 0 < y", True),
        ]
        for first_text, second_text, expected in pairs:
            first, second = parse_query(first_text), parse_query(second_text)
            report = local_equivalence(first, second)
            assert report.equivalent == expected, first_text
            oracle = exhaustive_counterexample(first, second, values=[0, 1, 2], max_facts=3)
            assert (oracle is None) == expected


class TestNonAggregateSemantics:
    def test_set_semantics_projection(self):
        first = parse_query("q(x) :- p(x, y)")
        second = parse_query("q(x) :- p(x, y), p(x, z)")
        assert bounded_equivalence(first, second, 2).equivalent

    def test_bag_set_semantics_distinguishes_projection(self):
        first = parse_query("q(x) :- p(x, y)")
        second = parse_query("q(x) :- p(x, y), p(x, z)")
        report = bounded_equivalence(first, second, 2, semantics=BAG_SET_SEMANTICS)
        assert not report.equivalent

    def test_unknown_semantics_rejected(self):
        first = parse_query("q(x) :- p(x)")
        with pytest.raises(ReproError):
            bounded_equivalence(first, first, 1, semantics="three-valued")
