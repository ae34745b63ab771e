"""Tests for the quasilinear equivalence procedure (Section 7)."""

import pytest

from repro import Domain, parse_query
from repro.aggregates import get_function
from repro.core import (
    is_quasilinear_decidable,
    linear_equivalent,
    local_equivalence,
    quasilinear_equivalent,
)
from repro.core.quasilinear import positive_projections_isomorphic
from repro.errors import UndecidableError
from repro.workloads import linear_chain_query, renamed_copy


class TestFragmentDetection:
    def test_singleton_determining_functions_are_covered(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        second = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        function = get_function("sum")
        assert is_quasilinear_decidable(first, second, function, Domain.RATIONALS)

    def test_non_quasilinear_query_not_covered(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), p(x, z)")
        function = get_function("sum")
        assert not is_quasilinear_decidable(first, first, function, Domain.RATIONALS)

    def test_cntd_special_cases(self):
        function = get_function("cntd")
        no_constants = parse_query("q(x, cntd(y)) :- p(x, y), y >= x")
        assert is_quasilinear_decidable(no_constants, no_constants, function, Domain.INTEGERS)
        assert is_quasilinear_decidable(no_constants, no_constants, function, Domain.RATIONALS)
        with_constants = parse_query("q(x, cntd(y)) :- p(x, y), y >= 3")
        assert is_quasilinear_decidable(with_constants, with_constants, function, Domain.RATIONALS)
        assert not is_quasilinear_decidable(with_constants, with_constants, function, Domain.INTEGERS)
        strict_comparison = parse_query("q(x, cntd(y)) :- p(x, y), y > x")
        assert not is_quasilinear_decidable(strict_comparison, strict_comparison, function, Domain.RATIONALS)

    def test_outside_fragment_raises(self):
        first = parse_query("q(x, avg(y)) :- p(x, y), p(x, z)")
        with pytest.raises(UndecidableError):
            quasilinear_equivalent(first, first)


class TestEquivalenceDecisions:
    def test_identical_queries(self):
        query = parse_query("q(x, max(y)) :- p(x, y), not r(x), y > 0")
        assert quasilinear_equivalent(query, query).equivalent

    def test_variable_renaming(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), s(x, z), z > 1")
        second = parse_query("q(x, sum(y)) :- p(x, y), s(x, w), w > 1")
        assert quasilinear_equivalent(first, second).equivalent

    def test_equivalent_comparison_rewriting(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), y > 0")
        second = parse_query("q(x, sum(y)) :- p(x, y), 0 < y")
        assert quasilinear_equivalent(first, second).equivalent

    def test_reduction_before_isomorphism(self):
        # The equality z = x must be eliminated before the isomorphism check.
        first = parse_query("q(x, sum(y)) :- p(x, y), s(z, w), z = x, w > 0")
        second = parse_query("q(x, sum(y)) :- p(x, y), s(x, v), v > 0")
        assert quasilinear_equivalent(first, second).equivalent

    def test_integer_pinning_recognized(self):
        first = parse_query("q(x, count()) :- p(x), x > 3, x < 5")
        second = parse_query("q(x, count()) :- p(x), x >= 4, x <= 4")
        assert quasilinear_equivalent(first, second, Domain.INTEGERS).equivalent
        assert not quasilinear_equivalent(first, second, Domain.RATIONALS).equivalent

    def test_different_negation_not_equivalent(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), not r(x)")
        second = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        assert not quasilinear_equivalent(first, second).equivalent

    def test_missing_negation_not_equivalent(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        second = parse_query("q(x, sum(y)) :- p(x, y)")
        assert not quasilinear_equivalent(first, second).equivalent

    def test_different_comparisons_not_equivalent(self):
        first = parse_query("q(x, max(y)) :- p(x, y), y > 0")
        second = parse_query("q(x, max(y)) :- p(x, y), y >= 0")
        assert not quasilinear_equivalent(first, second).equivalent

    def test_unsatisfiable_queries_are_equivalent(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), y > 3, y < 2")
        second = parse_query("q(x, sum(y)) :- p(x, y), x > 5, x < 4")
        verdict = quasilinear_equivalent(first, second)
        assert verdict.equivalent and "unsatisfiable" in verdict.reason

    def test_one_unsatisfiable_query_not_equivalent(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), y > 3, y < 2")
        second = parse_query("q(x, sum(y)) :- p(x, y)")
        assert not quasilinear_equivalent(first, second).equivalent

    def test_different_functions_not_equivalent(self):
        first = parse_query("q(x, sum(y)) :- p(x, y)")
        second = parse_query("q(x, max(y)) :- p(x, y)")
        assert not quasilinear_equivalent(first, second).equivalent

    def test_verdict_carries_isomorphism_and_reduced_queries(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), s(x, z)")
        second = parse_query("q(x, sum(y)) :- p(x, y), s(x, w)")
        verdict = quasilinear_equivalent(first, second)
        assert verdict.isomorphism is not None
        assert verdict.reduced_first is not None and verdict.reduced_second is not None

    def test_linear_equivalent_requires_linear_queries(self):
        negated = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        with pytest.raises(UndecidableError):
            linear_equivalent(negated, negated)
        linear = parse_query("q(x, sum(y)) :- p(x, y)")
        assert linear_equivalent(linear, linear)


class TestAgainstGeneralProcedure:
    """The quasilinear fast path must agree with the general local-equivalence
    procedure on small instances (Theorem 7.2 vs Theorem 6.5)."""

    PAIRS = [
        ("q(max(y)) :- p(y), not r(y)", "q(max(y)) :- p(y), not r(y)"),
        ("q(max(y)) :- p(y), not r(y)", "q(max(y)) :- p(y)"),
        ("q(sum(y)) :- p(y), y > 0", "q(sum(y)) :- p(y), 0 < y"),
        ("q(sum(y)) :- p(y), y > 0", "q(sum(y)) :- p(y), y >= 0"),
        ("q(count()) :- p(y), not r(y)", "q(count()) :- p(y), not s(y)"),
        (
            str(linear_chain_query(1, function="max", with_comparisons=False)),
            str(renamed_copy(linear_chain_query(1, function="max", with_comparisons=False))),
        ),
    ]

    @pytest.mark.parametrize("first_text,second_text", PAIRS)
    def test_agreement(self, first_text, second_text):
        first, second = parse_query(first_text), parse_query(second_text)
        fast = quasilinear_equivalent(first, second)
        slow = local_equivalence(first, second)
        assert fast.equivalent == slow.equivalent

    def test_positive_projections_case_split(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        second = parse_query("q(x, sum(y)) :- p(x, y), not s(y)")
        # Positive parts are isomorphic even though the queries are not equivalent.
        assert positive_projections_isomorphic(first, second)
        assert not quasilinear_equivalent(first, second).equivalent


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_linear_chains(length):
    """Corollary 7.5 on linear chain queries of growing length: a renamed
    copy is equivalent, the chain without its comparison is not."""
    query = linear_chain_query(length, function="sum")
    assert quasilinear_equivalent(query, renamed_copy(query)).equivalent
    other = linear_chain_query(length, function="sum", with_comparisons=False)
    assert not quasilinear_equivalent(query, other).equivalent
