"""Integration tests pinned to specific statements of the paper.

Each test names the statement it exercises, so a reader can audit the
reproduction claim by claim.
"""

import pytest

from repro import Domain, Verdict, are_equivalent, parse_database, parse_query
from repro.aggregates import CNTD, MAX, PROD, SUM, TOP2, get_function
from repro.core import (
    bounded_equivalence,
    decomposition,
    decomposition_principle_holds,
    local_equivalence,
    quasilinear_equivalent,
    verify_decomposition,
)
from repro.engine import evaluate_aggregate, group_assignments


class TestSection2MonoidExamples:
    def test_example_2_1_t2_operation(self):
        monoid = TOP2.monoid
        assert monoid.operation((5,), (2, 1)) == (5, 2)
        assert monoid.operation((5, 2), (5, 1)) == (5, 2)
        assert monoid.operation((5,), (5,)) == (5,)
        assert monoid.neutral() == ()

    def test_example_2_2_classification(self):
        assert SUM.is_group_monoidal and not SUM.is_idempotent_monoidal
        assert MAX.is_idempotent_monoidal and TOP2.is_idempotent_monoidal
        assert get_function("count").is_group_monoidal
        assert get_function("parity").is_group_monoidal
        assert PROD.monoid is not None and PROD.monoid.is_group  # over Q±
        assert not CNTD.is_monoidal and not get_function("avg").is_monoidal


class TestSection4Statements:
    def test_proposition_4_2_shiftable_functions(self):
        for name in ("parity", "cntd", "count", "max", "top2"):
            assert get_function(name).is_shiftable

    def test_section_4_1_sum_prod_not_shiftable_witness(self):
        # The bags B = {2,2}, B' = {4} with φ(2)=3, φ(4)=5 from the paper.
        assert SUM.apply([2, 2]) == SUM.apply([4])
        assert SUM.apply([3, 3]) != SUM.apply([5])
        assert PROD.apply([2, 2]) == PROD.apply([4])
        assert PROD.apply([3, 3]) != PROD.apply([5])

    def test_theorem_4_8_procedure_is_sound_both_ways(self):
        # A pair that is 1-equivalent but not 2-equivalent.
        first = parse_query("q(count()) :- p(y), p(z), y < z")
        second = parse_query("q(count()) :- p(y), p(z), y != z")
        assert bounded_equivalence(first, second, 1).equivalent
        report = bounded_equivalence(first, second, 2)
        assert not report.equivalent
        witness = report.counterexample
        assert witness is not None and witness.database is not None
        assert witness.database.carrier_size <= 2
        assert evaluate_aggregate(first, witness.database) != evaluate_aggregate(
            second, witness.database
        )

    def test_corollary_4_11_negation_does_not_change_bounded_decidability(self):
        # The same positive pair decided with and without an added negated
        # subgoal on both sides; the procedure terminates in all cases.
        positive_first = parse_query("q(sum(y)) :- p(y)")
        positive_second = parse_query("q(sum(y)) :- p(y), p(y)")
        negated_first = parse_query("q(sum(y)) :- p(y), not r(y)")
        negated_second = parse_query("q(sum(y)) :- p(y), p(y), not r(y)")
        assert bounded_equivalence(positive_first, positive_second, 1).equivalent
        assert bounded_equivalence(negated_first, negated_second, 1).equivalent


class TestSection6Decompositions:
    def test_theorem_6_4_decompositions_exist(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        second = parse_query("q(x, sum(y)) :- p(x, y)")
        database = parse_database("p(1, 2). p(1, 3). p(2, 4). r(3). r(5).")
        for group in group_assignments(first, database):
            parts = decomposition(first, second, database, group)
            check = verify_decomposition(first, second, database, group, parts)
            assert check.is_decomposition

    def test_theorem_6_5_key_equation_for_group_and_idempotent_functions(self):
        database = parse_database("p(1, 2). p(1, 3). p(1, -1). r(3).")
        for function_name in ("sum", "count", "parity", "max", "top2"):
            if function_name in ("count", "parity"):
                first = parse_query(f"q(x, {function_name}()) :- p(x, y), not r(y)")
                second = parse_query(
                    f"q(x, {function_name}()) :- p(x, y), not r(y), y > 0 ; p(x, y), not r(y), y <= 0"
                )
            else:
                first = parse_query(f"q(x, {function_name}(y)) :- p(x, y), not r(y)")
                second = parse_query(
                    f"q(x, {function_name}(y)) :- p(x, y), not r(y), y > 0 ; p(x, y), not r(y), y <= 0"
                )
            assert decomposition_principle_holds(first, second, database, (1,))

    def test_corollary_6_8_decidable_classes(self):
        # max, top2, count, parity, sum over Z and Q; prod over Q.
        first = parse_query("q(max(y)) :- p(y) ; p(y), r(y)")
        second = parse_query("q(max(y)) :- p(y)")
        for domain in (Domain.INTEGERS, Domain.RATIONALS):
            assert local_equivalence(first, second, domain=domain).equivalent

    def test_theorem_6_6_prod_over_q_zero_case(self):
        # The queries agree on every database: the extra disjunct only repeats
        # assignments with y = 0, and any product containing 0 is 0.
        first = parse_query("q(prod(y)) :- p(y) ; p(y), y = 0")
        second = parse_query("q(prod(y)) :- p(y)")
        report = local_equivalence(first, second, domain=Domain.RATIONALS)
        assert report.equivalent
        # Sanity: with a nonzero pinned value instead, they differ.
        third = parse_query("q(prod(y)) :- p(y) ; p(y), y = 2")
        assert not local_equivalence(third, second, domain=Domain.RATIONALS).equivalent


class TestSection7Quasilinear:
    def test_theorem_7_2_singleton_determining_classes_are_proper(self):
        # Equivalence coincides with isomorphism: a non-isomorphic but
        # superficially similar pair must be rejected.
        first = parse_query("q(x, sum(y)) :- p(x, y), not r(x)")
        second = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        assert not quasilinear_equivalent(first, second).equivalent
        # And the verdict agrees with a concrete witness: r(1) blocks the
        # group x = 1 in the first query but not in the second.
        database = parse_database("p(1, 2). r(1).")
        assert evaluate_aggregate(first, database) != evaluate_aggregate(second, database)

    def test_theorem_7_2_failure_mode_for_cntd(self):
        # cntd is not singleton-determining: two non-isomorphic queries can be
        # equivalent, which is why Theorem 7.4 needs extra conditions.
        assert not CNTD.is_singleton_determining

    def test_corollary_7_5_polynomial_growth(self):
        import time

        from repro.workloads import linear_chain_query, renamed_copy

        timings = []
        for length in (2, 6):
            query = linear_chain_query(length, function="sum")
            copy = renamed_copy(query)
            start = time.perf_counter()
            assert quasilinear_equivalent(query, copy).equivalent
            timings.append(time.perf_counter() - start)
        # Tripling the chain length must not blow up the running time the way
        # the doubly-exponential general procedure would (sanity bound: 200×).
        assert timings[1] < timings[0] * 200 + 1.0


class TestSection8BagSetSemantics:
    def test_set_equivalent_but_not_bag_set_equivalent(self):
        from repro.core import bag_set_equivalent, set_equivalent

        first = parse_query("q(x) :- p(x, y)")
        second = parse_query("q(x) :- p(x, y), p(x, z)")
        assert set_equivalent(first, second).equivalent
        assert not bag_set_equivalent(first, second).equivalent
