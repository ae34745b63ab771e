"""Tests for complete orderings (Section 4.2)."""

from fractions import Fraction

import pytest

from repro.datalog import Comparison, ComparisonOp, Constant, Variable
from repro.domains import Domain
from repro.errors import UnsatisfiableOrderingError
from repro.orderings import (
    CompleteOrdering,
    count_complete_orderings,
    enumerate_complete_orderings,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def ordering(blocks, domain=Domain.RATIONALS):
    return CompleteOrdering(tuple(frozenset(block) for block in blocks), domain)


class TestConstruction:
    def test_valid_ordering(self):
        L = ordering([{Constant(0)}, {X, Y}, {Constant(5), Z}])
        assert L.term_count == 5
        assert L.block_index(X) == 1
        assert L.constant_of(2) == Constant(5)

    def test_two_constants_in_one_block_rejected(self):
        with pytest.raises(UnsatisfiableOrderingError):
            ordering([{Constant(0), Constant(1)}])

    def test_constants_must_increase(self):
        with pytest.raises(UnsatisfiableOrderingError):
            ordering([{Constant(5)}, {Constant(1)}])

    def test_empty_block_rejected(self):
        with pytest.raises(UnsatisfiableOrderingError):
            ordering([set()])

    def test_representative_prefers_constant(self):
        L = ordering([{X, Constant(3)}])
        assert L.representative(0) == Constant(3)
        L2 = ordering([{X, Y}])
        assert L2.representative(0) == X  # lexicographically smallest variable


class TestOrderRelation:
    def test_compare_and_satisfies(self):
        L = ordering([{X}, {Y, Constant(2)}, {Z}])
        assert L.compare(X, Y) == -1
        assert L.compare(Y, Constant(2)) == 0
        assert L.compare(Z, X) == 1
        assert L.satisfies(Comparison(X, ComparisonOp.LT, Z))
        assert L.satisfies(Comparison(Y, ComparisonOp.EQ, Constant(2)))
        assert L.satisfies(Comparison(Z, ComparisonOp.NE, X))
        assert not L.satisfies(Comparison(Z, ComparisonOp.LE, X))

    def test_unknown_term_raises(self):
        L = ordering([{X}])
        with pytest.raises(KeyError):
            L.block_index(Y)

    def test_to_comparisons_axiomatizes_the_order(self):
        L = ordering([{X, Y}, {Z}])
        comparisons = L.to_comparisons()
        assert Comparison(Y, ComparisonOp.EQ, X) in comparisons or Comparison(
            X, ComparisonOp.EQ, Y
        ) in comparisons
        assert any(c.op is ComparisonOp.LT for c in comparisons)


class TestDiscreteSatisfiability:
    def test_dense_always_satisfiable(self):
        L = ordering([{Constant(0)}, {X}, {Y}, {Constant(1)}], Domain.RATIONALS)
        assert L.is_satisfiable()

    def test_discrete_gap_check(self):
        L = ordering([{Constant(0)}, {X}, {Y}, {Constant(1)}], Domain.INTEGERS)
        assert not L.is_satisfiable()
        L2 = ordering([{Constant(0)}, {X}, {Constant(2)}], Domain.INTEGERS)
        assert L2.is_satisfiable()

    def test_unbounded_sides_always_fit(self):
        L = ordering([{X}, {Y}, {Constant(0)}, {Z}], Domain.INTEGERS)
        assert L.is_satisfiable()

    def test_fractional_constant_unsatisfiable_over_integers(self):
        L = ordering([{Constant(Fraction(1, 2))}, {X}], Domain.INTEGERS)
        assert not L.is_satisfiable()


class TestPinning:
    def test_forced_value_between_constants(self):
        L = ordering([{Constant(3)}, {X}, {Constant(5)}], Domain.INTEGERS)
        assert L.forced_value(1) == 4
        assert L.pinned_blocks() == {0: 3, 1: 4, 2: 5}
        assert L.free_block_indices() == []
        assert L.canonical_term(X) == Constant(4)

    def test_not_forced_when_gap_is_larger(self):
        L = ordering([{Constant(3)}, {X}, {Constant(6)}], Domain.INTEGERS)
        assert L.forced_value(1) is None
        assert L.free_block_indices() == [1]
        assert L.canonical_term(X) == X

    def test_never_forced_over_rationals(self):
        L = ordering([{Constant(3)}, {X}, {Constant(4)}], Domain.RATIONALS)
        assert L.forced_value(1) is None

    def test_unbounded_block_not_forced(self):
        L = ordering([{Constant(3)}, {X}], Domain.INTEGERS)
        assert L.forced_value(1) is None

    def test_chain_of_forced_blocks(self):
        L = ordering([{Constant(0)}, {X}, {Y}, {Constant(3)}], Domain.INTEGERS)
        assert L.forced_value(1) == 1 and L.forced_value(2) == 2


class TestInstantiation:
    @pytest.mark.parametrize("dom", [Domain.RATIONALS, Domain.INTEGERS])
    def test_instantiation_is_consistent(self, dom):
        L = ordering([{X}, {Constant(0)}, {Y}, {Z}, {Constant(4)}], dom)
        assert L.is_satisfiable()
        assignment = L.instantiate()
        assert assignment[Constant(0)] == 0 and assignment[Constant(4)] == 4
        values = [assignment[X], assignment[Constant(0)], assignment[Y], assignment[Z], assignment[Constant(4)]]
        assert all(Fraction(a) < Fraction(b) for a, b in zip(values, values[1:]))
        if dom.is_discrete:
            assert all(isinstance(v, int) for v in assignment.values())

    def test_same_block_same_value(self):
        L = ordering([{X, Y}, {Z}])
        assignment = L.instantiate()
        assert assignment[X] == assignment[Y] != assignment[Z]

    def test_unsatisfiable_instantiation_raises(self):
        L = ordering([{Constant(0)}, {X}, {Constant(1)}], Domain.INTEGERS)
        with pytest.raises(UnsatisfiableOrderingError):
            L.instantiate()

    def test_no_constants(self):
        L = ordering([{X}, {Y}])
        assignment = L.instantiate()
        assert Fraction(assignment[X]) < Fraction(assignment[Y])


class TestEnumeration:
    def test_counts_without_constants(self):
        orderings = list(enumerate_complete_orderings([X, Y], Domain.RATIONALS))
        assert len(orderings) == 3  # x<y, y<x, x=y
        orderings = list(enumerate_complete_orderings([X, Y, Z], Domain.RATIONALS))
        assert len(orderings) == 13  # ordered Bell number

    def test_count_helper_matches_enumeration(self):
        assert count_complete_orderings(2) == 3
        assert count_complete_orderings(3) == 13
        assert count_complete_orderings(4) == 75
        terms = [Variable(f"u{i}") for i in range(4)]
        assert sum(1 for _ in enumerate_complete_orderings(terms, Domain.RATIONALS)) == 75

    def test_constants_stay_ordered(self):
        orderings = list(
            enumerate_complete_orderings([X, Constant(0), Constant(1)], Domain.RATIONALS)
        )
        # x can be: <0, =0, between, =1, >1  -> 5 orderings
        assert len(orderings) == 5
        for L in orderings:
            assert L.compare(Constant(0), Constant(1)) == -1

    def test_discrete_enumeration_filters_impossible(self):
        dense = list(enumerate_complete_orderings([X, Y, Constant(0), Constant(1)], Domain.RATIONALS))
        discrete = list(enumerate_complete_orderings([X, Y, Constant(0), Constant(1)], Domain.INTEGERS))
        assert len(discrete) < len(dense)
        for L in discrete:
            assert L.is_satisfiable()

    def test_all_enumerated_are_distinct(self):
        orderings = list(enumerate_complete_orderings([X, Y, Constant(0)], Domain.RATIONALS))
        assert len({tuple(L.blocks) for L in orderings}) == len(orderings)


class TestExtensionsAndRestriction:
    def test_conservative_extensions_with_new_constant(self):
        L = ordering([{X}, {Constant(2)}])
        extensions = list(L.conservative_extensions(Constant(0)))
        # 0 can merge with x, or sit before x, between x and 2 -> but must stay < 2.
        assert all(Constant(0) in ext.terms() for ext in extensions)
        assert all(ext.restricted_to([X, Constant(2)]).blocks == L.blocks for ext in extensions)
        assert len(extensions) == 3

    def test_conservative_extension_when_constant_present(self):
        L = ordering([{Constant(0)}, {X}])
        assert list(L.conservative_extensions(Constant(0))) == [L]

    def test_conservative_extensions_respect_integer_gaps(self):
        L = ordering([{Constant(-1)}, {X}, {Constant(1)}], Domain.INTEGERS)
        extensions = list(L.conservative_extensions(Constant(0)))
        # The only way to place 0 is to merge it with x (x is pinned to 0).
        assert len(extensions) == 1
        assert extensions[0].canonical_term(X) == Constant(0)

    def test_restricted_to(self):
        L = ordering([{X}, {Y, Constant(1)}, {Z}])
        restricted = L.restricted_to([X, Z])
        assert restricted.blocks == (frozenset({X}), frozenset({Z}))

    def test_from_assignment(self):
        assignment = {X: 3, Y: 1, Z: 3, Constant(1): 1}
        L = CompleteOrdering.from_assignment(assignment, Domain.INTEGERS)
        assert L.compare(Y, X) == -1
        assert L.compare(X, Z) == 0
        assert L.block_index(Constant(1)) == L.block_index(Y)

    def test_from_assignment_rejects_moved_constant(self):
        with pytest.raises(UnsatisfiableOrderingError):
            CompleteOrdering.from_assignment({Constant(1): 2}, Domain.INTEGERS)
