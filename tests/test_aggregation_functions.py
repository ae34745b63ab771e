"""Tests for the concrete aggregation functions (apply semantics and traits)."""

import random
import zlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aggregates import (
    AVG,
    BOT2,
    CNTD,
    COUNT,
    MAX,
    MIN,
    PAPER_FUNCTIONS,
    PARITY,
    PROD,
    SUM,
    TOP2,
    TopK,
    get_function,
    registered_function_names,
)
from repro.domains import normalize_value
from repro.errors import UnsupportedAggregateError

values = st.lists(st.integers(min_value=-20, max_value=20), max_size=8)


class TestRegistry:
    def test_lookup_by_name_and_alias(self):
        assert get_function("sum") is SUM
        assert get_function("SUM") is SUM
        assert get_function("count_distinct") is CNTD
        assert get_function("average") is AVG
        assert get_function("product") is PROD

    def test_unknown_function(self):
        with pytest.raises(UnsupportedAggregateError):
            get_function("median")

    def test_registered_names_cover_paper_functions(self):
        names = registered_function_names()
        for function in PAPER_FUNCTIONS:
            assert function.name in names

    def test_topk_family_registered(self):
        assert get_function("top3").k == 3
        assert get_function("bot4").k == 4


class TestApply:
    def test_count_and_parity(self):
        assert COUNT.apply([(), (), ()]) == 3
        assert COUNT.apply([]) == 0
        assert PARITY.apply([(), (), ()]) == 1
        assert PARITY.apply([(), ()]) == 0

    def test_sum_prod_avg(self):
        assert SUM.apply([1, 2, 3]) == 6
        assert SUM.apply([]) == 0
        assert PROD.apply([2, 3, 4]) == 24
        assert PROD.apply([]) == 1
        assert PROD.apply([2, 0, 5]) == 0
        assert AVG.apply([1, 2]) == Fraction(3, 2)
        assert AVG.apply([2, 2]) == 2
        assert AVG.apply([]) is None

    def test_sum_accepts_tuples_and_scalars(self):
        assert SUM.apply([(1,), (2,)]) == SUM.apply([1, 2])

    def test_max_min(self):
        assert MAX.apply([3, 1, 7]) == 7
        assert MIN.apply([3, 1, 7]) == 1
        assert MAX.apply([]) is None
        assert MAX.apply([Fraction(1, 2), 0]) == Fraction(1, 2)

    def test_top2_bot2(self):
        assert TOP2.apply([5, 2, 5, 1]) == (5, 2)
        assert TOP2.apply([5]) == (5,)
        assert TOP2.apply([]) == ()
        assert BOT2.apply([5, 2, 5, 1]) == (1, 2)
        assert TopK(3).apply([9, 1, 4, 9, 6]) == (9, 6, 4)

    def test_cntd(self):
        assert CNTD.apply([1, 1, 2]) == 2
        assert CNTD.apply([(1, 2), (1, 2), (2, 1)]) == 2
        assert CNTD.apply([]) == 0

    def test_sum_rejects_pairs(self):
        with pytest.raises(UnsupportedAggregateError):
            SUM.apply([(1, 2)])

    def test_fractional_arithmetic_is_exact(self):
        assert SUM.apply([Fraction(1, 3)] * 3) == 1
        assert AVG.apply([Fraction(1, 3), Fraction(2, 3)]) == Fraction(1, 2)
        assert PROD.apply([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 3)


class TestDeclaredTraits:
    def test_monoidal_classification(self):
        assert COUNT.is_group_monoidal and SUM.is_group_monoidal and PARITY.is_group_monoidal
        assert MAX.is_idempotent_monoidal and TOP2.is_idempotent_monoidal
        assert not AVG.is_monoidal and not CNTD.is_monoidal

    def test_decomposability(self):
        assert COUNT.is_decomposable and SUM.is_decomposable and MAX.is_decomposable
        assert TOP2.is_decomposable and PARITY.is_decomposable
        assert not AVG.is_decomposable and not CNTD.is_decomposable
        assert not PROD.is_decomposable and PROD.decomposable_over_nonzero_only

    def test_shiftability_flags(self):
        assert COUNT.is_shiftable and MAX.is_shiftable and TOP2.is_shiftable
        assert CNTD.is_shiftable and PARITY.is_shiftable
        assert not SUM.is_shiftable and not PROD.is_shiftable and not AVG.is_shiftable

    def test_singleton_determining_flags(self):
        for function in (COUNT, MAX, SUM, PROD, TOP2, AVG, PARITY):
            assert function.is_singleton_determining
        assert not CNTD.is_singleton_determining

    def test_order_decidable_everywhere(self):
        from repro.domains import Domain

        for function in PAPER_FUNCTIONS:
            assert function.is_order_decidable_over(Domain.RATIONALS)
            assert function.is_order_decidable_over(Domain.INTEGERS)

    def test_min_bot2_mirror_max_top2(self):
        assert MIN.is_shiftable and MIN.is_idempotent_monoidal and MIN.is_singleton_determining
        assert BOT2.is_shiftable and BOT2.is_idempotent_monoidal


class TestAgainstMonoidDefinition:
    """α_f^+(B) must equal the monoid fold of f over the bag (Section 2)."""

    @given(bag=values)
    def test_sum_is_monoid_fold(self, bag):
        monoid = SUM.monoid
        assert SUM.apply(bag) == monoid.combine(bag)

    @given(bag=values)
    def test_count_is_monoid_fold(self, bag):
        monoid = COUNT.monoid
        assert COUNT.apply([()] * len(bag)) == monoid.combine(1 for _ in bag)

    @given(bag=values)
    def test_parity_is_monoid_fold(self, bag):
        monoid = PARITY.monoid
        assert PARITY.apply([()] * len(bag)) == monoid.combine(1 for _ in bag)

    @given(bag=values)
    def test_max_is_monoid_fold(self, bag):
        monoid = MAX.monoid
        assert MAX.apply(bag) == monoid.combine(bag)

    @given(bag=values)
    def test_top2_is_monoid_fold(self, bag):
        monoid = TOP2.monoid
        assert TOP2.apply(bag) == monoid.combine((value,) for value in bag)

    @given(bag=st.lists(st.integers(min_value=1, max_value=9), max_size=6))
    def test_prod_is_monoid_fold_over_nonzero(self, bag):
        monoid = PROD.monoid
        assert PROD.apply(bag) == monoid.combine(bag)


class TestCountedFold:
    """``apply_counted`` over ``(element, multiplicity)`` pairs must equal
    ``apply`` of the expanded bag, in value and in type, for every
    registered function."""

    @staticmethod
    def _bags(function, rng):
        pool = [normalize_value(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
                for _ in range(6)]
        if function.name == "prod":
            pool = [value for value in pool if value] or [1]
        for size in (0, 1, 2, 5, 12):
            bag = [rng.choice(pool) for _ in range(size)]
            if function.input_arity == 0:
                yield [()] * size
            elif function.input_arity is None:
                yield [(value, rng.choice(pool[:2])) for value in bag]
            else:
                yield [(value,) for value in bag]
                yield bag

    @pytest.mark.parametrize("name", registered_function_names())
    def test_counted_fold_equals_apply_on_the_expanded_bag(self, name):
        function = get_function(name)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(20):
            for bag in self._bags(function, rng):
                items = list(Counter(bag).items())
                expanded = [element for element, count in items for _ in range(count)]
                expected = function.apply(expanded)
                counted = function.apply_counted(items)
                assert counted == expected, (name, items)
                assert type(counted) is type(expected), (name, items)
                if isinstance(expected, tuple):
                    assert [type(v) for v in counted] == [type(v) for v in expected]

    def test_counted_sum_stays_exact(self):
        assert SUM.apply_counted([((Fraction(1, 3),), 3), ((2,), 2)]) == 5
        assert type(SUM.apply_counted([((Fraction(1, 3),), 3)])) is int
        assert AVG.apply_counted([((1,), 1), ((2,), 2)]) == Fraction(5, 3)
        assert AVG.apply_counted([]) is None
        with pytest.raises(UnsupportedAggregateError):
            SUM.apply_counted([((1, 2), 1)])
