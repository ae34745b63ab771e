"""Tests for the abstract properties of aggregation functions and Table 1."""

import random

import pytest

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
    PAPER_TABLE1,
    build_table1,
    duplicate_insensitivity_counterexample,
    format_table1,
    group_decomposition_counterexample,
    idempotent_decomposition_counterexample,
    shiftability_counterexample,
    singleton_determining_counterexample,
    table1_matches_paper,
)


@pytest.fixture
def rng():
    return random.Random(12345)


class TestShiftability:
    @pytest.mark.parametrize("function", [COUNT, PARITY, CNTD, MAX, TOP2], ids=lambda f: f.name)
    def test_shiftable_functions_have_no_counterexample(self, function, rng):
        assert shiftability_counterexample(function, rng, trials=150) is None

    @pytest.mark.parametrize("function", [SUM, PROD, AVG], ids=lambda f: f.name)
    def test_non_shiftable_functions_have_counterexamples(self, function, rng):
        witness = shiftability_counterexample(function, rng, trials=2000)
        assert witness is not None, f"{function.name} should not be shiftable"
        assert witness.before_equal != witness.after_equal

    def test_papers_own_counterexample_for_sum_and_prod(self):
        # Section 4.1: B = {2, 2}, B' = {4}, φ(2) = 3, φ(4) = 5.
        shift = {2: 3, 4: 5}
        before_sum = SUM.apply([2, 2]) == SUM.apply([4])
        after_sum = SUM.apply([3, 3]) == SUM.apply([5])
        assert before_sum and not after_sum
        before_prod = PROD.apply([2, 2]) == PROD.apply([4])
        after_prod = PROD.apply([shift[2], shift[2]]) == PROD.apply([shift[4]])
        assert before_prod and not after_prod


class TestDuplicateInsensitivity:
    """The duplicate-tolerance trait (readmits max/min/topK/cntd over
    duplicating views in the rewriting unfolder) cross-validated against the
    empirical checker."""

    @pytest.mark.parametrize("function", [MAX, MIN, TOP2, BOT2, CNTD], ids=lambda f: f.name)
    def test_insensitive_functions_have_no_counterexample(self, function, rng):
        assert function.is_duplicate_insensitive
        assert duplicate_insensitivity_counterexample(function, rng, trials=200) is None

    @pytest.mark.parametrize(
        "function", [COUNT, SUM, PROD, AVG, PARITY], ids=lambda f: f.name
    )
    def test_sensitive_functions_have_counterexamples(self, function, rng):
        assert not function.is_duplicate_insensitive
        witness = duplicate_insensitivity_counterexample(function, rng, trials=500)
        assert witness is not None, f"{function.name} should distinguish duplicates"
        assert witness.bag_value != witness.set_value

    def test_declared_traits_match_empirical_search(self, rng):
        for function in PAPER_FUNCTIONS:
            witness = duplicate_insensitivity_counterexample(function, rng, trials=300)
            assert (witness is None) == function.is_duplicate_insensitive, function.name


class TestSingletonDetermination:
    @pytest.mark.parametrize(
        "function", [COUNT, MAX, SUM, PROD, TOP2, AVG, PARITY], ids=lambda f: f.name
    )
    def test_singleton_determining_functions(self, function):
        assert singleton_determining_counterexample(function) is None

    def test_cntd_is_not_singleton_determining(self):
        witness = singleton_determining_counterexample(CNTD)
        assert witness is not None
        first, second = witness
        assert first != second and CNTD.apply([first]) == CNTD.apply([second])


class TestDecompositionPrinciples:
    @pytest.mark.parametrize("function", [MAX, TOP2], ids=lambda f: f.name)
    def test_idempotent_principle(self, function, rng):
        assert idempotent_decomposition_counterexample(function, rng, trials=80) is None

    @pytest.mark.parametrize("function", [COUNT, SUM, PROD, PARITY], ids=lambda f: f.name)
    def test_group_principle(self, function, rng):
        assert group_decomposition_counterexample(function, rng, trials=60) is None

    def test_principles_do_not_apply_to_non_monoidal_functions(self, rng):
        assert idempotent_decomposition_counterexample(AVG, rng) is None
        assert group_decomposition_counterexample(CNTD, rng) is None
        for function in PAPER_FUNCTIONS:
            if not function.is_idempotent_monoidal:
                assert idempotent_decomposition_counterexample(function, rng) is None
            if not function.is_group_monoidal:
                assert group_decomposition_counterexample(function, rng) is None

    def test_inclusion_exclusion_reduces_to_cardinality_for_count(self):
        # Equation (9): |A ∪ B| = |A| + |B| - |A ∩ B| with count.
        family = [{(1,), (2,), (3,)}, {(2,), (3,), (4,)}]
        union = family[0] | family[1]
        direct = COUNT.apply(sorted(union))
        via_formula = (
            COUNT.apply(sorted(family[0]))
            + COUNT.apply(sorted(family[1]))
            - COUNT.apply(sorted(family[0] & family[1]))
        )
        assert direct == via_formula == 4


class TestTable1:
    def test_generated_table_matches_paper(self):
        rows = build_table1()
        assert table1_matches_paper(rows)

    def test_every_paper_function_has_a_row(self):
        rows = {row.function for row in build_table1()}
        assert rows == set(PAPER_TABLE1)

    def test_format_contains_all_functions(self):
        rendered = format_table1(build_table1())
        for function in PAPER_FUNCTIONS:
            assert function.name in rendered

    def test_prod_row_notes_nonzero_domain(self):
        row = next(row for row in build_table1() if row.function == "prod")
        assert row.decomposable_note == "over Q±"
        assert not row.decomposable

    def test_cntd_row(self):
        row = next(row for row in build_table1() if row.function == "cntd")
        assert row.shiftable and row.order_decidable
        assert not row.decomposable and not row.singleton_determining

    def test_mismatch_is_detected(self):
        rows = build_table1()
        rows[0].shiftable = not rows[0].shiftable
        assert not table1_matches_paper(rows)
