"""Tests for the top-level equivalence checker and Table 2."""

import pytest

from repro import Domain, parse_query
from repro.core import (
    PAPER_TABLE2,
    Verdict,
    are_equivalent,
    build_table2,
    decide_or_raise,
    format_table2,
    table2_matches_paper,
)
from repro.core.bounded import bounded_equivalence, local_equivalence
from repro.core.counterexample import exhaustive_counterexample
from repro.core.equivalence import QUASILINEAR_ISOMORPHISM, route_pair
from repro.errors import UndecidableError, UnsupportedAggregateError


class TestDispatcher:
    def test_quasilinear_fast_path_selected(self):
        first = parse_query("q(x, sum(y)) :- p(x, y), not r(y)")
        second = parse_query("q(x, sum(z)) :- p(x, z), not r(z)")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.EQUIVALENT
        assert "quasilinear" in result.method
        assert result.quasilinear is not None

    def test_general_procedure_for_disjunctive_queries(self):
        first = parse_query("q(max(y)) :- p(y) ; p(y), r(y)")
        second = parse_query("q(max(y)) :- p(y)")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.EQUIVALENT
        assert "local-equivalence" in result.method
        assert result.report is not None

    def test_non_equivalent_with_counterexample(self):
        first = parse_query("q(count()) :- p(y)")
        second = parse_query("q(count()) :- p(y), not r(y)")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.NOT_EQUIVALENT
        assert result.counterexample is not None

    def test_non_aggregate_queries_use_set_semantics(self):
        first = parse_query("q(x) :- p(x, y)")
        second = parse_query("q(x) :- p(x, y), p(x, z)")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.EQUIVALENT
        assert "set semantics" in result.method

    def test_different_aggregation_functions(self):
        first = parse_query("q(x, sum(y)) :- p(x, y)")
        second = parse_query("q(x, max(y)) :- p(x, y)")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.NOT_EQUIVALENT
        # A claim of non-equivalence must come with a concrete witness, not a
        # syntactic shortcut: differing function names alone prove nothing.
        assert "counterexample" in result.method
        assert result.counterexample is not None
        assert result.counterexample.database is not None

    def test_pinned_sum_vs_count_settled_by_normalization(self):
        # sum of values pinned to 1 is a count: the queries agree on every
        # database, so no witness exists and the only sound verdicts are
        # EQUIVALENT or UNKNOWN.  The pre-dispatch normalization rewrites the
        # sum query to a count query and settles the pair syntactically.
        first = parse_query("q(s, sum(a)) :- r(s, a), a = 1")
        second = parse_query("q(s, count()) :- r(s, a), a = 1")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.EQUIVALENT
        assert "normalization" in result.method

    def test_different_functions_agreeing_everywhere_report_unknown_unnormalized(self):
        # max and min of a column pinned to 1 agree on every database, and the
        # normalization pass (sum = c·count only) leaves the pair as it is: it
        # stays in the open fragment, no witness exists, so the dispatcher
        # must fall back to UNKNOWN rather than a witness-less NOT_EQUIVALENT.
        first = parse_query("q(s, max(a)) :- r(s, a), a = 1")
        second = parse_query("q(s, min(a)) :- r(s, a), a = 1")
        route = route_pair(first, second)
        assert (route.first, route.second, route.multiplier) == (first, second, None)
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.UNKNOWN
        assert result.counterexample is None

    def test_counterexample_trials_threaded_through_quasilinear_branch(self, monkeypatch):
        import repro.core.equivalence as equivalence_module

        captured = {}
        original = equivalence_module.find_counterexample

        def spy(first, second, **kwargs):
            captured["trials"] = kwargs.get("trials")
            return original(first, second, **kwargs)

        monkeypatch.setattr(equivalence_module, "find_counterexample", spy)
        # A non-equivalent quasilinear pair: the dispatcher searches for a
        # witness and must honour the caller's trial budget.
        first = parse_query("q(x, sum(y)) :- p(x, y), y > 0")
        second = parse_query("q(x, sum(y)) :- p(x, y), y > 1")
        result = are_equivalent(first, second, counterexample_trials=7)
        assert result.verdict is Verdict.NOT_EQUIVALENT
        assert captured["trials"] == 7

    def test_aggregate_vs_non_aggregate_rejected(self):
        with pytest.raises(UnsupportedAggregateError):
            are_equivalent(parse_query("q(x, sum(y)) :- p(x, y)"), parse_query("q(x) :- p(x, y)"))

    def test_avg_non_quasilinear_distinguishable(self):
        first = parse_query("q(x, avg(y)) :- p(x, y) ; p(x, y), y > 0")
        second = parse_query("q(x, avg(y)) :- p(x, y) ; p(x, y), y < 0")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.NOT_EQUIVALENT
        assert result.method == "counterexample search"

    def test_avg_doubling_disjunct_is_undetectable_hence_unknown(self):
        # Doubling every assignment does not change an average, so no
        # counterexample exists; the class is open, so the checker says UNKNOWN.
        first = parse_query("q(x, avg(y)) :- p(x, y) ; p(x, y), r(x)")
        second = parse_query("q(x, avg(y)) :- p(x, y) ; p(x, y), s(x)")
        result = are_equivalent(first, second, counterexample_trials=100)
        assert result.verdict is Verdict.UNKNOWN

    def test_avg_non_quasilinear_unknown_when_no_witness(self):
        first = parse_query("q(x, avg(y)) :- p(x, y) ; p(x, y)")
        second = parse_query("q(x, avg(y)) :- p(x, y) ; p(x, y), p(x, z)")
        result = are_equivalent(first, second, counterexample_trials=60)
        assert result.verdict in (Verdict.UNKNOWN, Verdict.NOT_EQUIVALENT)

    def test_unknown_with_bounded_check(self):
        first = parse_query("q(avg(y)) :- p(y) ; p(y)")
        second = parse_query("q(avg(y)) :- p(y) ; p(y), p(y)")
        result = are_equivalent(first, second, counterexample_trials=30, unknown_bound=1)
        assert result.verdict in (Verdict.UNKNOWN, Verdict.NOT_EQUIVALENT)
        if result.verdict is Verdict.UNKNOWN:
            assert "1-equivalent" in result.details

    def test_prod_over_rationals_is_decided(self):
        # The second disjunct is unsatisfiable, so the queries are equivalent;
        # prod over Q is decided via Theorem 6.6.
        first = parse_query("q(prod(y)) :- p(y) ; p(y), y > 0, y < 0")
        second = parse_query("q(prod(y)) :- p(y)")
        result = are_equivalent(first, second, domain=Domain.RATIONALS)
        assert result.verdict is Verdict.EQUIVALENT
        assert "local-equivalence" in result.method

    def test_prod_doubling_is_not_equivalent(self):
        first = parse_query("q(prod(y)) :- p(y) ; p(y), r(y)")
        second = parse_query("q(prod(y)) :- p(y)")
        result = are_equivalent(first, second, domain=Domain.RATIONALS)
        assert result.verdict is Verdict.NOT_EQUIVALENT

    def test_prod_over_integers_falls_back(self):
        first = parse_query("q(prod(y)) :- p(y) ; p(y), y > 0, y < 0")
        second = parse_query("q(prod(y)) :- p(y)")
        result = are_equivalent(first, second, domain=Domain.INTEGERS, counterexample_trials=50)
        assert result.verdict is Verdict.UNKNOWN

    def test_decide_or_raise(self):
        first = parse_query("q(x, sum(y)) :- p(x, y)")
        assert decide_or_raise(first, first)
        unknown_first = parse_query("q(avg(y)) :- p(y) ; p(y)")
        unknown_second = parse_query("q(avg(y)) :- p(y) ; p(y), p(y)")
        with pytest.raises(UndecidableError):
            decide_or_raise(unknown_first, unknown_second)

    def test_prefer_quasilinear_can_be_disabled(self):
        # The dispatcher routes the pair to the quasilinear fast path; the
        # general local-equivalence procedure it skips agrees with it.
        first = parse_query("q(max(y)) :- p(y), not r(y)")
        assert route_pair(first, first).procedure == QUASILINEAR_ISOMORPHISM
        assert local_equivalence(first, first).equivalent

    def test_result_dunder_bool_and_str(self):
        first = parse_query("q(x, sum(y)) :- p(x, y)")
        result = are_equivalent(first, first)
        assert bool(result)
        assert "equivalent" in str(result)


class TestKnownEquivalencesFromThePaper:
    def test_max_ignores_multiplicity_sum_does_not(self):
        base = "q(x, {f}(y)) :- p(x, y)"
        doubled = "q(x, {f}(y)) :- p(x, y) ; p(x, y)"
        # Idempotent functions ignore the duplicated disjunct; group functions
        # (count, sum) and parity see every assignment twice and differ.
        for function, expected in (("max", True), ("top2", True), ("sum", False), ("count", False), ("parity", False)):
            first = parse_query(base.format(f=function) if function not in ("count", "parity") else f"q(x, {function}()) :- p(x, y)")
            second = parse_query(
                doubled.format(f=function)
                if function not in ("count", "parity")
                else f"q(x, {function}()) :- p(x, y) ; p(x, y)"
            )
            result = are_equivalent(first, second)
            assert (result.verdict is Verdict.EQUIVALENT) == expected, function

    def test_bag_set_corollary_via_count(self):
        # Two non-aggregate queries equivalent under bag-set semantics iff their
        # count-queries are equivalent (Section 8).
        from repro.core import as_count_query, bag_set_equivalent

        first = parse_query("q(x) :- p(x, y), not r(y)")
        second = parse_query("q(x) :- p(x, z), not r(z)")
        count_result = are_equivalent(as_count_query(first), as_count_query(second))
        assert bag_set_equivalent(first, second).equivalent == count_result.is_equivalent


#: Bodies of a small query family, with the verdict for idempotent
#: functions and for the others: ``(body, body, idempotent, other)``.
TABLE2_FAMILY = [
    ("p(y), not r(y)", "p(y), not r(y)", True, True),
    ("p(y) ; p(y), r(y)", "p(y)", True, False),
    ("p(y), y > 0", "p(y), 0 < y", True, True),
    ("p(y)", "p(y), not r(y)", False, False),
]


def _table2_query(function: str, body: str):
    head = f"q({function}())" if function in ("count", "parity") else f"q({function}(y))"
    return parse_query(f"{head} :- {body}")


class TestTable2:
    @pytest.mark.parametrize(
        "function", ["count", "max", "sum", "prod", "top2", "avg", "cntd", "parity"]
    )
    def test_bounded_equivalence_terminates(self, function):
        reports = [
            bounded_equivalence(_table2_query(function, body_a), _table2_query(function, body_b), 1)
            for body_a, body_b, _, _ in TABLE2_FAMILY
        ]
        assert reports[0].equivalent  # identical bodies

    @pytest.mark.parametrize("function", ["count", "max", "sum", "parity", "top2", "prod"])
    def test_decidable_classes_are_decided(self, function):
        """Where the equivalence column says yes, the checker decides the
        family and every non-equivalent pair has a concrete witness."""
        for body_a, body_b, idempotent, other in TABLE2_FAMILY:
            first, second = _table2_query(function, body_a), _table2_query(function, body_b)
            result = are_equivalent(first, second)
            assert result.verdict is not Verdict.UNKNOWN
            expected = idempotent if function in ("max", "top2") else other
            assert result.is_equivalent == expected, (function, body_a, body_b)
            if not expected:
                witness = exhaustive_counterexample(first, second, values=[0, 1, 2], max_facts=3)
                assert witness is not None

    @pytest.mark.parametrize("function", ["avg", "cntd"])
    def test_open_classes_do_not_guess(self, function):
        first = _table2_query(function, "p(y) ; p(y), r(y)")
        second = _table2_query(function, "p(y) ; p(y), s(y)")
        verdict = are_equivalent(first, second, counterexample_trials=100).verdict
        assert verdict in (Verdict.UNKNOWN, Verdict.NOT_EQUIVALENT)

    def test_generated_table_matches_paper(self):
        assert table2_matches_paper(build_table2(Domain.RATIONALS))

    def test_all_functions_present(self):
        rows = {row.function for row in build_table2()}
        assert rows == set(PAPER_TABLE2)

    def test_bounded_equivalence_decidable_everywhere(self):
        assert all(row.bounded_equivalence for row in build_table2())

    def test_open_cells(self):
        rows = {row.function: row for row in build_table2()}
        assert rows["avg"].equivalence == "open"
        assert rows["cntd"].equivalence == "open"
        assert rows["cntd"].quasilinear == "special cases"

    def test_format_table2(self):
        rendered = format_table2(build_table2())
        assert "cntd" in rendered and "special cases" in rendered

    def test_mismatch_detected(self):
        rows = build_table2()
        rows[0].equivalence = "open"
        assert not table2_matches_paper(rows)
