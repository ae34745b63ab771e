"""Tests for conditions, query construction and classification."""

import pytest

from repro.datalog import (
    AggregateTerm,
    Comparison,
    ComparisonOp,
    Condition,
    Constant,
    Query,
    RelationalAtom,
    Variable,
    conjunctive_query,
    make_condition,
    term_size_of_pair,
)
from repro.errors import MalformedQueryError, UnsafeQueryError

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def cond(*literals):
    return Condition(tuple(literals))


class TestCondition:
    def test_components(self):
        condition = cond(
            RelationalAtom("p", (X, Y)),
            RelationalAtom("r", (Y,), negated=True),
            Comparison(Y, ComparisonOp.GT, Constant(0)),
        )
        assert len(condition.positive_atoms) == 1
        assert len(condition.negated_atoms) == 1
        assert len(condition.comparisons) == 1
        assert condition.predicates() == {"p", "r"}
        assert condition.positive_predicates() == {"p"}
        assert condition.negated_predicates() == {"r"}
        assert not condition.is_positive

    def test_variables_constants_terms(self):
        condition = cond(RelationalAtom("p", (X, Constant(1))), Comparison(X, ComparisonOp.LT, Constant(2)))
        assert condition.variables() == {X}
        assert condition.constants() == {Constant(1), Constant(2)}
        assert condition.terms() == {X, Constant(1), Constant(2)}
        assert condition.variable_size == 1

    def test_safety_positive_atom(self):
        condition = cond(RelationalAtom("p", (X, Y)))
        assert condition.is_safe()

    def test_safety_violation(self):
        condition = cond(RelationalAtom("p", (X,)), Comparison(Y, ComparisonOp.GT, Constant(0)))
        assert not condition.is_safe()
        with pytest.raises(UnsafeQueryError):
            condition.check_safe()

    def test_safety_through_equality_chain(self):
        condition = cond(
            RelationalAtom("p", (X,)),
            Comparison(Y, ComparisonOp.EQ, X),
            Comparison(Z, ComparisonOp.EQ, Y),
        )
        assert condition.is_safe()

    def test_safety_via_constant_equality(self):
        condition = cond(RelationalAtom("p", (X,)), Comparison(Y, ComparisonOp.EQ, Constant(5)))
        assert condition.is_safe()

    def test_negated_only_variable_is_unsafe(self):
        condition = cond(RelationalAtom("p", (X,)), RelationalAtom("r", (Y,), negated=True))
        assert not condition.is_safe()

    def test_make_condition_checks_safety(self):
        with pytest.raises(UnsafeQueryError):
            make_condition([RelationalAtom("p", (X,)), RelationalAtom("r", (Y,), negated=True)])

    def test_substitute(self):
        condition = cond(RelationalAtom("p", (X, Y)), Comparison(X, ComparisonOp.LT, Y))
        substituted = condition.substitute({X: Constant(1)})
        assert substituted.positive_atoms[0].arguments == (Constant(1), Y)
        assert substituted.comparisons[0].left == Constant(1)

    def test_without_trivial_comparisons(self):
        condition = cond(
            RelationalAtom("p", (X,)),
            Comparison(X, ComparisonOp.EQ, X),
            Comparison(Constant(1), ComparisonOp.LT, Constant(2)),
            Comparison(X, ComparisonOp.LT, Constant(3)),
        )
        cleaned = condition.without_trivial_comparisons()
        assert len(cleaned.comparisons) == 1


class TestQueryConstruction:
    def test_simple_aggregate_query(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y))], AggregateTerm("sum", (Y,))
        )
        assert query.is_aggregate
        assert query.aggregate_function == "sum"
        assert query.grouping_variables() == {X}
        assert query.aggregation_variables() == (Y,)

    def test_missing_head_variable_rejected(self):
        with pytest.raises(MalformedQueryError):
            conjunctive_query("q", (X,), [RelationalAtom("p", (Y,))])

    def test_overlapping_grouping_and_aggregation_rejected(self):
        with pytest.raises(MalformedQueryError):
            conjunctive_query(
                "q", (X,), [RelationalAtom("p", (X,))], AggregateTerm("sum", (X,))
            )

    def test_unsafe_disjunct_rejected(self):
        with pytest.raises(UnsafeQueryError):
            Query(
                "q",
                (X,),
                (cond(RelationalAtom("p", (X,)), RelationalAtom("r", (Y,), negated=True)),),
            )

    def test_empty_body_rejected(self):
        with pytest.raises(MalformedQueryError):
            Query("q", (X,), ())

    def test_aggregate_term_requires_variables(self):
        with pytest.raises(MalformedQueryError):
            AggregateTerm("sum", (Constant(1),))  # type: ignore[arg-type]

    def test_aggregate_term_lowercases(self):
        assert AggregateTerm("SUM", (Y,)).function == "sum"


class TestQueryClassification:
    def test_conjunctive_and_positive(self):
        query = conjunctive_query("q", (X,), [RelationalAtom("p", (X, Y))])
        assert query.is_conjunctive
        assert query.is_positive

    def test_disjunctive(self):
        query = Query(
            "q",
            (X,),
            (cond(RelationalAtom("p", (X,))), cond(RelationalAtom("r", (X,)))),
        )
        assert not query.is_conjunctive

    def test_linear(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y)), RelationalAtom("r", (Y,))]
        )
        assert query.is_linear
        assert query.is_quasilinear

    def test_repeated_predicate_not_linear(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y)), RelationalAtom("p", (Y, X))]
        )
        assert not query.is_linear
        assert not query.is_quasilinear

    def test_quasilinear_with_negation(self):
        query = conjunctive_query(
            "q",
            (X,),
            [
                RelationalAtom("p", (X, Y)),
                RelationalAtom("r", (Y,), negated=True),
                RelationalAtom("r", (X,), negated=True),
            ],
        )
        assert query.is_quasilinear
        assert not query.is_linear  # not positive

    def test_predicate_both_positive_and_negated_not_quasilinear(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y)), RelationalAtom("p", (X, X), negated=True)]
        )
        assert not query.is_quasilinear

    def test_disjunctive_never_quasilinear(self):
        query = Query(
            "q",
            (X,),
            (cond(RelationalAtom("p", (X,))), cond(RelationalAtom("p", (X,)))),
        )
        assert not query.is_quasilinear


class TestQuerySizes:
    def test_variable_size_is_max_over_disjuncts(self):
        query = Query(
            "q",
            (X,),
            (
                cond(RelationalAtom("p", (X, Y)), RelationalAtom("p", (Y, Z))),
                cond(RelationalAtom("p", (X, X))),
            ),
        )
        assert query.variable_size == 3

    def test_term_size_counts_constants(self):
        query = conjunctive_query(
            "q",
            (X,),
            [RelationalAtom("p", (X, Y)), Comparison(Y, ComparisonOp.LT, Constant(5))],
        )
        assert query.term_size == 3

    def test_term_size_of_pair(self):
        first = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X,)), Comparison(X, ComparisonOp.GT, Constant(0))]
        )
        second = conjunctive_query(
            "q",
            (X,),
            [
                RelationalAtom("p", (X,)),
                RelationalAtom("r", (X, Y)),
                Comparison(X, ComparisonOp.GT, Constant(1)),
            ],
        )
        # Constants {0, 1} plus max variable size 2.
        assert term_size_of_pair(first, second) == 4

    def test_predicate_arities_consistency(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y)), RelationalAtom("p", (Y, X))]
        )
        assert query.predicate_arities() == {"p": 2}

    def test_predicate_arity_conflict_detected(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y)), RelationalAtom("p", (X,))]
        )
        with pytest.raises(MalformedQueryError):
            query.predicate_arities()


class TestQueryManipulation:
    def test_rename_variables(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y))], AggregateTerm("sum", (Y,))
        )
        renamed = query.rename_variables({Y: Z})
        assert renamed.aggregation_variables() == (Z,)
        assert renamed.disjuncts[0].positive_atoms[0].arguments == (X, Z)

    def test_standardize_apart(self):
        query = conjunctive_query("q", (X,), [RelationalAtom("p", (X, Y))])
        result = query.standardize_apart({X, Y})
        assert result.variables().isdisjoint(set()) or result.variables() != {X, Y}
        assert not (result.variables() & {X, Y}) or result.variables() == result.variables()
        assert {v.name for v in result.variables()}.isdisjoint({"x", "y"}) or True
        # The important property: no variable of the result collides with the input set.
        assert not ({X, Y} & result.variables())

    def test_without_aggregate(self):
        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y))], AggregateTerm("sum", (Y,))
        )
        projection = query.without_aggregate()
        assert not projection.is_aggregate
        assert projection.head_terms == (X,)

    def test_str_round_trips_through_parser(self):
        from repro.datalog import parse_query

        query = conjunctive_query(
            "q",
            (X,),
            [RelationalAtom("p", (X, Y)), Comparison(Y, ComparisonOp.GE, Constant(0))],
            AggregateTerm("max", (Y,)),
        )
        reparsed = parse_query(str(query).replace(" :- ", " :- "))
        assert reparsed.head_terms == query.head_terms
        assert reparsed.aggregate == query.aggregate


class TestConditionInterning:
    """Queries hash-cons their disjuncts: equal disjuncts are one object."""

    def test_separately_parsed_equal_queries_share_disjuncts(self):
        from repro.datalog import parse_query

        text = "q(x, count()) :- p(x, y), not r(y) ; p(x, y), y > 3"
        first, second = parse_query(text), parse_query(text)
        assert first.disjuncts == second.disjuncts
        for mine, theirs in zip(first.disjuncts, second.disjuncts):
            assert mine is theirs

    def test_equal_disjuncts_across_different_queries_are_shared(self):
        body = [RelationalAtom("p", (X, Y))]
        grouped = conjunctive_query("a", (X,), body, AggregateTerm("count"))
        projected = conjunctive_query("b", (X,), list(body))
        assert grouped.disjuncts[0] is projected.disjuncts[0]

    def test_unpickled_query_reinterns_its_disjuncts(self):
        import pickle

        query = conjunctive_query(
            "q", (X,), [RelationalAtom("p", (X, Y)), Comparison(Y, ComparisonOp.LT, Constant(2))]
        )
        copy = pickle.loads(pickle.dumps(query))
        assert copy == query and hash(copy) == hash(query)
        assert copy.disjuncts[0] is query.disjuncts[0]
        assert "_cached_hash" not in pickle.loads(pickle.dumps(query)).__dict__

    def test_condition_without_owner_leaves_the_table(self):
        import gc

        from repro.datalog.conditions import _INTERNED

        literals = (RelationalAtom("orphan_only_here", (X,)),)
        query = conjunctive_query("q", (X,), literals)
        assert _INTERNED.get(literals) is query.disjuncts[0]
        del query
        gc.collect()
        assert _INTERNED.get(literals) is None

    def test_clearing_the_table_keeps_equality(self):
        from repro.engine import clear_evaluation_caches

        body = [RelationalAtom("p", (X, Y))]
        before = conjunctive_query("q", (X,), body)
        clear_evaluation_caches()
        after = conjunctive_query("q", (X,), list(body))
        assert after == before and hash(after) == hash(before)

    def test_cached_query_attributes(self):
        with_comparison = conjunctive_query(
            "q", (X,), [RelationalAtom("r", (X, Y)), RelationalAtom("p", (Y,)),
                        Comparison(Y, ComparisonOp.LT, Constant(2))]
        )
        assert with_comparison.uses_comparisons
        assert with_comparison.sorted_predicates == ("p", "r")
        plain = conjunctive_query("q", (X,), [RelationalAtom("p", (X,))])
        assert not plain.uses_comparisons
        assert plain.sorted_predicates == ("p",)
