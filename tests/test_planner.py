"""Tests for the join planner and the plan-driven evaluation engine."""

import pytest

from repro import parse_database, parse_query
from repro.datalog.atoms import Comparison, ComparisonOp, RelationalAtom
from repro.datalog.conditions import Condition
from repro.datalog.terms import Constant, Variable
from repro.engine import (
    AtomStep,
    BindStep,
    CompareStep,
    NegationStep,
    evaluate_set,
    get_kernel,
    naive_satisfying_assignments,
    plan_condition,
    satisfying_assignments,
    store_for,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def _plan(condition, sizes):
    return plan_condition(condition, lambda predicate: sizes.get(predicate, 0))


class TestPlanShape:
    def test_smaller_relation_breaks_ties(self):
        condition = parse_query("q(x, y) :- p(x, z), r(z, y)").disjuncts[0]
        plan = _plan(condition, {"p": 1000, "r": 3})
        atoms = [step for step in plan.steps if isinstance(step, AtomStep)]
        assert atoms[0].atom.predicate == "r"
        # The second atom joins on the now-bound z (its first column).
        assert atoms[1].atom.predicate == "p"
        assert atoms[1].bound_columns == (1,)

    def test_bound_coverage_beats_relation_size(self):
        # s(x) binds x; p(x, y) then has one bound column and is picked before
        # the smaller but completely unbound r(z, w).
        condition = parse_query("q(x, y, z, w) :- s(x), p(x, y), r(z, w)").disjuncts[0]
        plan = _plan(condition, {"s": 5, "p": 1000, "r": 10})
        order = [step.atom.predicate for step in plan.steps if isinstance(step, AtomStep)]
        assert order == ["s", "p", "r"]

    def test_comparison_pushed_to_earliest_point(self):
        condition = parse_query("q(x, y) :- p(x, z), r(z, y), z > 0").disjuncts[0]
        plan = _plan(condition, {"p": 1, "r": 1})
        kinds = [type(step) for step in plan.steps]
        # z is bound after the first atom, so the filter runs before the join.
        assert kinds.index(CompareStep) < kinds.index(AtomStep, 1)

    def test_negation_pushed_to_earliest_point(self):
        condition = parse_query("q(x, y) :- p(x, z), not s(z), r(z, y)").disjuncts[0]
        plan = _plan(condition, {"p": 1, "r": 1, "s": 1})
        kinds = [type(step) for step in plan.steps]
        assert kinds.index(NegationStep) < kinds.index(AtomStep, 1)

    def test_equality_chain_becomes_bind_steps(self):
        condition = parse_query("q(x, y, z) :- p(x), y = x, z = y").disjuncts[0]
        plan = _plan(condition, {"p": 1})
        binds = [step for step in plan.steps if isinstance(step, BindStep)]
        assert [step.variable for step in binds] == [y, z]
        assert plan.resolvable

    def test_constant_columns_count_as_bound(self):
        condition = parse_query("q(y) :- p(1, y)").disjuncts[0]
        plan = _plan(condition, {"p": 10})
        (atom_step,) = [step for step in plan.steps if isinstance(step, AtomStep)]
        assert atom_step.bound_columns == (0,)

    def test_unsafe_condition_is_unresolvable(self):
        # Constructed directly (make_condition would reject it): y is never
        # bound, so the plan must be flagged and its kernel must yield nothing.
        condition = Condition((RelationalAtom("p", (x,)), Comparison(y, ComparisonOp.LT, x)))
        plan = _plan(condition, {"p": 1})
        assert not plan.resolvable
        kernel = get_kernel(plan, (x,))
        assert kernel(store_for(parse_database("p(1)."))) == []


class TestJoinSelectivity:
    """Distinct-count statistics (ISSUE 6 satellite): among equally-bound
    atoms the planner must prefer the smallest *estimated* probe result
    (``rows / distinct`` of the most selective bound column), not the
    smallest relation."""

    CONDITION = parse_query("q(x, y, z) :- s(x), a(x, y), b(x, z)").disjuncts[0]

    def _order(self, sizes, distincts):
        plan = plan_condition(
            self.CONDITION,
            lambda predicate: sizes[predicate],
            lambda predicate, column: distincts[predicate][column],
        )
        return [step.atom.predicate for step in plan.steps if isinstance(step, AtomStep)]

    def test_distinct_counts_break_equal_size_ties(self):
        # Both joins probe on the bound x; a's first column is near-unique
        # (est. 1 row per probe) while b's has two values (est. 500 rows).
        sizes = {"s": 5, "a": 1000, "b": 1000}
        selective_a = {"s": (5,), "a": (1000, 10), "b": (2, 10)}
        assert self._order(sizes, selective_a) == ["s", "a", "b"]
        # Swapping the statistics must flip the join order.
        selective_b = {"s": (5,), "a": (2, 10), "b": (1000, 10)}
        assert self._order(sizes, selective_b) == ["s", "b", "a"]

    def test_selectivity_overrides_raw_size(self):
        # b is 20x smaller, but every probe on it returns ~100 rows while a
        # returns ~1 — the estimated result decides, not the relation size.
        sizes = {"s": 5, "a": 2000, "b": 100}
        distincts = {"s": (5,), "a": (2000, 3), "b": (1, 3)}
        assert self._order(sizes, distincts) == ["s", "a", "b"]
        # Without statistics the raw-size fallback picks the small relation,
        # preserving the pre-statistics ordering.
        assert self._order_without_stats(sizes) == ["s", "b", "a"]

    def _order_without_stats(self, sizes):
        plan = plan_condition(self.CONDITION, lambda predicate: sizes[predicate])
        return [step.atom.predicate for step in plan.steps if isinstance(step, AtomStep)]


class TestEngineCorners:
    """Pins the corners the removed ``_check_residual_literals`` pass claimed
    to guard: empty relations and 0-ary atoms."""

    def test_empty_relation_yields_no_assignments(self):
        query = parse_query("q(x) :- missing(x)")
        database = parse_database("p(1).")
        assert satisfying_assignments(query, database) == []
        assert naive_satisfying_assignments(query, database) == []

    def test_empty_relation_with_all_variables_bound_elsewhere(self):
        # Both variables of r(x, y) are bound by p; r is empty, so the join
        # over r must empty the result without any residual re-verification.
        query = parse_query("q(x, y) :- p(x, y), r(x, y)")
        database = parse_database("p(1, 2). p(3, 4).")
        assert evaluate_set(query, database) == set()
        assert naive_satisfying_assignments(query, database) == []

    def test_zero_ary_atom_present(self):
        query = parse_query("q(x) :- p(x), flag()")
        database = parse_database("p(1). p(2). flag().")
        assert evaluate_set(query, database) == {(1,), (2,)}

    def test_zero_ary_atom_absent(self):
        query = parse_query("q(x) :- p(x), flag()")
        database = parse_database("p(1). p(2).")
        assert evaluate_set(query, database) == set()
        assert naive_satisfying_assignments(query, database) == []

    def test_negated_zero_ary_atom(self):
        query = parse_query("q(x) :- p(x), not flag()")
        with_flag = parse_database("p(1). flag().")
        without_flag = parse_database("p(1).")
        assert evaluate_set(query, with_flag) == set()
        assert evaluate_set(query, without_flag) == {(1,)}

    def test_index_probe_with_repeated_variable(self):
        # The probed row still has to satisfy the repeated-variable constraint
        # on the unbound columns.
        query = parse_query("q(x, y) :- p(x, y), r(y, y)")
        database = parse_database("p(1, 2). p(1, 3). r(2, 2). r(3, 4).")
        assert evaluate_set(query, database) == {(1, 2)}
