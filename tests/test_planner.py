"""Tests for the join planner and the plan-driven evaluation engine."""

from repro import parse_database, parse_query
from repro.datalog.atoms import Comparison, ComparisonOp, RelationalAtom
from repro.datalog.conditions import Condition
from repro.datalog.terms import Variable
from repro.engine import (
    AtomStep,
    BindStep,
    CompareStep,
    NegationStep,
    clear_evaluation_caches,
    clear_plan_cache,
    clear_symbolic_caches,
    evaluate_set,
    get_kernel,
    kernel_cache_stats,
    naive_satisfying_assignments,
    plan_cache_stats,
    plan_condition,
    satisfying_assignments,
    store_for,
)
from repro.workloads import equivalence_matrix

x, y, z = Variable("x"), Variable("y"), Variable("z")


def _plan(text):
    return plan_condition(parse_query(text).disjuncts[0])


def _atom_order(plan):
    return [step.atom.predicate for step in plan.steps if isinstance(step, AtomStep)]


class TestPlanShape:
    def test_literal_order_breaks_ties(self):
        # p and r start equally unbound: the first literal is joined first,
        # and the second then probes on the now-bound z.
        plan = _plan("q(x, y) :- p(x, z), r(z, y)")
        atoms = [step for step in plan.steps if isinstance(step, AtomStep)]
        assert [step.atom.predicate for step in atoms] == ["p", "r"]
        assert atoms[1].bound_columns == (0,)
        swapped = _plan("q(x, y) :- r(z, y), p(x, z)")
        assert _atom_order(swapped) == ["r", "p"]

    def test_bound_coverage_beats_literal_order(self):
        # s(x) binds x; p(x, y) then has one bound column and is picked before
        # the earlier but completely unbound r(z, w).
        plan = _plan("q(x, y, z, w) :- s(x), r(z, w), p(x, y)")
        assert _atom_order(plan) == ["s", "p", "r"]

    def test_plan_depends_on_the_condition_alone(self):
        condition = parse_query("q(x, y) :- p(x, z), r(z, y), z > 0").disjuncts[0]
        assert plan_condition(condition) is plan_condition(condition)

    def test_comparison_pushed_to_earliest_point(self):
        plan = _plan("q(x, y) :- p(x, z), r(z, y), z > 0")
        kinds = [type(step) for step in plan.steps]
        # z is bound after the first atom, so the filter runs before the join.
        assert kinds.index(CompareStep) < kinds.index(AtomStep, 1)

    def test_negation_pushed_to_earliest_point(self):
        plan = _plan("q(x, y) :- p(x, z), not s(z), r(z, y)")
        kinds = [type(step) for step in plan.steps]
        assert kinds.index(NegationStep) < kinds.index(AtomStep, 1)

    def test_equality_chain_becomes_bind_steps(self):
        plan = _plan("q(x, y, z) :- p(x), y = x, z = y")
        binds = [step for step in plan.steps if isinstance(step, BindStep)]
        assert [step.variable for step in binds] == [y, z]
        assert plan.resolvable

    def test_constant_columns_count_as_bound(self):
        plan = _plan("q(y) :- p(1, y)")
        (atom_step,) = [step for step in plan.steps if isinstance(step, AtomStep)]
        assert atom_step.bound_columns == (0,)

    def test_unsafe_condition_is_unresolvable(self):
        # Constructed directly (make_condition would reject it): y is never
        # bound, so the plan must be flagged and its kernel must yield nothing.
        condition = Condition((RelationalAtom("p", (x,)), Comparison(y, ComparisonOp.LT, x)))
        plan = plan_condition(condition)
        assert not plan.resolvable
        kernel = get_kernel(plan, (x,))
        assert kernel(store_for(parse_database("p(1)."))) == []


class TestPlanReuse:
    def test_cold_matrix_plans_each_condition_once(self):
        """A plan is a function of its condition, so a cold catalog matrix
        builds no more plans than it compiles kernels (every kernel is keyed
        by one planned condition), however many symbolic stores it visits."""
        from test_sweep import _audit_catalog

        clear_symbolic_caches()
        clear_evaluation_caches()
        clear_plan_cache()
        try:
            equivalence_matrix(_audit_catalog(), workers=1, seed=0)
            builds = plan_cache_stats()["builds"]
            assert 0 < builds <= kernel_cache_stats()["compiles"]
        finally:
            clear_symbolic_caches()
            clear_evaluation_caches()
            clear_plan_cache()


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
