"""Tests for the single-sweep catalog engine and the widened normalization.

Covers the constant-propagation fixes in the dispatcher (equality-chain pins,
the ``sum ≡ c·count`` generalization, and the documented negative cases), the
sweep planner's partition of matrix cells, the group-comparison kernels, and
a differential suite pinning ``equivalence_matrix`` against the per-pair
reference (every cell a pair task over its own BASE) — verdicts, methods,
details and witnesses cell for cell — on every scenario catalog, serial and
with ``workers=2``.
"""

import warnings

import pytest

from repro import Verdict, parse_query
from repro.core import are_equivalent
from repro.core.bounded import local_equivalence, sweep_equivalence
from repro.core.equivalence import (
    LOCAL_PROCEDURES,
    aggregation_pin,
    pair_count_reduction,
    route_pair,
    sum_count_reduction,
)
from repro.datalog.queries import catalog_predicate_arities
from repro.datalog.terms import Constant
from repro.domains import Domain
from repro.engine import clear_symbolic_caches
from repro.engine.symbolic import SymbolicDatabase, symbolic_group_index
from repro.errors import ReproError, SearchSpaceBudgetError
from repro.obs import REGISTRY
from repro.parallel.executor import default_workers
from repro.parallel.tasks import pair_check_tasks, run_pair_task
from repro.workloads import build_warehouse, equivalence_matrix
from repro.workloads.batch import plan_catalog_sweep


# ----------------------------------------------------------------------
# Normalization: equality-chain pins and sum ≡ c·count
# ----------------------------------------------------------------------
class TestEqualityChainPin:
    def test_chain_pin_flips_sum_count_pair_to_equivalent(self):
        # The ISSUE 3 acceptance case: a pin through y = z, z = 1 used to
        # leave the pair UNKNOWN (the syntactic check saw no direct y = 1).
        first = parse_query("q(s, sum(u)) :- p(s, a), u = z, z = 1")
        second = parse_query("q(s, count()) :- p(s, a)")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.EQUIVALENT
        assert "normalization" in result.method
        route = route_pair(first, second)
        assert route.multiplier == Constant(1)
        assert route.first.aggregate.function == "count"

    def test_longer_chains_propagate(self):
        query = parse_query("q(s, sum(u)) :- p(s, a), u = z, z = w, w = 1")
        assert aggregation_pin(query) == Constant(1)
        rewritten, _, note = sum_count_reduction(query)
        assert note is not None and rewritten.aggregate.function == "count"

    def test_chain_through_a_constant_hop(self):
        # u = 1 and 1 = w put u and w in one class; the single constant 1
        # still pins u.
        query = parse_query("q(s, sum(u)) :- p(s, a), w = 1, u = w")
        assert aggregation_pin(query) == Constant(1)

    def test_pin_must_hold_in_every_disjunct(self):
        query = parse_query("q(s, sum(u)) :- p(s, u), u = z, z = 1 ; p(s, u)")
        assert aggregation_pin(query) is None
        assert sum_count_reduction(query) is None

    def test_order_comparisons_are_not_chased(self):
        # u >= 1, u <= 1 pins semantically but not through equality atoms;
        # the propagation deliberately stays syntactic over ``=`` chains.
        query = parse_query("q(s, sum(u)) :- r(s, u), u >= 1, u <= 1")
        assert aggregation_pin(query) is None

    def test_conflicting_constants_bail(self):
        # u = 1, u = 2 makes the disjunct unsatisfiable; the rewriting stays
        # out of that corner instead of picking one of the constants.
        query = parse_query("q(s, sum(u)) :- p(s, a), u = 1, u = 2")
        assert aggregation_pin(query) is None


class TestCCountGeneralization:
    def test_same_multiplier_pair_decides_equivalent(self):
        first = parse_query("q(s, sum(u)) :- r(s, a), u = 2")
        second = parse_query("q(s, sum(v)) :- r(s, a), v = w, w = 2")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.EQUIVALENT
        assert "sum→2·count normalization" in result.method

    def test_not_equivalent_witness_reports_original_values(self):
        first = parse_query("q(s, sum(u)) :- r(s, a), u = 2")
        second = parse_query("q(s, sum(v)) :- r(s, a), not t(s), v = 2")
        result = are_equivalent(first, second, seed=3)
        assert result.verdict is Verdict.NOT_EQUIVALENT
        assert "sum→2·count normalization" in result.method
        witness = result.counterexample
        assert witness is not None and witness.database is not None
        from repro.engine import evaluate

        assert witness.left_result == evaluate(first, witness.database)
        assert witness.right_result == evaluate(second, witness.database)
        assert witness.left_result != witness.right_result

    def test_mixed_multipliers_stay_unrewritten(self):
        # sum pinned to 2 against a plain count: 2·count1 ≡ count2 does not
        # reduce to count1 ≡ count2, so no verdict would transfer.
        first = parse_query("q(s, sum(u)) :- r(s, a), u = 2")
        second = parse_query("q(s, count()) :- r(s, a), not t(s)")
        assert pair_count_reduction(first, second) is None
        result = are_equivalent(first, second, counterexample_trials=60)
        assert "normalization" not in result.method

    def test_zero_pin_is_excluded(self):
        # A sum pinned to 0 returns 0 for every group: equivalence
        # degenerates to group-key agreement, strictly weaker than count
        # equivalence, so the rewrite would not be verdict-preserving.
        query = parse_query("q(s, sum(u)) :- r(s, a), u = 0")
        assert aggregation_pin(query) is None
        assert sum_count_reduction(query) is None

    def test_disjuncts_with_different_constants_bail(self):
        query = parse_query("q(s, sum(u)) :- r(s, a), u = 2 ; r(s, a), u = 3")
        assert aggregation_pin(query) is None

    def test_reduction_keeps_non_unit_multiplier(self):
        query = parse_query("q(s, sum(u)) :- r(s, a), u = z, z = 2")
        reduction = sum_count_reduction(query)
        assert reduction is not None
        _, multiplier, reduction_note = reduction
        assert multiplier == Constant(2) and "2·count" in reduction_note


# ----------------------------------------------------------------------
# Sweep planner
# ----------------------------------------------------------------------
def _audit_catalog():
    return {
        "audit_a": parse_query(
            "audit(s, count()) :- returns(s, p), premium_store(s) ; "
            "returns(s, p), discontinued(p)"
        ),
        "audit_b": parse_query(
            "audit(s, count()) :- premium_store(s), returns(s, p) ; "
            "returns(s, p), discontinued(p)"
        ),
        "audit_c": parse_query(
            "audit(x, count()) :- returns(x, y), premium_store(x) ; "
            "returns(x, y), discontinued(y)"
        ),
        "audit_dup": parse_query(
            "audit(s, count()) :- returns(s, p), premium_store(s) ; "
            "returns(s, p), premium_store(s) ; returns(s, p), discontinued(p)"
        ),
        "audit_keep": parse_query(
            "audit(s, count()) :- returns(s, p), premium_store(s) ; returns(s, p)"
        ),
    }


def _split_audit_catalog():
    """The audit catalog plus ``audit_split``: ``audit_a`` with its first
    disjunct split on ``discontinued(p)``.  The split partitions that
    disjunct's assignments, so ``audit_split`` is equivalent to the
    ``audit_a`` class without being isomorphic to it — a pair only a full
    search settles, which keeps the sweep open past the warm prefix."""
    catalog = _audit_catalog()
    catalog["audit_split"] = parse_query(
        "audit(s, count()) :- returns(s, p), premium_store(s), discontinued(p) ; "
        "returns(s, p), premium_store(s), not discontinued(p) ; "
        "returns(s, p), discontinued(p)"
    )
    return catalog


def _mixed_catalog():
    # The disjunctive unit queries keep their variable count low (τ = 3):
    # their count forms retain the pin comparisons, which disables the
    # shared-Γ caches and makes every ordering its own class — the τ = 4
    # variant costs seconds per cell for no extra coverage (the chain pin is
    # exercised by the quasilinear cells of the analyst catalog and the unit
    # tests above).
    catalog = _audit_catalog()
    catalog.update(
        {
            "unit_sum": parse_query(
                "u(sum(w)) :- premium_store(s), w = 1 ; discontinued(s), w = 1"
            ),
            "unit_sum2": parse_query(
                "u(sum(w)) :- premium_store(s), 1 = w ; discontinued(s), w = 1"
            ),
            "unit_count": parse_query("u(count()) :- premium_store(s) ; discontinued(s)"),
            "plain_a": parse_query("q(s) :- returns(s, p), premium_store(s)"),
            "plain_b": parse_query("q(x) :- returns(x, y), premium_store(x)"),
            "plain_swap": parse_query("q(y) :- premium_store(y), returns(y, w)"),
            "plain_c": parse_query("q(s) :- returns(s, p)"),
            "largest": parse_query("m(s, max(a)) :- returns(s, p), premium_store(s), a = p"),
        }
    )
    return catalog


def _disjoint_catalog():
    return {
        "r1": parse_query("q(x) :- r(x, y), s(x)"),
        "r2": parse_query("q(a) :- s(a), r(a, b)"),
        "t1": parse_query("q(x) :- t(x, y), u(x)"),
        "t2": parse_query("q(a) :- u(a), t(a, b)"),
    }


def _base_sensitive_catalog():
    # The c- and e-cells share vocabulary and τ; the c1/c2 cells differ only
    # in their constants, the c1/e1 cells only in carrying a comparison.
    return {
        "c1": parse_query("q(x) :- p(x, 1)"),
        "c1b": parse_query("q(y) :- p(y, 1)"),
        "c2": parse_query("q(x) :- p(x, 2)"),
        "c2b": parse_query("q(y) :- p(y, 2)"),
        "e1": parse_query("q(x) :- p(x, x), x > 1"),
        "e1b": parse_query("q(y) :- p(y, y), y > 1"),
    }


class TestSweepPlanner:
    def test_partition_covers_every_cell_exactly_once(self):
        catalog = _mixed_catalog()
        plan = plan_catalog_sweep(catalog)
        names = sorted(catalog)
        all_pairs = {
            (a, b) for i, a in enumerate(names) for b in names[i + 1 :]
        }
        covered = list(plan.pair_path)
        for group in plan.groups:
            covered.extend(group.pairs)
        assert sorted(covered) == sorted(all_pairs)
        assert len(covered) == len(set(covered))

    def test_plain_and_count_groups_are_formed(self):
        catalog = _mixed_catalog()
        plan = plan_catalog_sweep(catalog)
        keys = {group.key[:2] for group in plan.groups}
        assert ("plain",) in {key[:1] for key in keys}
        assert any(key[0] == "agg" and key[1] == "count" for key in keys)

    def test_quasilinear_and_mixed_shape_cells_stay_on_pair_path(self):
        catalog = {
            "lin_a": parse_query("q(s, count()) :- returns(s, p)"),
            "lin_b": parse_query("q(x, count()) :- returns(x, y)"),
            "plain": parse_query("q(s) :- returns(s, p)"),
        }
        plan = plan_catalog_sweep(catalog)
        # Both aggregate cells are quasilinear-decidable, the mixed-shape
        # cells are incomparable; nothing qualifies for a sweep, and the lone
        # plain query has no partner.
        assert plan.groups == []
        assert len(plan.pair_path) == 3

    def test_normalized_pairs_use_count_forms(self):
        catalog = {
            "unit_sum": parse_query(
                "u(sum(w)) :- premium_store(s), w = v, v = 1 ; discontinued(s), w = 1"
            ),
            "unit_count": parse_query("u(count()) :- premium_store(s) ; discontinued(s)"),
            "unit_count2": parse_query("u(count()) :- discontinued(s) ; premium_store(s)"),
        }
        plan = plan_catalog_sweep(catalog)
        (group,) = [group for group in plan.groups if ("unit_count", "unit_sum") in group.pairs]
        assert group.queries["unit_sum"].aggregate.function == "count"
        route = group.routes[("unit_count", "unit_sum")]
        assert route.multiplier == Constant(1)
        assert "rewritten to count()" in route.notes

    def test_comparison_carrying_cells_keep_pair_local_bounds(self):
        # Comparison-carrying cells are grouped, like every other cell, by
        # their exact (constants, τ) BASE: every cell reports the same
        # ``bound τ`` as the pair path.
        catalog = {
            "c1": parse_query("q(count()) :- r(a), a > 0 ; r(a), a < 0"),
            "c2": parse_query("q(count()) :- r(a), a < 0 ; r(a), a > 0"),
            "c3": parse_query("q(count()) :- r(a), r(c), a > 0 ; r(a), a < 0"),
        }
        swept = equivalence_matrix(catalog, seed=2, workers=1)
        pairwise = _pairwise_matrix(catalog, seed=2)
        for pair in swept:
            assert swept[pair].verdict is pairwise[pair].verdict, pair
            assert swept[pair].details == pairwise[pair].details, pair

    @pytest.mark.parametrize("max_subsets", [2_000_000, 2**9, 2**4])
    def test_every_local_cell_is_swept_over_its_own_base(self, max_subsets):
        # The one planner rule: a cell routed to local equivalence is swept
        # exactly when its own BASE fits the budget, in a group whose
        # vocabulary, constants and bound are the cell's own; every other
        # local cell is left to a pair task whose budget guard raises.
        unit_catalog = _audit_catalog()
        unit_catalog["unit_a"] = parse_query("u(count()) :- premium_store(s) ; discontinued(s)")
        unit_catalog["unit_b"] = parse_query("u(count()) :- discontinued(s) ; premium_store(s)")
        unit_catalog["unit_c"] = parse_query("u(count()) :- premium_store(x) ; discontinued(x)")
        wide_catalog = {
            "r1": parse_query("q(x) :- r(x, y)"),
            "r2": parse_query("q(a) :- r(a, b)"),
            "r3": parse_query("q(x) :- r(x, y), r(x, z)"),
            "wide": parse_query("w(x) :- s(x, y, z, u)"),
        }
        catalogs = (
            unit_catalog, wide_catalog, _mixed_catalog(), _disjoint_catalog(),
            _base_sensitive_catalog(),
        )
        for catalog in catalogs:
            plan = plan_catalog_sweep(catalog, max_subsets=max_subsets)
            for group in plan.groups:
                group_vocabulary = catalog_predicate_arities(group.queries.values())
                group_constants = set().union(
                    *(query.constants() for query in group.queries.values())
                )
                group_compares = any(query.uses_comparisons for query in group.queries.values())
                kind_length = 1 if group.key[0] == "plain" else 2
                for pair in group.pairs:
                    route = group.routes[pair]
                    # The route's search space is the group key: the planner
                    # groups by what routing computed, nothing of its own.
                    assert group.key[kind_length:] == route.space, pair
                    assert group.bound == route.space.bound, pair
                    forms = (route.first, route.second)
                    assert catalog_predicate_arities(forms) == group_vocabulary, pair
                    assert route.first.constants() | route.second.constants() == group_constants
                    assert (
                        route.first.uses_comparisons or route.second.uses_comparisons
                    ) == group_compares, pair
                    report = local_equivalence(*forms, max_subsets=max_subsets)
                    assert report.bound == group.bound, pair
            for name_a, name_b in plan.pair_path:
                first, second = catalog[name_a], catalog[name_b]
                if first.is_aggregate != second.is_aggregate:
                    continue
                route = route_pair(first, second)
                if route.procedure not in LOCAL_PROCEDURES:
                    assert route.space is None, (name_a, name_b)
                else:
                    with pytest.raises(SearchSpaceBudgetError):
                        local_equivalence(route.first, route.second, max_subsets=max_subsets)

    def test_disjoint_vocabularies_pay_only_their_own_bases(self):
        # Two equivalent pairs over disjoint vocabularies: a union sweep
        # would pay 2^(|BASE_a| + |BASE_b|) subsets; each cell's search runs
        # over its own BASE instead.
        catalog = _disjoint_catalog()
        swept = equivalence_matrix(catalog, seed=1)
        pairwise = _pairwise_matrix(catalog, seed=1)
        for pair in swept:
            assert swept[pair].verdict is pairwise[pair].verdict
            total = swept[pair].report.subsets_examined if swept[pair].report else 0
            # Nothing ever enumerates the 2^16-ish union space.
            assert total < 2_000

    def test_cells_keep_their_own_bound_in_a_wider_catalog(self):
        # g0/g2 have τ = 1; the rest of the catalog (a constant, wider
        # queries) must not lift their search to a catalog-wide bound of 3,
        # whose BASE is exponentially larger.
        catalog = {
            "g0": parse_query("g0(x0, count()) :- r(x0), not r(x0) ; p(x0, x0), not p(x0, x0)"),
            "g1": parse_query(
                "g1(x0, count()) :- r(x0), not r(x0) ; p(x0, x0), p(z0, x0), not r(x0)"
            ),
            "g2": parse_query("g2(x0, count()) :- p(x0, x0), not p(x0, x0)"),
            "g4": parse_query("g4(x0, count()) :- r(x0), p(0, x0)"),
        }
        plan = plan_catalog_sweep(catalog)
        bounds = {pair: group.bound for group in plan.groups for pair in group.pairs}
        assert bounds[("g0", "g2")] == 1
        before = REGISTRY.get("sweep.subsets.examined")
        matrix = equivalence_matrix(catalog, workers=1, seed=1)
        assert len(matrix) == 6
        assert REGISTRY.get("sweep.subsets.examined") - before <= 100


class TestRouteOnce:
    """Routing sees the subset budget, so a cell whose count forms do not fit
    is routed on its originals by arithmetic: the planner builds each
    query's count form once, and a pair task decides its cell once."""

    @staticmethod
    def _over_budget_catalog():
        # unit_sum's count form meets every audit query with τ = 4 over
        # three predicates and the constant 1: |BASE| = 35, far past the
        # default budget, so those cells are decided on the originals.
        catalog = _audit_catalog()
        catalog["unit_sum"] = parse_query("units(sum(w)) :- premium_store(t), w = v, v = 1")
        return catalog

    def test_planner_builds_each_count_form_once(self, monkeypatch):
        from repro.datalog.queries import Query

        catalog = self._over_budget_catalog()
        builds = []
        original = Query.with_aggregate

        def counted(self, aggregate):
            builds.append(self.name)
            return original(self, aggregate)

        monkeypatch.setattr(Query, "with_aggregate", counted)
        plan = plan_catalog_sweep(catalog)
        assert builds == ["units"]
        # The over-budget count forms were never routed: the originals go
        # to the pair path as a different-function pair.
        assert sorted(plan.pair_path) == sorted(
            (name, "unit_sum") for name in _audit_catalog()
        )

    def test_pair_tasks_decide_each_cell_once(self, monkeypatch):
        import repro.core.equivalence as equivalence
        from repro.workloads.batch import decide_pairs

        catalog = self._over_budget_catalog()
        decided = []
        original = equivalence._decide

        def counted(route, *args, **kwargs):
            decided.append(route.procedure)
            return original(route, *args, **kwargs)

        monkeypatch.setattr(equivalence, "_decide", counted)
        results = decide_pairs(catalog, workers=1, seed=0)
        assert decided == [equivalence.DIFFERENT_FUNCTIONS] * len(_audit_catalog())
        for name in _audit_catalog():
            assert results[(name, "unit_sum")].verdict is not Verdict.EQUIVALENT

    def test_route_pair_falls_back_to_the_originals_over_budget(self):
        first = _audit_catalog()["audit_a"]
        second = parse_query(
            "audit(s, sum(w)) :- returns(s, p), premium_store(s), w = 1 ; "
            "returns(s, p), discontinued(p), w = 1"
        )
        # |BASE| of the count forms is 35: τ = 4 and the constant 1 give five
        # terms, over one binary and two unary predicates.
        normalized = route_pair(first, second, max_subsets=2**35)
        assert normalized.procedure in LOCAL_PROCEDURES
        assert normalized.multiplier == Constant(1)
        route = route_pair(first, second, max_subsets=2**35 - 1)
        assert route.multiplier is None
        assert (route.first, route.second) == (first, second)

    def test_two_arities_still_raise(self):
        from repro.errors import MalformedQueryError

        first = parse_query("q(count()) :- p(x)")
        second = parse_query("q(sum(y)) :- p(x, y), y = 1")
        with pytest.raises(MalformedQueryError, match="used with arities"):
            are_equivalent(first, second)


# ----------------------------------------------------------------------
# sweep_equivalence (direct)
# ----------------------------------------------------------------------
class TestSweepEquivalence:
    def test_unknown_pair_name_raises(self):
        first = parse_query("q(count()) :- p(y)")
        with pytest.raises(ReproError):
            sweep_equivalence({"a": first}, [("a", "missing")], 1)

    def test_budget_guard_raises(self):
        first = parse_query("q(count()) :- p(y, z)")
        second = parse_query("q(count()) :- p(z, y)")
        with pytest.raises(SearchSpaceBudgetError):
            sweep_equivalence({"a": first, "b": second}, [("a", "b")], 8)

    def test_mixed_shapes_raise(self):
        catalog = {
            "agg": parse_query("q(count()) :- p(y)"),
            "plain": parse_query("q(y) :- p(y)"),
        }
        with pytest.raises(ReproError):
            sweep_equivalence(catalog, [("agg", "plain")], 1)

    def test_unknown_semantics_raises(self):
        # An agreeing pair never reaches a comparison that could reject the
        # semantics, so the check must come before enumeration.
        query = parse_query("q(x) :- p(x)")
        with pytest.raises(ReproError):
            sweep_equivalence({"a": query, "b": query}, [("a", "b")], 1, semantics="three-valued")

    def test_early_exit_counts_only_pulled_subsets(self):
        # The serial sweep must stop right after the last pair settles: the
        # skipped count is that of an enumerator advanced exactly
        # subsets_examined items, for the catalog entry point and the pair
        # entry point alike.
        from itertools import islice

        from repro.core.bounded import CanonicalSubsetEnumerator, bounded_equivalence, build_base

        first = parse_query("q(sum(y)) :- p(y)")
        second = parse_query("q(sum(y)) :- p(y) ; p(y)")
        swept = sweep_equivalence({"a": first, "b": second}, [("a", "b")], 2, workers=1)
        reports = [swept[("a", "b")], bounded_equivalence(first, second, 2, workers=1)]
        _, base, fresh = build_base(first, second, 2)
        for report in reports:
            assert not report.equivalent
            enumerator = CanonicalSubsetEnumerator(base, fresh)
            assert len(list(islice(enumerator, report.subsets_examined))) == report.subsets_examined
            assert report.subsets_skipped_by_symmetry == enumerator.skipped

    def test_isomorphic_pairs_settle_without_search(self, monkeypatch):
        import repro.core.bounded as bounded

        catalog = {
            "a": parse_query("q(x, count()) :- p(x, y), not r(y), y > x"),
            "b": parse_query("q(u, count()) :- u < v, not r(v), p(u, v), p(u, v)"),
            "c": parse_query("q(x, count()) :- p(x, y), y > x"),
        }
        assert catalog["a"].evaluation_key == catalog["b"].evaluation_key
        before = REGISTRY.get("sweep.pairs.isomorphic")
        reports = sweep_equivalence(catalog, [("a", "b"), ("a", "c")], 2, workers=1)
        assert REGISTRY.get("sweep.pairs.isomorphic") == before + 1
        isomorphic = reports[("a", "b")]
        assert isomorphic.equivalent and isomorphic.counterexample is None
        assert isomorphic.bound == 2 and isomorphic.subsets_examined == 0
        assert bounded.ISOMORPHIC_NOTE in isomorphic.notes
        assert not reports[("a", "c")].equivalent
        assert bounded.ISOMORPHIC_NOTE not in reports[("a", "c")].notes

        # A call whose pairs all lie inside classes prepares no run at all.
        def no_run(*args, **kwargs):
            raise AssertionError("prepare_sweep_run called")

        monkeypatch.setattr(bounded, "prepare_sweep_run", no_run)
        only = sweep_equivalence(catalog, [("a", "b")], 2, workers=1)
        assert only[("a", "b")].equivalent

    def test_matches_pair_local_reports(self):
        from repro.core.bounded import local_equivalence

        catalog = {
            "a": parse_query("q(count()) :- p(y), not r(y)"),
            "b": parse_query("q(count()) :- not r(y), p(y)"),
            "c": parse_query("q(count()) :- p(y)"),
        }
        pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        reports = sweep_equivalence(catalog, pairs, 2, seed=5, workers=1)
        for name_a, name_b in pairs:
            reference = local_equivalence(catalog[name_a], catalog[name_b], seed=0)
            report = reports[(name_a, name_b)]
            assert report.equivalent == reference.equivalent
            if not report.equivalent:
                assert report.counterexample.database == reference.counterexample.database


# ----------------------------------------------------------------------
# Group-comparison kernels
# ----------------------------------------------------------------------
class TestComparisonKernels:
    def test_equal_groups_intern_to_one_index(self):
        clear_symbolic_caches()
        from repro.core.bounded import build_base
        from repro.orderings.complete_orderings import enumerate_complete_orderings
        from repro.domains import Domain

        first = parse_query("q(count()) :- p(y), r(y)")
        second = parse_query("q(count()) :- r(y), p(y)")
        terms, base, fresh = build_base(first, second, 1)
        ordering = next(iter(enumerate_complete_orderings(terms, Domain.RATIONALS)))
        database = SymbolicDatabase(frozenset(base), ordering)
        left = symbolic_group_index(first, database)
        right = symbolic_group_index(second, database)
        assert left is right  # interned: equal content, one object

    def test_doubled_bags_keep_keys(self):
        clear_symbolic_caches()
        from repro.core.bounded import build_base
        from repro.orderings.complete_orderings import enumerate_complete_orderings
        from repro.domains import Domain

        first = parse_query("q(x, sum(y)) :- p(x, y)")
        second = parse_query("q(x, sum(y)) :- p(x, y) ; p(x, y)")
        terms, base, fresh = build_base(first, second, 2)
        ordering = next(iter(enumerate_complete_orderings(terms, Domain.RATIONALS)))
        database = SymbolicDatabase(frozenset(base), ordering)
        left = symbolic_group_index(first, database)
        right = symbolic_group_index(second, database)
        # Same keys, doubled bags: every group differs as a multiset.
        assert left and left.keys() == right.keys()
        for key, bag in left.items():
            assert right[key] == bag + bag


# ----------------------------------------------------------------------
# Differential: sweep vs pairwise, serial and parallel
# ----------------------------------------------------------------------
def _pairwise_matrix(catalog, *, seed, counterexample_trials=400, max_subsets=2_000_000):
    """The per-pair reference: every cell one pair task through the full
    dispatcher — the sweep's own fallback path, applied to every cell."""
    tasks = pair_check_tasks(
        catalog,
        domain=Domain.RATIONALS,
        counterexample_trials=counterexample_trials,
        max_subsets=max_subsets,
        unknown_bound=None,
        seed=seed,
    )
    return {(task.name_a, task.name_b): run_pair_task(task).result for task in tasks}


def _assert_cells_match(swept, pairwise, *, require_same_witness_db: bool):
    assert set(swept) == set(pairwise)
    for pair in swept:
        sweep_cell, pair_cell = swept[pair], pairwise[pair]
        assert sweep_cell.verdict is pair_cell.verdict, pair
        assert sweep_cell.method == pair_cell.method, pair
        assert sweep_cell.details == pair_cell.details, pair
        assert (sweep_cell.counterexample is None) == (
            pair_cell.counterexample is None
        ), pair
        if require_same_witness_db and sweep_cell.counterexample is not None:
            assert (
                sweep_cell.counterexample.database == pair_cell.counterexample.database
            ), pair


def _scenario_catalogs():
    warehouse = build_warehouse(stores=2, products=3, sales_per_store=4, seed=3)
    analyst = {
        name: warehouse.queries[name]
        for name in ("revenue_per_store", "revenue_per_store_alt", "largest_sale")
    }
    analyst["unit_sales"] = parse_query("units(s, sum(u)) :- sales(s, p, a), u = 1")
    analyst["unit_sales_chain"] = parse_query(
        "units(s, sum(u)) :- sales(s, p, a), u = z, z = 1"
    )
    analyst["sales_count"] = parse_query("units(s, count()) :- sales(s, p, a)")
    analyst["plain"] = parse_query("q(s) :- sales(s, p, a)")
    return {
        "analyst": analyst,
        "audit": _audit_catalog(),
        "mixed": _mixed_catalog(),
    }


class TestDifferentialSweep:
    @pytest.mark.parametrize("name", ["analyst", "audit", "mixed"])
    def test_sweep_matches_pairwise_serial(self, name):
        catalog = _scenario_catalogs()[name]
        swept = equivalence_matrix(catalog, workers=1, seed=5, counterexample_trials=60)
        pairwise = _pairwise_matrix(catalog, seed=5, counterexample_trials=60)
        # Every swept cell runs over its own pair BASE, so even the witness
        # databases coincide — except when REPRO_WORKERS forces the cells'
        # *inner* bounded searches onto a pool, where early-exit races may
        # pick a different (equally valid) witness.
        _assert_cells_match(
            swept, pairwise, require_same_witness_db=default_workers() == 1
        )

    @pytest.mark.parametrize("name", ["audit", "mixed"])
    def test_sweep_matches_pairwise_two_workers(self, name):
        catalog = _scenario_catalogs()[name]
        swept = equivalence_matrix(catalog, workers=2, seed=5, counterexample_trials=60)
        pairwise = _pairwise_matrix(catalog, seed=5, counterexample_trials=60)
        # Parallel sweeps keep verdicts and methods; under early-exit races
        # a different (equally valid) witness may be chosen.
        _assert_cells_match(swept, pairwise, require_same_witness_db=False)

    def test_sweep_is_seed_reproducible(self):
        # workers=1 keeps the matrix serial, but the cells' *inner* bounded
        # searches still honour REPRO_WORKERS; under a pool, early-exit
        # cancellation may pick a different (equally valid) witness between
        # runs, so exact witness equality is only asserted when the whole
        # stack is serial.
        catalog = _scenario_catalogs()["mixed"]
        first = equivalence_matrix(catalog, seed=9, counterexample_trials=60, workers=1)
        second = equivalence_matrix(catalog, seed=9, counterexample_trials=60, workers=1)
        fully_serial = default_workers() == 1
        for pair in first:
            assert first[pair].verdict is second[pair].verdict
            left, right = first[pair].counterexample, second[pair].counterexample
            assert (left is None) == (right is None)
            if left is not None and fully_serial:
                assert left.database == right.database


# ----------------------------------------------------------------------
# Cached structural hashes
# ----------------------------------------------------------------------
class TestCachedHashes:
    def test_hash_is_cached_and_stable(self):
        query = parse_query("q(s, count()) :- p(s, a), not r(s)")
        first_hash = hash(query)
        assert query.__dict__.get("_cached_hash") == first_hash
        assert hash(query) == first_hash
        twin = parse_query("q(s, count()) :- p(s, a), not r(s)")
        assert hash(twin) == first_hash and twin == query

    def test_pickle_strips_cached_hashes(self):
        # Hash randomization is per interpreter: a cached hash that crossed a
        # spawn boundary would corrupt dict lookups in the worker.  Pickling
        # must drop the caches (fork inherits them validly either way).
        # Unpickling re-interns the disjuncts, so the clone's disjuncts are
        # this process's canonical objects, with this process's hashes; the
        # payload itself must carry no cached hash at any level.
        import pickle

        query = parse_query("q(s, count()) :- p(s, a)")
        hash(query)
        for disjunct in query.disjuncts:
            hash(disjunct)
            for literal in disjunct.literals:
                hash(literal)
        payload = pickle.dumps(query)
        assert b"_cached_hash" not in payload
        clone = pickle.loads(payload)
        assert "_cached_hash" not in clone.__dict__
        for disjunct in query.disjuncts:
            copy = pickle.loads(pickle.dumps(disjunct))
            assert copy is not disjunct and "_cached_hash" not in copy.__dict__
        assert all(mine is theirs for mine, theirs in zip(clone.disjuncts, query.disjuncts))
        assert clone == query and hash(clone) == hash(query)


# ----------------------------------------------------------------------
# REPRO_WORKERS hygiene
# ----------------------------------------------------------------------
class TestWorkersEnvironment:
    def test_malformed_value_warns_and_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='two'"):
            assert default_workers() == 1

    def test_valid_and_missing_values_do_not_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_workers() == 3
        monkeypatch.delenv("REPRO_WORKERS")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_workers() == 1
