"""Differential tests: the compiled engine against the naive reference.

The naive nested-loop engine (``naive_satisfying_assignments`` and
``naive_evaluate``) is retained as an executable specification of the Section 3 semantics.  These tests drive
randomized queries — covering every structural dimension the generator knows:
disjuncts, negation, comparisons, constants, repeated predicates — over
randomized databases and require the two engines to produce identical
Γ(q, D) multisets, identical set / bag-set results, and identical aggregate
results.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro import Domain, parse_database, parse_query
from repro.core.counterexample import random_database
from repro.engine import (
    clear_evaluation_caches,
    columnar,
    evaluate_aggregate,
    evaluate_bag_set,
    evaluate_set,
    kernel_cache_stats,
    naive_evaluate,
    naive_satisfying_assignments,
    satisfying_assignments,
    store_cache_stats,
)
from repro.engine.columnar import numpy_module
from repro.obs import REGISTRY
from repro.workloads import (
    QueryGenerator,
    QueryProfile,
    build_view_scenario,
    build_warehouse,
)

#: One profile per structural corner of the fragment.
PROFILES = {
    "plain-sum": QueryProfile(aggregation_function="sum", allow_negation=False, max_disjuncts=1),
    "negation": QueryProfile(aggregation_function="max", max_negated_atoms=2),
    "disjunctive": QueryProfile(aggregation_function="count", max_disjuncts=3),
    "comparisons": QueryProfile(aggregation_function="min", max_comparisons=3),
    "non-aggregate": QueryProfile(aggregation_function=None, max_disjuncts=2),
    "quasilinear": QueryProfile(aggregation_function="sum", quasilinear_only=True),
    "cntd-negation": QueryProfile(aggregation_function="cntd", max_negated_atoms=1),
}


def _gamma_multiset(assignments) -> Counter:
    """Γ(q, D) as a multiset (order produced by the engines is irrelevant)."""
    return Counter(assignments)


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
def test_engines_agree_on_random_workloads(profile_name):
    profile = PROFILES[profile_name]
    generator = QueryGenerator(profile, seed=sum(ord(c) for c in profile_name))
    rng = random.Random(2001)
    values = [-2, -1, 0, 1, 2, 5]
    for round_index in range(25):
        query = generator.query(f"q{round_index}")
        database = random_database(dict(profile.predicates), values, rng, max_facts=10)

        naive = naive_satisfying_assignments(query, database)
        compiled = satisfying_assignments(query, database)
        assert _gamma_multiset(naive) == _gamma_multiset(compiled), (
            f"Γ mismatch for {query} over {database}"
        )

        # The derived semantics must agree as well (they are all folds of Γ,
        # but evaluate_* run through the memoized path).
        assert evaluate_set(query, database) == {
            a.values_of(query.head_terms) for a in naive
        }
        assert evaluate_bag_set(query, database) == Counter(
            a.values_of(query.head_terms) for a in naive
        )
        if query.is_aggregate:
            assert evaluate_aggregate(query, database) == naive_evaluate(query, database)


def test_engines_agree_on_equality_defined_variables():
    rng = random.Random(7)
    query = parse_query("q(x, z, w) :- p(x, y), z = y, w = 3, y >= 0")
    for _ in range(20):
        database = random_database({"p": 2}, [-1, 0, 1, 2, 3], rng, max_facts=8)
        assert _gamma_multiset(naive_satisfying_assignments(query, database)) == _gamma_multiset(
            satisfying_assignments(query, database)
        )


def test_engines_agree_on_fractional_values():
    query = parse_query("q(x, sum(y)) :- p(x, y), y > 1/2")
    database = parse_database("p(1, 1/2). p(1, 3/4). p(2, 2). p(2, 1/4).")
    naive = naive_satisfying_assignments(query, database)
    compiled = satisfying_assignments(query, database)
    assert _gamma_multiset(naive) == _gamma_multiset(compiled)
    assert evaluate_aggregate(query, database) == {(1,): Fraction(3, 4), (2,): 2}


def test_naive_evaluate_folds_each_semantics():
    """The reference entry point folds naive Γ into the set, bag-set and
    aggregate answers of Section 3, checked against hand-computed values."""
    database = parse_database("p(1, 2). p(1, 3). p(2, 2). p(3, 4). r(3).")
    plain = parse_query("q(x) :- p(x, y), not r(x)")
    assert naive_evaluate(plain, database) == {(1,), (2,)}
    assert naive_evaluate(plain, database, bag=True) == Counter({(1,): 2, (2,): 1})
    summed = parse_query("q(x, sum(y)) :- p(x, y), not r(x)")
    assert naive_evaluate(summed, database) == {(1,): 5, (2,): 2}
    # ``bag`` only selects between the non-aggregate semantics.
    assert naive_evaluate(summed, database, bag=True) == {(1,): 5, (2,): 2}
    assert naive_evaluate(parse_query("q(cntd(y)) :- p(x, y)"), database) == {(): 3}
    assert naive_evaluate(parse_query("q(x, max(y)) :- p(x, y), y < 2"), database) == {}


def test_naive_reference_reads_no_compiled_cache():
    """The oracle shares nothing with the engine it checks: no kernel is
    compiled and no columnar store is built or hit on its behalf."""
    clear_evaluation_caches()
    query = parse_query("q(x, count()) :- p(x, y), not r(y), y > 0")
    database = parse_database("p(1, 2). p(1, 3). p(2, 5). r(3).")
    before = (kernel_cache_stats(), store_cache_stats())
    expected = {(1,): 1, (2,): 1}
    assert naive_evaluate(query, database) == expected
    assert len(naive_satisfying_assignments(query, database)) == 2
    assert (kernel_cache_stats(), store_cache_stats()) == before
    assert evaluate_aggregate(query, database) == expected
    assert kernel_cache_stats()["compiles"] > before[0]["compiles"]


def test_memoized_results_are_stable_copies():
    query = parse_query("q(x) :- p(x)")
    database = parse_database("p(1). p(2).")
    first = satisfying_assignments(query, database)
    first.append("sentinel")  # type: ignore[arg-type]
    second = satisfying_assignments(query, database)
    assert "sentinel" not in second
    assert len(second) == 2


@pytest.mark.parametrize("backend", ["default", "vector", "no-numpy"])
def test_aggregate_evaluation_agrees_on_warehouse_reports_and_views(backend, monkeypatch):
    """The compiled aggregate driver folds counted bags; it must return the
    naive engine's results, equal in value and in type, on the warehouse
    reports and view definitions, with the default vector threshold, with
    every plan forced onto the NumPy path, and on the loop kernels alone."""
    if backend == "vector":
        if numpy_module() is None:
            pytest.skip("NumPy unavailable")
        monkeypatch.setattr(columnar, "VECTOR_THRESHOLD", 0)
    elif backend == "no-numpy":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    clear_evaluation_caches()
    try:
        scenario = build_view_scenario(stores=6, products=5, sales_per_store=40, seed=3)
        warehouse = build_warehouse(stores=6, products=5, sales_per_store=40, seed=3)
        queries = dict(scenario.queries)
        queries.update({f"view:{view.name}": view.query for view in scenario.views})
        queries.update({f"warehouse:{name}": query for name, query in warehouse.queries.items()})
        checked = 0
        for name, query in sorted(queries.items()):
            if not query.is_aggregate:
                continue
            for database in (scenario.database, warehouse.database):
                expected = naive_evaluate(query, database)
                compiled = evaluate_aggregate(query, database)
                assert compiled == expected, name
                assert {key: type(value) for key, value in compiled.items()} == {
                    key: type(value) for key, value in expected.items()
                }, name
                checked += 1
        assert checked >= 20
        if backend == "vector":
            assert REGISTRY.get("engine.dispatch.vector") > 0
    finally:
        clear_evaluation_caches()
