"""Differential tests of the columnar compiled engine (ISSUE 6).

The compiled engine — interned columnar stores plus per-plan code-generated
kernels, with an optional NumPy join path — must be observationally identical
to the naive nested-loop reference on every semantics the package exposes:
``evaluate_set`` / ``evaluate_bag_set`` / ``evaluate_aggregate``, Γ(q, D) as a
multiset, the sweep verdicts, and the counterexample witnesses the sweep path
reports.  The tests here pin that agreement on the deterministic scenario
catalogs and on adversarial random instances, force both compiled back ends
(the vectorized path and the pure-python loop kernels), and check the
cache-hygiene contract of ``clear_evaluation_caches``.  The symbolic
counterpart, Γ(q, S_L) against its definition over δ(S), lives in
``tests/test_symbolic.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Domain, Workspace
from repro.engine import (
    ENGINE_MODES,
    clear_evaluation_caches,
    clear_symbolic_caches,
    engine_scope,
    evaluate,
    kernel_cache_stats,
    naive_satisfying_assignments,
    satisfying_assignments,
    store_cache_stats,
)
from repro.engine import columnar, modes
from repro.engine.columnar import numpy_module
from repro.errors import ReproError
from repro.obs import REGISTRY
from repro.parallel.tasks import pair_check_tasks
from repro.workloads import (
    build_view_scenario,
    build_warehouse,
    decide_pairs,
    random_warehouse_database,
)

ENGINES = ("naive", "compiled")


def _clean() -> None:
    clear_evaluation_caches()
    clear_symbolic_caches()


def _evaluate_under(mode: str, query, database):
    with engine_scope(mode):
        return evaluate(query, database)


def _scenario_catalogs():
    """Every deterministic scenario catalog: (label, queries, database)."""
    warehouse = build_warehouse(stores=4, products=5, sales_per_store=10, seed=7)
    views = build_view_scenario(stores=3, products=4, sales_per_store=8, seed=11)
    return [
        ("warehouse", warehouse.queries, warehouse.database),
        ("views", views.queries, views.database),
        ("views-materialized", views.queries, views.materialized()),
    ]


@pytest.mark.parametrize(
    "label, queries, database",
    _scenario_catalogs(),
    ids=[label for label, _, _ in _scenario_catalogs()],
)
def test_scenario_catalogs_agree_across_engines(label, queries, database):
    _clean()
    for name, query in sorted(queries.items()):
        results = {mode: _evaluate_under(mode, query, database) for mode in ENGINES}
        assert results["naive"] == results["compiled"], (label, name)


def test_random_instances_agree_across_engines():
    """Adversarial random instances (empty relations, dangling returns,
    repeated and negative amounts): identical Γ multisets and identical
    derived semantics across both engines."""
    _clean()
    queries = sorted(build_warehouse(stores=3, products=4, sales_per_store=6).queries.items())
    for seed in range(30):
        database = random_warehouse_database(seed)
        for name, query in queries:
            with engine_scope("naive"):
                naive_gamma = Counter(naive_satisfying_assignments(query, database))
            with engine_scope("compiled"):
                compiled_gamma = Counter(satisfying_assignments(query, database))
            assert naive_gamma == compiled_gamma, (seed, name)
            results = {mode: _evaluate_under(mode, query, database) for mode in ENGINES}
            assert results["naive"] == results["compiled"], (seed, name)


def _catalog_for_sweep() -> dict:
    """A catalog that exercises equivalent cells (full sweep), non-equivalent
    cells with concrete witnesses, and incomparable shapes."""
    from repro import parse_query
    from repro.workloads import renamed_copy

    audit = parse_query(
        "audit(s, count()) :- returns(s, p), premium_store(s) ; "
        "returns(s, p), discontinued(p)"
    )
    queries = {
        "audit": audit,
        "audit_renamed": renamed_copy(audit),
        "audit_weaker": parse_query(
            "audit(s, count()) :- returns(s, p), premium_store(s) ; returns(s, p)"
        ),
        "revenue_sum": parse_query("r(s, sum(a)) :- sales(s, p, a)"),
        "revenue_kept": parse_query(
            "r(s, sum(a)) :- sales(s, p, a), not returns(s, p)"
        ),
    }
    return queries


def _summarize(results) -> dict:
    return {
        pair: (cell.verdict, cell.method, cell.counterexample is not None)
        for pair, cell in results.items()
    }


def test_decide_pairs_parity_across_engines_and_workers():
    """The sweep path must produce identical verdicts, methods, and witness
    presence serially, sharded over two workers, and with the concrete
    counterexample search run by the naive reference."""
    queries = _catalog_for_sweep()

    _clean()
    compiled = decide_pairs(queries, seed=11, engine="compiled")
    _clean()
    compiled_parallel = decide_pairs(queries, seed=11, workers=2, engine="compiled")
    _clean()
    naive = decide_pairs(queries, seed=11, engine="naive")

    assert _summarize(compiled) == _summarize(compiled_parallel)
    assert _summarize(compiled) == _summarize(naive)

    # Witness exactness: every concrete witness the compiled sweep reports
    # must be confirmed by the naive oracle — the queries really differ on it.
    witnessed = 0
    for pair, cell in compiled.items():
        counterexample = cell.counterexample
        if counterexample is None or counterexample.database is None:
            continue
        witnessed += 1
        with engine_scope("naive"):
            left = evaluate(queries[pair[0]], counterexample.database)
            right = evaluate(queries[pair[1]], counterexample.database)
        assert left != right, pair
        assert left == counterexample.left_result, pair
        assert right == counterexample.right_result, pair
    assert witnessed > 0  # the catalog is built to produce concrete witnesses


@pytest.mark.skipif(numpy_module() is None, reason="NumPy unavailable")
def test_forced_vectorized_path_agrees(monkeypatch):
    """With the size threshold at zero every eligible plan takes the NumPy
    path; results must not change."""
    monkeypatch.setattr(columnar, "VECTOR_THRESHOLD", 0)
    _clean()
    try:
        warehouse = build_warehouse(stores=4, products=5, sales_per_store=10, seed=7)
        for name, query in sorted(warehouse.queries.items()):
            naive = _evaluate_under("naive", query, warehouse.database)
            compiled = _evaluate_under("compiled", query, warehouse.database)
            assert naive == compiled, name
        for seed in range(10):
            database = random_warehouse_database(seed)
            for name, query in sorted(warehouse.queries.items()):
                assert _evaluate_under("naive", query, database) == _evaluate_under(
                    "compiled", query, database
                ), (seed, name)
        assert REGISTRY.get("engine.dispatch.vector") > 0
    finally:
        monkeypatch.undo()
        _clean()


def test_no_numpy_fallback_agrees(monkeypatch):
    """REPRO_NO_NUMPY=1 must route everything through the pure-python loop
    kernels without changing any result."""
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    _clean()
    try:
        warehouse = build_warehouse(stores=4, products=5, sales_per_store=10, seed=7)
        for name, query in sorted(warehouse.queries.items()):
            naive = _evaluate_under("naive", query, warehouse.database)
            compiled = _evaluate_under("compiled", query, warehouse.database)
            assert naive == compiled, name
    finally:
        monkeypatch.undo()
        _clean()


def test_clear_evaluation_caches_drops_kernels_and_stores():
    """Cache hygiene (ISSUE 6 satellite): ``clear_evaluation_caches`` must
    drop the compiled kernels and the columnar stores, observable as fresh
    compiles and store builds afterwards — otherwise long sessions leak."""
    warehouse = build_warehouse(stores=3, products=4, sales_per_store=6, seed=7)
    query = warehouse.queries["premium_kept_products"]

    _clean()
    baseline_kernels = kernel_cache_stats()["compiles"]
    baseline_stores = store_cache_stats()["builds"]

    with engine_scope("compiled"):
        evaluate(query, warehouse.database)
    after_first = kernel_cache_stats()
    assert after_first["compiles"] > baseline_kernels
    assert store_cache_stats()["builds"] > baseline_stores

    # A second evaluation reuses both caches: hits move, compiles do not.
    with engine_scope("compiled"):
        evaluate(query, warehouse.database)
    after_second = kernel_cache_stats()
    assert after_second["compiles"] == after_first["compiles"]

    # Clearing must force a re-compile and a store rebuild on the next call.
    clear_evaluation_caches()
    assert kernel_cache_stats()["entries"] == 0
    recompile_baseline = kernel_cache_stats()["compiles"]
    rebuild_baseline = store_cache_stats()["builds"]
    with engine_scope("compiled"):
        evaluate(query, warehouse.database)
    assert kernel_cache_stats()["compiles"] > recompile_baseline
    assert store_cache_stats()["builds"] > rebuild_baseline


def test_task_builders_capture_active_engine():
    """Parallel task builders snapshot the engine mode at build time so
    worker processes replay the exact engine the driver ran under."""
    queries = {
        name: query
        for name, query in list(
            sorted(build_warehouse(stores=2, products=3, sales_per_store=4).queries.items())
        )[:2]
    }
    for mode in ENGINES:
        with engine_scope(mode):
            tasks = pair_check_tasks(
                queries,
                domain=Domain.RATIONALS,
                counterexample_trials=5,
                max_subsets=100,
                unknown_bound=None,
                seed=3,
            )
        assert tasks, mode
        assert all(task.engine == mode for task in tasks)


def test_only_naive_and_compiled_are_selectable(monkeypatch):
    """The naive reference and the compiled engine are the two modes; any
    other value — through the scope, a workspace, or ``REPRO_ENGINE`` — is
    rejected with a message naming both."""
    assert ENGINE_MODES == ENGINES
    with pytest.raises(ReproError, match="expected one of naive, compiled"):
        with engine_scope("planned"):
            pass
    with pytest.raises(ReproError, match="expected one of naive, compiled"):
        Workspace(engine="planned")
    monkeypatch.setenv("REPRO_ENGINE", "planned")
    with pytest.raises(ReproError, match="expected one of naive, compiled"):
        modes._initial_engine()
