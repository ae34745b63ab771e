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

import os
import subprocess
import sys
from collections import Counter

import pytest

from repro import Workspace, parse_query
from repro.engine import (
    clear_evaluation_caches,
    clear_symbolic_caches,
    evaluate,
    evaluate_bag_set,
    evaluate_set,
    kernel_cache_stats,
    naive_evaluate,
    naive_satisfying_assignments,
    plan_condition,
    satisfying_assignments,
    store_cache_stats,
    store_for,
)
from repro.engine import columnar
from repro.engine.columnar import numpy_module
from repro.obs import REGISTRY
from repro.rewriting import RewritingEngine
from repro.workloads import (
    build_view_scenario,
    build_warehouse,
    decide_pairs,
    random_warehouse_database,
)


def _clean() -> None:
    clear_evaluation_caches()
    clear_symbolic_caches()


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
        assert evaluate(query, database) == naive_evaluate(query, database), (label, name)


def test_random_instances_agree_across_engines():
    """Adversarial random instances (empty relations, dangling returns,
    repeated and negative amounts): identical Γ multisets and identical
    derived semantics across both engines."""
    _clean()
    queries = sorted(build_warehouse(stores=3, products=4, sales_per_store=6).queries.items())
    for seed in range(30):
        database = random_warehouse_database(seed)
        for name, query in queries:
            naive_gamma = Counter(naive_satisfying_assignments(query, database))
            compiled_gamma = Counter(satisfying_assignments(query, database))
            assert naive_gamma == compiled_gamma, (seed, name)
            assert evaluate(query, database) == naive_evaluate(query, database), (seed, name)


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
    presence serially and sharded over two workers, and every concrete
    witness must be confirmed by the naive reference."""
    queries = _catalog_for_sweep()

    _clean()
    compiled = decide_pairs(queries, seed=11)
    _clean()
    compiled_parallel = decide_pairs(queries, seed=11, workers=2)

    assert _summarize(compiled) == _summarize(compiled_parallel)

    # Witness exactness: every concrete witness the compiled sweep reports
    # must be confirmed by the naive oracle — the queries really differ on it.
    witnessed = 0
    for pair, cell in compiled.items():
        counterexample = cell.counterexample
        if counterexample is None or counterexample.database is None:
            continue
        witnessed += 1
        left = naive_evaluate(queries[pair[0]], counterexample.database)
        right = naive_evaluate(queries[pair[1]], counterexample.database)
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
            assert naive_evaluate(query, warehouse.database) == evaluate(
                query, warehouse.database
            ), name
        for seed in range(10):
            database = random_warehouse_database(seed)
            for name, query in sorted(warehouse.queries.items()):
                assert naive_evaluate(query, database) == evaluate(query, database), (seed, name)
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
            assert naive_evaluate(query, warehouse.database) == evaluate(
                query, warehouse.database
            ), name
    finally:
        monkeypatch.undo()
        _clean()


@pytest.mark.parametrize("backend", ["numpy", "loop"])
def test_stores_intern_only_the_relations_a_query_reads(backend, monkeypatch):
    """A store interns a relation on its first read: evaluating each
    report's best rewriting over the materialized extents interns the
    relations that rewriting reads and no others (as sorted id rows on the
    loop path, as an id matrix on the NumPy path), while ``size``,
    ``vector_candidate`` and the results equal those of a store with every
    relation interned."""
    if backend == "numpy":
        if numpy_module() is None:
            pytest.skip("NumPy unavailable")
        monkeypatch.setattr(columnar, "VECTOR_THRESHOLD", 0)
    else:
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    scenario = build_view_scenario(stores=6, products=5, sales_per_store=40, seed=3)
    materialized = scenario.materialized()
    engine = RewritingEngine(scenario.views)
    try:
        for name, report in sorted(scenario.queries.items()):
            best = engine.rewrite(report, database=scenario.database, workers=1).best
            assert best is not None, name
            query = best.candidate.query
            _clean()
            vector_before = REGISTRY.get("engine.dispatch.vector")
            result = evaluate(query, materialized)
            assert (REGISTRY.get("engine.dispatch.vector") > vector_before) == (
                backend == "numpy"
            ), name
            store = store_for(materialized)
            interned = set(store._interned) | {predicate for predicate, _ in store._matrices}
            assert interned == query.predicates(), name
            plans = [plan_condition(disjunct) for disjunct in query.disjuncts]
            lazy_sizes = {p: store.size(p) for p in materialized.predicates()}
            lazy_candidates = [store.vector_candidate(plan) for plan in plans]
            for predicate in materialized.predicates():
                store.row_set(predicate)
            assert lazy_sizes == {p: len(store.row_set(p)) for p in materialized.predicates()}
            assert [store.vector_candidate(plan) for plan in plans] == lazy_candidates
            assert lazy_candidates == [backend == "numpy"] * len(plans), name
            assert evaluate(query, materialized) == result, name
            assert result == naive_evaluate(query, materialized), name
            assert result == naive_evaluate(report, scenario.database), name
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

    evaluate(query, warehouse.database)
    after_first = kernel_cache_stats()
    assert after_first["compiles"] > baseline_kernels
    assert store_cache_stats()["builds"] > baseline_stores

    # A second evaluation reuses both caches: hits move, compiles do not.
    evaluate(query, warehouse.database)
    after_second = kernel_cache_stats()
    assert after_second["compiles"] == after_first["compiles"]

    # Clearing must force a re-compile and a store rebuild on the next call.
    clear_evaluation_caches()
    assert kernel_cache_stats()["entries"] == 0
    recompile_baseline = kernel_cache_stats()["compiles"]
    rebuild_baseline = store_cache_stats()["builds"]
    evaluate(query, warehouse.database)
    assert kernel_cache_stats()["compiles"] > recompile_baseline
    assert store_cache_stats()["builds"] > rebuild_baseline


def test_repro_engine_variable_selects_nothing():
    """``REPRO_ENGINE`` is no longer read: a process started with it set to
    ``naive`` imports cleanly and still evaluates through compiled kernels."""
    script = (
        "from repro import parse_database, parse_query\n"
        "from repro.engine import evaluate, kernel_cache_stats\n"
        "query = parse_query('q(x, sum(y)) :- p(x, y)')\n"
        "print(evaluate(query, parse_database('p(1, 2). p(1, 3).')))\n"
        "print(kernel_cache_stats()['compiles'] > 0)\n"
    )
    env = dict(os.environ, REPRO_ENGINE="naive")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["{(1,):", "5}", "True"]


def _rewriting_outcome(report) -> tuple:
    """Every verified candidate of a rewriting report, in report order, with
    its bucket, verdict, method and estimated cost, plus the rejections."""
    return (
        tuple(
            (bucket, verified.candidate.name, verified.result.verdict,
             verified.result.method, verified.estimated_cost)
            for bucket in ("safe", "not_equivalent", "unverified")
            for verified in getattr(report, bucket)
        ),
        tuple(str(rejection) for rejection in report.rejected),
    )


def _observe_warehouse(scenario, extents) -> list:
    """Set, bag-set and aggregate results of every report and view over the
    facts and the extents, then every report's rewriting outcome."""
    _clean()
    queries = [query for _, query in sorted(scenario.queries.items())]
    queries += [view.query for view in scenario.views]
    observed: list = []
    for query in queries:
        for database in (scenario.database, extents):
            observed.append(
                (
                    evaluate_set(query, database),
                    evaluate_bag_set(query, database),
                    evaluate(query, database) if query.is_aggregate else None,
                )
            )
    workspace = Workspace(workers=1, store=False)
    for view in scenario.views:
        workspace.register_view(view)
    for _, report in sorted(scenario.queries.items()):
        observed.append(_rewriting_outcome(workspace.rewrite(report, database=scenario.database)))
    return observed


@pytest.mark.skipif(numpy_module() is None, reason="NumPy unavailable")
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_matrix_row_order_never_reaches_a_result(order, monkeypatch):
    """Id matrices are unsorted: reversing or shuffling every matrix a store
    hands out changes no set, bag-set or aggregate result and no rewriting
    outcome, on a ``sales`` relation over the real threshold."""
    scenario = build_view_scenario(stores=6, products=5, sales_per_store=150, seed=5)
    extents = scenario.materialized()
    assert len(scenario.database.relation("sales")) >= columnar.VECTOR_THRESHOLD
    try:
        expected = _observe_warehouse(scenario, extents)
        original = columnar.ColumnarStore.matrix

        def permuted(self, predicate, arity):
            matrix = original(self, predicate, arity)
            if order == "reversed":
                return matrix[::-1]
            return matrix[self.numpy.random.default_rng(len(matrix)).permutation(len(matrix))]

        monkeypatch.setattr(columnar.ColumnarStore, "matrix", permuted)
        assert _observe_warehouse(scenario, extents) == expected
        assert REGISTRY.get("engine.dispatch.vector") > 0
    finally:
        monkeypatch.undo()
        _clean()


class _Untouchable:
    """Stands in for NumPy on a small store: any attribute read is recorded
    and fails."""

    def __init__(self, touched: list) -> None:
        self._touched = touched

    def __getattr__(self, name: str):
        self._touched.append(name)
        raise AssertionError(f"a store below the vector threshold read numpy.{name}")


def test_small_stores_never_touch_numpy(monkeypatch):
    """Every store below the vector threshold gets a NumPy stand-in that
    fails on any use; a cold catalog sweep and the concrete re-check of its
    witnesses must run without reading it."""
    touched: list = []
    guarded: list = []
    original = columnar.ColumnarStore.__init__

    def build(self, database):
        original(self, database)
        if self._largest < columnar.VECTOR_THRESHOLD:
            self.numpy = _Untouchable(touched)
            guarded.append(database)

    monkeypatch.setattr(columnar.ColumnarStore, "__init__", build)
    queries = _catalog_for_sweep()
    _clean()
    try:
        workspace = Workspace(workers=1, store=False)
        for name, query in queries.items():
            workspace.add(query, name=name)
        cells = workspace.equivalences()
        witnessed = 0
        for (first, second), cell in cells.items():
            counterexample = cell.counterexample
            if counterexample is None or counterexample.database is None:
                continue
            witnessed += 1
            left = evaluate(queries[first], counterexample.database)
            right = evaluate(queries[second], counterexample.database)
            assert left != right, (first, second)
        assert witnessed > 0
        assert guarded
        assert touched == []
    finally:
        monkeypatch.undo()
        _clean()


@pytest.mark.skipif(numpy_module() is None, reason="NumPy unavailable")
def test_heads_too_wide_to_pack_take_the_loop_path(monkeypatch):
    """On a vectorized store, a head whose packed row key would pass
    ``INT64_HEADROOM`` is counted by the loop path instead; set, bag-set,
    ``sum`` and ``cntd`` results still equal the naive reference.  The
    ``cntd`` head is one column narrower: its group key packs, its whole
    row does not."""
    from repro.engine import compile as compiled

    scenario = build_view_scenario(stores=6, products=5, sales_per_store=150, seed=5)
    database = scenario.database
    _clean()
    packed: list = []
    original = compiled.pack_rows

    def spy(np, matrix, base):
        keys = original(np, matrix, base)
        packed.append((matrix.shape[1], keys is not None))
        return keys

    monkeypatch.setattr(compiled, "pack_rows", spy)
    try:
        store = store_for(database)
        assert store.vectorized()
        base = store.carrier_len + 1
        width = 1
        while base**width <= columnar.INT64_HEADROOM:
            width += 1
        def head(names, columns):  # the names repeated to `columns` wide
            return ", ".join(names[column % len(names)] for column in range(columns))

        texts = [
            f"q({head('spa', width)}) :- sales(s, p, a), a > 3",
            f"q({head('sp', width)}, sum(a)) :- sales(s, p, a) ; sales(s, p, a), p = 2",
            f"q({head('sa', width - 1)}, cntd(p)) :- sales(s, x, a), p = 7 ; sales(s, p, a)",
        ]
        for text in texts:
            query = parse_query(text)
            if query.is_aggregate:
                assert evaluate(query, database) == naive_evaluate(query, database), text
            else:
                assert evaluate_set(query, database) == naive_evaluate(query, database), text
                assert evaluate_bag_set(query, database) == naive_evaluate(
                    query, database, bag=True
                ), text
        # Every head of `width` columns failed to pack (the two set-semantics
        # calls, the sum key, cntd's whole row); cntd's narrower key was not
        # asked for, since its whole row decides.
        assert packed == [(width, False)] * 4
    finally:
        monkeypatch.undo()
        _clean()
