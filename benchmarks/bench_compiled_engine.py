"""Experiment E14 — the columnar compiled engine: kernel reuse and fallbacks.

Three claims of the columnar-engine PR, each measured directly:

1. **Per-plan kernels amortize across databases.**  A plan is compiled once
   per ``(steps, output)`` shape — the cache key deliberately excludes the
   relation-size signature — so evaluating the analyst catalog over a second
   batch of fresh random databases must add *zero* compiles while the hit
   count keeps growing.  This is the regime the counterexample sweep lives
   in: thousands of (subset, ordering) evaluations through a handful of
   kernels.

2. **Warm evaluation clears a speedup floor over the naive reference**
   on the scaled warehouse (the representative per-cell cost once interning
   and compilation have amortized).  The primary >= 5x acceptance floor
   lives in ``bench_evaluator_scaling.py``; this benchmark re-measures with
   a softer floor as a cross-check so the two files cannot drift apart
   silently.

3. **The pure-python loop kernels stand alone.**  With ``REPRO_NO_NUMPY=1``
   (the CI configuration without NumPy installed) the compiled engine must
   still beat the naive reference by the same margin the numpy build had to
   clear — the vectorized ``searchsorted`` path is an accelerator, not a
   crutch.

4. **Disabled instrumentation is free.**  The observability layer
   (:mod:`repro.obs`) threads counter increments and trace spans through the
   warm compiled path; with tracing off those must cost under 3% of warm
   wall-clock.  Measured directly: the per-operation cost of the disabled
   primitives (null span enter/exit, registry increment) times the number of
   instrumented operations one warm catalog pass actually performs.

Run under pytest (``pytest benchmarks/bench_compiled_engine.py``) or
standalone (``python benchmarks/bench_compiled_engine.py [--quick]
[--json PATH]``).  ``REPRO_BENCH_QUICK=1`` selects quick mode under pytest.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import (
    clear_evaluation_caches,
    clear_plan_cache,
    clear_symbolic_caches,
    evaluate,
    kernel_cache_stats,
    naive_evaluate,
    naive_satisfying_assignments,
    satisfying_assignments,
)
from repro.engine.evaluator import _satisfying_assignments_cached
from repro.workloads import build_warehouse
from repro.workloads.generators import random_warehouse_database

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Scaled warehouse for the warm-evaluation and no-NumPy measurements.
SCALE = (
    dict(stores=10, products=8, sales_per_store=40, seed=7)
    if QUICK
    else dict(stores=50, products=8, sales_per_store=200, seed=7)
)

#: Random databases per amortization batch (two batches are evaluated).
BATCH = 12 if QUICK else 60

#: Cross-check floor for the warm naive/compiled ratio (the primary 5x
#: floor is asserted by bench_evaluator_scaling.py; this one only has to
#: catch a regression that would leave that file stale).
WARM_FLOOR = 1.2 if QUICK else 3.0

#: Floor for the loop-kernel (REPRO_NO_NUMPY=1) naive/compiled ratio.
LOOP_FLOOR = 1.0 if QUICK else 2.0

#: Ceiling for disabled-instrumentation overhead on the warm compiled path.
OBS_CEILING = 0.03


def _cold() -> None:
    clear_evaluation_caches()  # also drops the kernel and store caches
    clear_plan_cache()
    clear_symbolic_caches()


def _catalog(warehouse) -> list:
    return [query for _, query in sorted(warehouse.queries.items())]


def _evaluate_batch(queries, databases, evaluator) -> float:
    """Seconds ``evaluator`` (``evaluate`` or ``naive_evaluate``) takes over
    every (query, database) pair."""
    start = time.perf_counter()
    for query in queries:
        for database in databases:
            evaluator(query, database)
    return time.perf_counter() - start


def _measure_warm_total(warehouse, evaluator, repeats: int = 5) -> float:
    """Catalog-wide warm ``evaluator`` seconds (kernels/stores/plans hot,
    memoized Γ dropped between repetitions)."""
    database = warehouse.database
    total = 0.0
    for _, query in sorted(warehouse.queries.items()):
        evaluator(query, database)  # warm kernels, store, plans
        best = float("inf")
        for _ in range(repeats):
            _satisfying_assignments_cached.cache_clear()
            start = time.perf_counter()
            evaluator(query, database)
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def _measure_obs_overhead(warehouse) -> tuple[int, float]:
    """Disabled-instrumentation overhead on the warm compiled path.

    Returns ``(ops, ratio)``: the number of instrumented operations (counter
    increments + trace spans) one warm catalog pass performs, and their
    estimated cost as a fraction of that pass's wall-clock.  The per-op cost
    is calibrated on the live primitives — a disabled :func:`repro.obs.span`
    (which returns the shared null span) and a registry increment — so the
    ratio reflects exactly what the instrumentation adds when ``REPRO_TRACE``
    is unset.
    """
    from repro.obs import REGISTRY, enabled, span

    assert not enabled(), "overhead calibration requires tracing disabled"
    loops = 200_000
    start = time.perf_counter()
    for _ in range(loops):
        with span("overhead.calibrate"):
            pass
        REGISTRY.inc("overhead.calibrate")
    per_op = (time.perf_counter() - start) / (2 * loops)
    REGISTRY.reset("overhead.")

    database = warehouse.database
    for _, query in sorted(warehouse.queries.items()):
        evaluate(query, database)  # warm kernels, stores, plans
    before = REGISTRY.snapshot("engine.")
    _satisfying_assignments_cached.cache_clear()
    start = time.perf_counter()
    for _, query in sorted(warehouse.queries.items()):
        evaluate(query, database)
    wall = time.perf_counter() - start
    after = REGISTRY.snapshot("engine.")
    increments = sum(after.values()) - sum(before.values())
    # Spans on the warm path: one kernel.execute per loop-kernel dispatch and
    # one kernel.compile per (warm: zero) compile.
    spans = (
        after.get("engine.dispatch.loop", 0) - before.get("engine.dispatch.loop", 0)
    ) + (
        after.get("engine.kernel.compiles", 0) - before.get("engine.kernel.compiles", 0)
    )
    ops = increments + spans
    return ops, (ops * per_op) / wall if wall > 0 else 0.0


def run_benchmark(quick: bool) -> dict:
    scale = (
        dict(stores=10, products=8, sales_per_store=40, seed=7)
        if quick
        else dict(stores=50, products=8, sales_per_store=200, seed=7)
    )
    batch = 12 if quick else 60
    warehouse = build_warehouse(**scale)
    queries = _catalog(warehouse)

    # Agreement spot-check on adversarial instances before timing anything.
    for seed in range(5):
        database = random_warehouse_database(seed)
        for query in queries:
            naive_result = naive_evaluate(query, database)
            compiled_result = evaluate(query, database)
            compiled_assignments = satisfying_assignments(query, database)
            naive_assignments = naive_satisfying_assignments(query, database)
            assert naive_result == compiled_result, (seed, query.name)
            assert sorted(naive_assignments, key=repr) == sorted(
                compiled_assignments, key=repr
            ), (seed, query.name)

    # 1. Kernel amortization: two batches of fresh databases, one kernel set.
    first_batch = [random_warehouse_database(seed) for seed in range(batch)]
    second_batch = [random_warehouse_database(seed) for seed in range(batch, 2 * batch)]
    _cold()
    multi_naive = _evaluate_batch(queries, first_batch + second_batch, naive_evaluate)
    _cold()
    multi_compiled_first = _evaluate_batch(queries, first_batch, evaluate)
    stats_after_first = kernel_cache_stats()
    multi_compiled_second = _evaluate_batch(queries, second_batch, evaluate)
    stats_after_second = kernel_cache_stats()
    multi_compiled = multi_compiled_first + multi_compiled_second

    # 2. Warm catalog evaluation at scale.
    _cold()
    warm_naive = _measure_warm_total(warehouse, naive_evaluate)
    warm_compiled = _measure_warm_total(warehouse, evaluate)

    # 4. Disabled-instrumentation overhead on the (already warm) compiled path.
    obs_ops, obs_overhead_ratio = _measure_obs_overhead(warehouse)

    # Snapshot the work counters now, before the teardown _cold() calls
    # reset the engine scope: this is what the --json records carry.
    from repro.obs import REGISTRY

    counters = REGISTRY.snapshot()

    # 3. Loop kernels only (the store is rebuilt under REPRO_NO_NUMPY=1, so
    #    the vectorized path is never taken).
    previous = os.environ.get("REPRO_NO_NUMPY")
    os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        _cold()
        loop_compiled = _measure_warm_total(warehouse, evaluate)
    finally:
        if previous is None:
            os.environ.pop("REPRO_NO_NUMPY", None)
        else:
            os.environ["REPRO_NO_NUMPY"] = previous
        _cold()

    return {
        "quick": quick,
        "facts": warehouse.fact_count,
        "queries": len(queries),
        "batch": batch,
        "multi_naive": multi_naive,
        "multi_compiled": multi_compiled,
        "stats_after_first": stats_after_first,
        "stats_after_second": stats_after_second,
        "warm_naive": warm_naive,
        "warm_compiled": warm_compiled,
        "loop_compiled": loop_compiled,
        "obs_ops": obs_ops,
        "obs_overhead_ratio": obs_overhead_ratio,
        "counters": counters,
    }


def _render(result: dict) -> list[str]:
    mode = "quick" if result["quick"] else "full"
    first = result["stats_after_first"]
    second = result["stats_after_second"]
    return [
        f"[E14:{mode}] kernel reuse: {result['queries']} queries x "
        f"{2 * result['batch']} databases -> {second['compiles']} compiles, "
        f"{second['hits']} hits ({second['compiles'] - first['compiles']} new "
        f"compiles in batch 2); naive {result['multi_naive'] * 1000:.1f} ms, "
        f"compiled {result['multi_compiled'] * 1000:.1f} ms",
        f"[E14:{mode}] warm catalog ({result['facts']} facts): naive "
        f"{result['warm_naive'] * 1000:.1f} ms, compiled "
        f"{result['warm_compiled'] * 1000:.1f} ms "
        f"({result['warm_naive'] / result['warm_compiled']:.1f}x, floor "
        f"{1.2 if result['quick'] else 3.0}x)",
        f"[E14:{mode}] loop kernels (REPRO_NO_NUMPY=1): compiled "
        f"{result['loop_compiled'] * 1000:.1f} ms "
        f"({result['warm_naive'] / result['loop_compiled']:.1f}x vs naive, "
        f"floor {1.0 if result['quick'] else 2.0}x)",
        f"[E14:{mode}] disabled instrumentation: {result['obs_ops']} ops per "
        f"warm pass, {result['obs_overhead_ratio'] * 100:.3f}% of wall "
        f"(ceiling {OBS_CEILING * 100:.0f}%)",
    ]


def _check(result: dict) -> None:
    first = result["stats_after_first"]
    second = result["stats_after_second"]
    # The second batch of fresh databases must reuse every kernel: the cache
    # key excludes the size signature, so new databases add hits, not compiles.
    assert first["compiles"] > 0
    assert second["compiles"] == first["compiles"], (
        f"batch 2 recompiled kernels: {first['compiles']} -> {second['compiles']}"
    )
    assert second["hits"] > first["hits"]

    warm_floor = 1.2 if result["quick"] else 3.0
    warm_ratio = result["warm_naive"] / result["warm_compiled"]
    assert warm_ratio >= warm_floor, (
        f"warm compiled speedup {warm_ratio:.2f}x below the {warm_floor}x floor"
    )

    loop_floor = 1.0 if result["quick"] else 2.0
    loop_ratio = result["warm_naive"] / result["loop_compiled"]
    assert loop_ratio >= loop_floor, (
        f"loop-kernel compiled speedup {loop_ratio:.2f}x below the {loop_floor}x floor"
    )

    assert result["obs_ops"] > 0, "warm pass performed no instrumented ops"
    assert result["obs_overhead_ratio"] < OBS_CEILING, (
        f"disabled instrumentation costs {result['obs_overhead_ratio'] * 100:.2f}% "
        f"of warm compiled wall-clock (ceiling {OBS_CEILING * 100:.0f}%)"
    )


@pytest.mark.paper_artifact("Engine substrate — columnar kernels: reuse and fallbacks")
def test_compiled_engine(report_lines):
    result = run_benchmark(QUICK)
    report_lines.extend(_render(result))
    _check(result)


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload + relaxed floors (CI smoke)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write {name, wall_s, speedup, engine} records to PATH"
    )
    arguments = parser.parse_args()
    quick = arguments.quick or QUICK
    result = run_benchmark(quick)
    for line in _render(result):
        print(line)
    if arguments.json:
        from _jsonlog import json_record, write_json_records

        write_json_records(
            arguments.json,
            [
                json_record(
                    "compiled_engine.multi_db_naive",
                    result["multi_naive"],
                    1.0,
                    engine="naive",
                    counters=result["counters"],
                ),
                json_record(
                    "compiled_engine.multi_db_compiled",
                    result["multi_compiled"],
                    result["multi_naive"] / result["multi_compiled"],
                    engine="compiled",
                    counters=result["counters"],
                ),
                json_record(
                    "compiled_engine.warm_catalog_naive",
                    result["warm_naive"],
                    1.0,
                    engine="naive",
                    counters=result["counters"],
                ),
                json_record(
                    "compiled_engine.warm_catalog_compiled",
                    result["warm_compiled"],
                    result["warm_naive"] / result["warm_compiled"],
                    engine="compiled",
                    counters=result["counters"],
                ),
                json_record(
                    "compiled_engine.warm_catalog_loop_kernels",
                    result["loop_compiled"],
                    result["warm_naive"] / result["loop_compiled"],
                    engine="compiled",
                    counters=result["counters"],
                ),
            ],
        )
        print(f"(json records written to {arguments.json})")
    try:
        _check(result)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
