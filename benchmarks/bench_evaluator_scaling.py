"""Experiment E9 — the engine ladder at warehouse scale.

Two acceptance claims share this workload (a scaled :func:`build_warehouse`,
default ``stores=50, sales_per_store=200``, ~8k facts, evaluated over the
analyst catalog), both measured against the naive nested-loop reference:

* **cold**: the compiled engine computes Γ(q, D) >= 5x faster than the
  reference on a fresh ``Database`` with the plan, Γ, kernel and store caches
  cleared, so the timing includes planning, interning and kernel compilation.

* **warm**: the compiled engine is >= 5x faster than the reference at the
  ``evaluate()`` level with stores interned, kernels compiled, and memoized Γ
  dropped between repetitions.  Warm is the representative regime: the
  counterexample sweep evaluates thousands of (subset, ordering) cells
  through the same per-plan kernels, so interning and compilation amortize to
  noise while the per-evaluation cost is paid every cell.

The residual gap on aggregate-heavy queries is dominated by exact
``Fraction`` arithmetic inside the aggregate functions — α-application cost
both engines share — so the warm per-query floor is asserted only on the
kernel-dominated queries while the catalog-wide total must clear the floor.

Run under pytest (``pytest benchmarks/bench_evaluator_scaling.py``) or
standalone (``python benchmarks/bench_evaluator_scaling.py [--quick]
[--json PATH]``).  Set ``REPRO_BENCH_QUICK=1`` for the CI smoke
configuration (a smaller warehouse and relaxed speedup floors, so slow
shared runners do not flake).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import (
    clear_evaluation_caches,
    clear_plan_cache,
    evaluate,
    naive_evaluate,
    naive_satisfying_assignments,
    satisfying_assignments,
)
from repro.engine.evaluator import _satisfying_assignments_cached
from repro.workloads import build_warehouse

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Scaled warehouse configuration (quick mode shrinks it for CI smoke runs).
SCALE = (
    dict(stores=10, products=8, sales_per_store=40, seed=7)
    if QUICK
    else dict(stores=50, products=8, sales_per_store=200, seed=7)
)

#: Queries whose shape (joins on bound columns, pushed filters) the planner
#: accelerates; each must clear SPEEDUP_FLOOR cold at full scale.
JOIN_HEAVY = ["large_sales_count", "premium_returned_revenue", "premium_kept_products"]

#: Queries where the compiled kernels dominate end-to-end time (small answer
#: sets, cheap or absent α-application); each must clear KERNEL_FLOOR
#: individually at full scale.  The aggregate-heavy rest of the catalog is
#: held only to the catalog-wide COMPILED_FLOOR.
KERNEL_WINS = ["premium_kept_products", "revenue_per_store", "revenue_per_store_alt"]

#: Floor for the whole-catalog cold naive->compiled speedup (measured 19.5x
#: full and 4.1x quick on a 2-core box; quick mode keeps a smaller cushion
#: for noisy CI runners).
SPEEDUP_FLOOR = 2.0 if QUICK else 5.0

#: Floor for the whole-catalog warm naive->compiled speedup at the
#: evaluate() level (measured 66.6x full and 14.8x quick on a 2-core box).
COMPILED_FLOOR = 1.5 if QUICK else 5.0

#: Warm per-query floor for the kernel-dominated queries (measured 93x and
#: up).
KERNEL_FLOOR = 10.0


def _best_of(callable_, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(warehouse) -> dict[str, tuple[float, float]]:
    """Per-query ``(naive_seconds, compiled_seconds)``, fully cold each run.

    The compiled run is timed against a freshly rebuilt ``Database`` with the
    plan, Γ, kernel and store caches cleared, so the measurement includes
    planning, interning and kernel compilation — not just running warm
    kernels.
    """
    from repro.datalog.database import Database

    timings: dict[str, tuple[float, float]] = {}
    for name, query in sorted(warehouse.queries.items()):
        naive = _best_of(lambda: naive_satisfying_assignments(query, warehouse.database))

        compiled = float("inf")
        for _ in range(3):
            fresh_database = Database(warehouse.database.facts)  # no cached store
            clear_evaluation_caches()
            clear_plan_cache()
            start = time.perf_counter()
            satisfying_assignments(query, fresh_database)
            compiled = min(compiled, time.perf_counter() - start)
        timings[name] = (naive, compiled)
    return timings


def _measure_warm(warehouse, evaluator, repeats: int = 5) -> dict[str, float]:
    """Per-query warm seconds of ``evaluator`` (``evaluate`` or the naive
    reference ``naive_evaluate``).

    A first untimed call interns the store, compiles the kernels and plans
    the conditions; each timed repetition then drops only the memoized Γ
    results so the evaluation proper is recomputed (the naive reference
    memoizes nothing).
    """
    database = warehouse.database
    timings: dict[str, float] = {}
    for name, query in sorted(warehouse.queries.items()):
        evaluator(query, database)  # warm kernels, store, plans
        best = float("inf")
        for _ in range(repeats):
            _satisfying_assignments_cached.cache_clear()
            start = time.perf_counter()
            evaluator(query, database)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    return timings


@pytest.mark.paper_artifact("Engine substrate — cold compiled evaluation")
def test_cold_compiled_speedup(report_lines):
    warehouse = build_warehouse(**SCALE)
    mode = "quick" if QUICK else "full"

    # The two engines must agree before their timings mean anything.
    for name, query in sorted(warehouse.queries.items()):
        naive = naive_satisfying_assignments(query, warehouse.database)
        compiled = satisfying_assignments(query, warehouse.database)
        assert sorted(naive, key=repr) == sorted(compiled, key=repr), name

    timings = _measure(warehouse)
    total_naive = sum(naive for naive, _ in timings.values())
    total_compiled = sum(compiled for _, compiled in timings.values())
    overall = total_naive / total_compiled

    for name, (naive, compiled) in sorted(timings.items()):
        report_lines.append(
            f"[E9] {name:26s} ({mode}, {warehouse.fact_count} facts): "
            f"naive {naive * 1000:8.2f} ms, compiled {compiled * 1000:7.2f} ms, "
            f"speedup {naive / compiled:6.1f}x"
        )
    report_lines.append(
        f"[E9] {'TOTAL':26s} ({mode}, {warehouse.fact_count} facts): "
        f"naive {total_naive * 1000:8.2f} ms, compiled {total_compiled * 1000:7.2f} ms, "
        f"speedup {overall:6.1f}x (floor {SPEEDUP_FLOOR}x)"
    )

    assert overall >= SPEEDUP_FLOOR, (
        f"cold compiled engine only {overall:.1f}x faster than the naive reference "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    # The join-heavy queries are where the indexes matter most; each must
    # individually clear the floor at full scale.
    if not QUICK:
        for name in JOIN_HEAVY:
            naive, compiled = timings[name]
            assert naive / compiled >= SPEEDUP_FLOOR, (
                f"{name}: {naive / compiled:.1f}x < {SPEEDUP_FLOOR}x"
            )


@pytest.mark.paper_artifact("Engine substrate — warm compiled evaluation")
def test_warm_compiled_speedup(report_lines):
    warehouse = build_warehouse(**SCALE)
    mode = "quick" if QUICK else "full"

    # Agreement first: evaluate() must equal the naive reference on the catalog.
    for name, query in sorted(warehouse.queries.items()):
        assert naive_evaluate(query, warehouse.database) == evaluate(
            query, warehouse.database
        ), name

    naive = _measure_warm(warehouse, naive_evaluate)
    compiled = _measure_warm(warehouse, evaluate)
    total_naive = sum(naive.values())
    total_compiled = sum(compiled.values())
    overall = total_naive / total_compiled

    for name in sorted(naive):
        report_lines.append(
            f"[E9c] {name:26s} ({mode}, {warehouse.fact_count} facts): "
            f"naive {naive[name] * 1000:8.2f} ms, "
            f"compiled {compiled[name] * 1000:7.2f} ms, "
            f"speedup {naive[name] / compiled[name]:6.1f}x"
        )
    report_lines.append(
        f"[E9c] {'TOTAL':26s} ({mode}, {warehouse.fact_count} facts): "
        f"naive {total_naive * 1000:8.2f} ms, "
        f"compiled {total_compiled * 1000:7.2f} ms, "
        f"speedup {overall:6.1f}x (floor {COMPILED_FLOOR}x)"
    )

    assert overall >= COMPILED_FLOOR, (
        f"warm compiled engine only {overall:.1f}x faster than the naive reference "
        f"(floor {COMPILED_FLOOR}x)"
    )
    if not QUICK:
        for name in KERNEL_WINS:
            ratio = naive[name] / compiled[name]
            assert ratio >= KERNEL_FLOOR, f"{name}: {ratio:.1f}x < {KERNEL_FLOOR}x"


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small warehouse + relaxed floors (CI smoke)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write {name, wall_s, speedup, engine} records to PATH"
    )
    arguments = parser.parse_args()
    quick = arguments.quick or QUICK
    scale = (
        dict(stores=10, products=8, sales_per_store=40, seed=7)
        if quick
        else dict(stores=50, products=8, sales_per_store=200, seed=7)
    )
    warehouse = build_warehouse(**scale)
    print(f"warehouse: {warehouse.fact_count} facts ({scale})")

    timings = _measure(warehouse)
    total_naive = sum(naive for naive, _ in timings.values())
    total_compiled_cold = sum(compiled for _, compiled in timings.values())
    for name, (naive, compiled) in sorted(timings.items()):
        print(
            f"{name:26s} naive {naive * 1000:8.2f} ms  compiled {compiled * 1000:7.2f} ms  "
            f"speedup {naive / compiled:6.1f}x"
        )
    print(f"{'TOTAL':26s} naive {total_naive * 1000:8.2f} ms  compiled "
          f"{total_compiled_cold * 1000:7.2f} ms  speedup "
          f"{total_naive / total_compiled_cold:6.1f}x")

    naive_warm = _measure_warm(warehouse, naive_evaluate)
    compiled_warm = _measure_warm(warehouse, evaluate)
    total_naive_warm = sum(naive_warm.values())
    total_compiled = sum(compiled_warm.values())
    print()
    for name in sorted(naive_warm):
        print(
            f"{name:26s} naive {naive_warm[name] * 1000:8.2f} ms  "
            f"compiled {compiled_warm[name] * 1000:7.2f} ms  "
            f"speedup {naive_warm[name] / compiled_warm[name]:6.1f}x"
        )
    print(f"{'TOTAL':26s} naive {total_naive_warm * 1000:8.2f} ms  compiled "
          f"{total_compiled * 1000:7.2f} ms  speedup "
          f"{total_naive_warm / total_compiled:6.1f}x")

    if arguments.json:
        from _jsonlog import json_record, write_json_records

        write_json_records(
            arguments.json,
            [
                json_record("evaluator_scaling.naive_total", total_naive, 1.0, engine="naive"),
                json_record(
                    "evaluator_scaling.compiled_total_cold",
                    total_compiled_cold,
                    total_naive / total_compiled_cold,
                    engine="compiled",
                ),
                json_record(
                    "evaluator_scaling.naive_total_warm", total_naive_warm, 1.0, engine="naive"
                ),
                json_record(
                    "evaluator_scaling.compiled_total_warm",
                    total_compiled,
                    total_naive_warm / total_compiled,
                    engine="compiled",
                ),
            ],
        )
        print(f"(json records written to {arguments.json})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
