"""Experiment E12 — view-based rewriting on the scaled warehouse.

The paper motivates aggregate-query equivalence as the safety oracle of
data-warehouse rewriting optimizers: a pre-computed materialized view may be
substituted for a fact-table subquery only when the rewriting is equivalent
to the original over *every* database.  PRs 1–3 built the oracle; the
rewriting subsystem (:mod:`repro.rewriting`) uses it as one: candidates are
synthesized over the view catalog, unfolded back to base predicates, and
only candidates the dispatcher proves EQUIVALENT are emitted as safe.

This benchmark drives the end-to-end warehouse story:

1. build the scaled warehouse and its pre-aggregated view catalog
   (:func:`repro.workloads.build_view_scenario`),
2. run ``rewrite()`` for every analyst report — every emitted rewriting must
   be verified EQUIVALENT by the dispatcher (hard assertion), and
3. evaluate each report both directly against the fact table and through its
   best (cost-ranked) rewriting over the materialized view extents — the
   reports must be identical, and the rewritten evaluations must beat the
   direct ones by ≥ 5x at full scale (hard floor 3x; quick mode shrinks the
   instance and the floor for CI smoke runs).

Materialization happens once, outside the timers: a warehouse maintains its
views incrementally, so the steady-state cost of a report is the evaluation
over the extents, not the view build.  Each side's wall is the median of
:data:`REPEATS` cold runs (caches cleared before each), the two sides
alternating so that machine drift reaches both: the quick instance's walls
are a few milliseconds, and one slow run must not decide the gate.

Run under pytest (``pytest benchmarks/bench_view_rewriting.py``) or
standalone (``python benchmarks/bench_view_rewriting.py [--quick]
[--json PATH]``).  ``REPRO_BENCH_QUICK=1`` selects quick mode under pytest.
"""

from __future__ import annotations

import os
import statistics
import time

from repro import Verdict
from repro.engine import clear_evaluation_caches, clear_symbolic_caches
from repro.engine.evaluator import evaluate
from repro.rewriting import RewritingEngine
from repro.workloads import build_view_scenario

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Acceptance floor for best-rewriting vs direct fact-table evaluation
#: (ISSUE 4 demands >= 5x at full scale with a hard floor of 3x; the quick
#: instance is too small to amortize per-query overheads as far).
SPEEDUP_FLOOR = 1.5 if QUICK else 3.0
SPEEDUP_TARGET = 5.0

#: Verification seed (witness searches) — results must not depend on it.
SEED = 13

#: Cold runs per timed side; the side's wall is their median.
REPEATS = 15


def _scenario(quick: bool):
    if quick:
        return build_view_scenario(stores=6, products=6, sales_per_store=40, seed=13)
    return build_view_scenario(stores=40, products=25, sales_per_store=600, seed=13)


def _cold() -> None:
    clear_symbolic_caches()
    clear_evaluation_caches()


def _median_walls(*sides) -> list[tuple[float, dict]]:  # noqa: ANN002
    """Per side, the median wall of :data:`REPEATS` cold runs and the last
    run's results; the sides take turns, one cold run each."""
    walls: list[list[float]] = [[] for _ in sides]
    results: list[dict] = [{} for _ in sides]
    for _ in range(REPEATS):
        for index, evaluate_all in enumerate(sides):
            _cold()
            start = time.perf_counter()
            results[index] = evaluate_all()
            walls[index].append(time.perf_counter() - start)
    return [(statistics.median(side), result) for side, result in zip(walls, results)]


def run_benchmark(quick: bool) -> dict:
    scenario = _scenario(quick)
    engine = RewritingEngine(scenario.views)

    # --- synthesis + verification (the oracle at work) ------------------
    _cold()
    start = time.perf_counter()
    reports = {
        name: engine.rewrite(query, database=scenario.database, seed=SEED)
        for name, query in scenario.queries.items()
    }
    rewrite_wall = time.perf_counter() - start

    # Hard acceptance requirement: every emitted rewriting is verified
    # EQUIVALENT by the dispatcher, and every query has a best rewriting.
    safe_count = 0
    for name, report in reports.items():
        assert report.safe, f"no safe rewriting emitted for {name}"
        for verified in report.safe:
            assert verified.result.verdict is Verdict.EQUIVALENT, (name, verified.candidate.name)
            safe_count += 1
        assert report.best.estimated_cost is not None
        assert report.direct_cost is not None

    materialized = scenario.materialized()

    # --- direct fact-table evaluation against the best rewriting over the
    # --- materialized extents --------------------------------------------
    (direct_wall, direct_results), (rewritten_wall, rewritten_results) = _median_walls(
        lambda: {
            name: evaluate(query, scenario.database)
            for name, query in scenario.queries.items()
        },
        lambda: {
            name: evaluate(reports[name].best.candidate.query, materialized)
            for name in scenario.queries
        },
    )

    # Hard acceptance requirement: identical reports.
    assert direct_results == rewritten_results

    rejected = sum(len(report.rejected) for report in reports.values())
    return {
        "quick": quick,
        "facts": scenario.fact_count,
        "queries": len(scenario.queries),
        "views": len(scenario.views),
        "safe": safe_count,
        "rejected": rejected,
        "rewrite_wall": rewrite_wall,
        "direct_wall": direct_wall,
        "rewritten_wall": rewritten_wall,
        "speedup": direct_wall / rewritten_wall,
        "best": {
            name: (
                report.best.candidate.name,
                report.best.estimated_cost,
                report.direct_cost,
            )
            for name, report in reports.items()
        },
    }


def _floor(quick: bool) -> float:
    return 1.5 if quick else 3.0


def _render(result: dict) -> list[str]:
    mode = "quick" if result["quick"] else "full"
    best_line = ", ".join(
        f"{name}→{chosen} (cost {cost} vs {direct})"
        for name, (chosen, cost, direct) in sorted(result["best"].items())
    )
    return [
        f"[E12:{mode}] warehouse: {result['facts']} facts, {result['queries']} reports, "
        f"{result['views']} views; rewrite() emitted {result['safe']} safe rewriting(s), "
        f"rejected {result['rejected']} unsafe candidate(s) in {result['rewrite_wall']:.2f}s "
        f"(all safe rewritings verified EQUIVALENT)",
        f"[E12:{mode}] reports (median of {REPEATS} cold runs): direct fact-table "
        f"{result['direct_wall'] * 1000:.2f}ms -> best rewritings over materialized views "
        f"{result['rewritten_wall'] * 1000:.2f}ms "
        f"({result['speedup']:.1f}x, target {SPEEDUP_TARGET}x, floor "
        f"{_floor(result['quick'])}x), identical results",
        f"[E12:{mode}] chosen rewritings: {best_line}",
    ]


def test_view_rewriting_speedup(report_lines):
    result = run_benchmark(QUICK)
    report_lines.extend(_render(result))
    assert result["safe"] >= result["queries"]
    assert result["rejected"] > 0
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"view-rewriting speedup {result['speedup']:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small instance + relaxed floor (CI smoke)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write {name, wall_s, speedup} records to PATH"
    )
    arguments = parser.parse_args()
    quick = arguments.quick or QUICK
    floor = _floor(quick)
    result = run_benchmark(quick)
    for line in _render(result):
        print(line)
    if arguments.json:
        from _jsonlog import json_record, write_json_records

        write_json_records(
            arguments.json,
            [
                json_record("view_rewriting.direct_eval", result["direct_wall"], 1.0),
                json_record(
                    "view_rewriting.rewritten_eval",
                    result["rewritten_wall"],
                    result["speedup"],
                ),
                json_record("view_rewriting.synthesis_verify", result["rewrite_wall"], None),
            ],
        )
        print(f"(json records written to {arguments.json})")
    if result["speedup"] < floor:
        print(f"FAIL: speedup {result['speedup']:.2f}x below the {floor}x floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
