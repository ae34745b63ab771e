"""Experiment E13 — the incremental session vs one-shot recomputation.

The session-first API (:class:`repro.session.Workspace`) exists so a live
catalog under traffic stops paying the one-shot entry points' fixed costs per
call: re-warming the Γ / signature / group-index caches, re-forking the
worker pool, and — the dominant term — re-deciding cells earlier calls
already settled.  This benchmark measures exactly that
trade on the rewriting-audit catalog of E11 (28 queries at full scale,
mostly-equivalent cells, the expensive case):

1. a workspace is warmed with the full catalog (one ``equivalences()`` call),
2. **one** query is added and ``equivalences()`` is re-queried — only the
   delta row (new × catalog) is decided, against warm caches,
3. the same final catalog is recomputed from scratch with
   ``equivalence_matrix`` on cold caches.

The acceptance floor (ISSUE 5) is a ≥5x speedup of the incremental re-query
over the from-scratch matrix at full scale, with verdicts and methods
identical cell for cell.  A second leg checks the persistent pool: a
``workers=2`` workspace serving repeated ``rewrite()`` calls forks its pool
at most once.

Run under pytest (``pytest benchmarks/bench_session_reuse.py``) or standalone
(``python benchmarks/bench_session_reuse.py [--quick] [--json PATH]``).
``REPRO_BENCH_QUICK=1`` selects quick mode under pytest.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_catalog_sweep import build_audit_catalog  # noqa: E402

from repro import Workspace, parse_query  # noqa: E402
from repro.engine import clear_evaluation_caches, clear_symbolic_caches  # noqa: E402
from repro.workloads import build_view_scenario, equivalence_matrix  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _floor(quick: bool) -> float:
    """Acceptance floor for incremental-vs-scratch (ISSUE 5 demands >= 5x at
    full scale; the quick catalog amortizes less, so CI smoke keeps a
    cushion).  Single source for the pytest and CLI entry points."""
    return 2.0 if quick else 5.0


SPEEDUP_FLOOR = _floor(QUICK)


def _cold() -> None:
    clear_symbolic_caches()
    clear_evaluation_caches()


def _extra_query():
    """One more member of the audit family — a fresh renaming, so the delta
    row lands in the big sweep groups without changing the BASE recipe."""
    return parse_query(
        "audit(z, count()) :- returns(z, w), premium_store(z) ; "
        "discontinued(w), returns(z, w)"
    )


def run_benchmark(quick: bool) -> dict:
    catalog = build_audit_catalog(quick)
    extra = _extra_query()

    # ------------------------------------------------------------------
    # Warm a session on the full catalog, then add one query and re-query.
    # ------------------------------------------------------------------
    _cold()
    with Workspace(workers=1, seed=7) as workspace:
        for name, query in catalog.items():
            workspace.add(query, name=name)
        start = time.perf_counter()
        workspace.equivalences()
        warm_wall = time.perf_counter() - start

        workspace.add(extra, name="audit_new")
        start = time.perf_counter()
        incremental_results = workspace.equivalences()
        incremental_wall = time.perf_counter() - start
        delta_cells = workspace.stats().decided_cells - len(catalog) * (len(catalog) - 1) // 2

    # ------------------------------------------------------------------
    # The same final catalog, from scratch on cold caches.
    # ------------------------------------------------------------------
    full_catalog = dict(catalog)
    full_catalog["audit_new"] = extra
    _cold()
    start = time.perf_counter()
    scratch_results = equivalence_matrix(full_catalog, workers=1, seed=7)
    scratch_wall = time.perf_counter() - start

    # Hard acceptance requirement: identical verdicts and methods, cell for
    # cell, between the incrementally grown session and the one-shot matrix.
    assert incremental_results.keys() == scratch_results.keys()
    for pair, cell in incremental_results.items():
        assert cell.verdict is scratch_results[pair].verdict, pair
        assert cell.method == scratch_results[pair].method, pair

    # ------------------------------------------------------------------
    # Persistent pool: repeated rewrites fork no new pool.
    # ------------------------------------------------------------------
    # The pool forks lazily on the first call with enough work to shard, so
    # the invariant is "at most one fork ever", not "forked by call one".
    scenario = build_view_scenario()
    with Workspace(workers=2, seed=7) as pool_session:
        for view in scenario.views:
            pool_session.register_view(view)
        pool_session.rewrite(scenario.queries["kept_revenue"])
        forks_after_first = pool_session.stats().pool_forks
        pool_session.rewrite(scenario.queries["total_revenue"])
        pool_session.rewrite(scenario.queries["premium_revenue"])
        pool_session.rewrite(scenario.queries["kept_revenue"])  # cache hit
        forks_after_repeats = pool_session.stats().pool_forks

    return {
        "quick": quick,
        "queries": len(full_catalog),
        "cells": len(scratch_results),
        "delta_cells": delta_cells,
        "warm_wall": warm_wall,
        "incremental_wall": incremental_wall,
        "scratch_wall": scratch_wall,
        "speedup": scratch_wall / incremental_wall,
        "forks_after_first": forks_after_first,
        "forks_after_repeats": forks_after_repeats,
    }


def _render(result: dict) -> list[str]:
    mode = "quick" if result["quick"] else "full"
    return [
        f"[E13:{mode}] catalog: {result['queries']} queries, {result['cells']} cells; "
        f"adding one query decided {result['delta_cells']} delta cell(s)",
        f"[E13:{mode}] from-scratch matrix {result['scratch_wall']:.2f}s -> warmed "
        f"session re-query {result['incremental_wall']:.2f}s "
        f"({result['speedup']:.1f}x, floor {_floor(result['quick'])}x); "
        f"initial session warm-up {result['warm_wall']:.2f}s",
        f"[E13:{mode}] persistent pool: {result['forks_after_first']} fork(s) after the "
        f"first rewrite, {result['forks_after_repeats']} after repeats",
    ]


def test_session_reuse_speedup(report_lines):
    result = run_benchmark(QUICK)
    report_lines.extend(_render(result))
    assert result["delta_cells"] == result["queries"] - 1
    assert result["forks_after_repeats"] <= 1
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"incremental session speedup {result['speedup']:.2f}x "
        f"below the {SPEEDUP_FLOOR}x floor"
    )


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small catalog + relaxed floor (CI smoke)"
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
                json_record("session_reuse.scratch_matrix", result["scratch_wall"], 1.0),
                json_record(
                    "session_reuse.incremental_requery",
                    result["incremental_wall"],
                    result["speedup"],
                ),
                json_record("session_reuse.session_warmup", result["warm_wall"], None),
            ],
        )
        print(f"(json records written to {arguments.json})")
    if result["forks_after_repeats"] > 1:
        print("FAIL: repeated rewrite() calls forked a new pool")
        return 1
    if result["speedup"] < floor:
        print(f"FAIL: speedup {result['speedup']:.2f}x below the {floor}x floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
