"""Experiment E15 — the persistent verdict store vs cold re-decision.

The verdict store (:mod:`repro.store`) exists so settled verdicts outlive
the process that paid for them: a restart against the same
``REPRO_STORE_PATH`` should *serve* the whole matrix — canonical-key
lookups, witness revalidation, zero sweep enumerations — instead of
re-running the decision procedures.  This benchmark measures exactly that
on the rewriting-audit catalog of E11 (28 queries at full scale):

1. **cold** — a workspace decides the full catalog against a fresh
   disk-backed store (every cell goes through the sweeps) and the per-cell
   verdicts/methods are recorded,
2. every in-process cache is dropped (the canonical-key LRU and the store
   singleton included) to simulate a restart,
3. **warm** — a brand-new workspace over a brand-new store instance on the
   *same file* re-asks for the matrix: every cell must settle from the
   store with cell-for-cell verdict/method parity — NOT_EQUIVALENT cells
   passing witness revalidation — and the wall clock must beat the cold
   run by the acceptance floor (ISSUE 10 demands >= 10x at full scale).

Steps 1-3 repeat :data:`REPEATS` times, each cold run on a fresh store file
and each restart right after it, so the two sides alternate and machine
drift reaches both; each side's wall is the median of its runs.  The quick
catalog's walls are 5-30 milliseconds, and one slow run must not decide
the gate.

The ``--phase cold|warm`` CLI mode splits the two runs across *real*
processes for the CI restart smoke: ``cold`` writes the store and a state
file of expected cells; ``warm`` (a fresh interpreter) replays against the
same store and asserts parity plus ``store.disk.hits > 0``.

Run under pytest (``pytest benchmarks/bench_verdict_store.py``) or
standalone (``python benchmarks/bench_verdict_store.py [--quick]
[--json PATH]``).  ``REPRO_BENCH_QUICK=1`` selects quick mode under pytest.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_catalog_sweep import build_audit_catalog  # noqa: E402

from repro import Workspace  # noqa: E402
from repro.caches import run_registered_clears  # noqa: E402
from repro.engine import clear_evaluation_caches, clear_symbolic_caches  # noqa: E402
from repro.obs import REGISTRY  # noqa: E402
from repro.store import VerdictStore  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _floor(quick: bool) -> float:
    """Acceptance floor for the warm-restart speedup (ISSUE 10 demands
    >= 10x at full scale; the quick catalog decides so little that the
    store's fixed costs weigh more, so CI smoke keeps a cushion)."""
    return 3.0 if quick else 10.0


SPEEDUP_FLOOR = _floor(QUICK)

#: Cold/restart pairs per run; each side's wall is the median of its runs.
REPEATS = 15


def _cold() -> None:
    """Drop every in-process cache a restart would lose: the engine's
    symbolic/evaluation caches and the service-scoped ones (canonical-key
    LRU, store singleton)."""
    clear_symbolic_caches()
    clear_evaluation_caches()
    run_registered_clears("clear_service_caches")


def _cells(results: dict) -> dict:
    return {
        f"{pair[0]}|{pair[1]}": {"verdict": cell.verdict.value, "method": cell.method}
        for pair, cell in results.items()
    }


def _decide(catalog: dict, store_path: str, seed: int = 7):
    """One full matrix over a fresh store instance on ``store_path``;
    returns (results, stats, wall_seconds)."""
    with Workspace(workers=1, seed=seed, store=VerdictStore(store_path)) as workspace:
        for name, query in catalog.items():
            workspace.add(query, name=name)
        start = time.perf_counter()
        results = workspace.equivalences()
        wall = time.perf_counter() - start
        stats = workspace.stats()
    return results, stats, wall


def run_benchmark(quick: bool, store_dir: str) -> dict:
    cold_walls: list[float] = []
    warm_walls: list[float] = []
    for repeat in range(REPEATS):
        store_path = os.path.join(store_dir, f"verdicts-{repeat}.sqlite3")
        # Each side parses its own catalog, as a fresh process would: a
        # query keeps what it derived once (count form, keys), so a reused
        # catalog would make every cold run after the first a warm one.
        catalog = build_audit_catalog(quick)
        _cold()
        cold_results, cold_stats, cold_wall = _decide(catalog, store_path)
        assert cold_stats.store_hits == 0, "a fresh store served cells on the cold run"
        expected = _cells(cold_results)

        # Simulated restart: every in-process cache dropped, new store
        # instance over the same file, new workspace.
        catalog = build_audit_catalog(quick)
        _cold()
        revalidated_before = REGISTRY.get("store.witness.revalidated")
        warm_results, warm_stats, warm_wall = _decide(catalog, store_path)

        assert warm_results.keys() == cold_results.keys()
        for pair, cell in warm_results.items():
            assert cell.verdict is cold_results[pair].verdict, pair
            assert cell.method == cold_results[pair].method, pair
        assert warm_stats.decided_cells == 0, "the rerun re-decided cells"
        assert warm_stats.store_hits == len(warm_results), "cells settled outside the store"
        witnessed = REGISTRY.get("store.witness.revalidated") - revalidated_before
        cold_walls.append(cold_wall)
        warm_walls.append(warm_wall)

    cold_wall, warm_wall = statistics.median(cold_walls), statistics.median(warm_walls)
    return {
        "quick": quick,
        "queries": len(catalog),
        "cells": len(cold_results),
        "not_equivalent_cells": sum(
            1 for cell in expected.values() if cell["verdict"] == "not equivalent"
        ),
        "witnesses_revalidated": witnessed,
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
        "speedup": cold_wall / warm_wall,
    }


def _render(result: dict) -> list[str]:
    mode = "quick" if result["quick"] else "full"
    return [
        f"[E15:{mode}] catalog: {result['queries']} queries, {result['cells']} cells "
        f"({result['not_equivalent_cells']} NOT_EQUIVALENT); restart revalidated "
        f"{result['witnesses_revalidated']} stored witness(es)",
        f"[E15:{mode}] median of {REPEATS}: cold decision {result['cold_wall']:.3f}s -> "
        f"store-served restart {result['warm_wall']:.3f}s ({result['speedup']:.1f}x, floor "
        f"{_floor(result['quick'])}x)",
    ]


def test_verdict_store_restart_round_trip(report_lines, tmp_path):
    result = run_benchmark(QUICK, str(tmp_path))
    report_lines.extend(_render(result))
    assert result["witnesses_revalidated"] >= result["not_equivalent_cells"]
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"store-served restart speedup {result['speedup']:.2f}x "
        f"below the {SPEEDUP_FLOOR}x floor"
    )


# ----------------------------------------------------------------------
# Cross-process phases (the CI restart smoke)
# ----------------------------------------------------------------------
def run_cold_phase(quick: bool, store_path: str, state_path: str) -> int:
    catalog = build_audit_catalog(quick)
    results, stats, wall = _decide(catalog, store_path)
    with open(state_path, "w", encoding="utf-8") as handle:
        json.dump({"cells": _cells(results), "wall": wall}, handle)
    print(
        f"cold: decided {stats.decided_cells} cell(s) in {wall:.2f}s; "
        f"store at {store_path}, state at {state_path}"
    )
    return 0


def run_warm_phase(quick: bool, store_path: str, state_path: str) -> int:
    with open(state_path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    catalog = build_audit_catalog(quick)
    results, stats, wall = _decide(catalog, store_path)
    actual = _cells(results)
    if actual != state["cells"]:
        print("FAIL: restart matrix differs from the recorded cold run")
        return 1
    if stats.decided_cells != 0:
        print(f"FAIL: restart re-decided {stats.decided_cells} cell(s)")
        return 1
    disk_hits = REGISTRY.get("store.disk.hits")
    if disk_hits <= 0:
        print("FAIL: restart never hit the disk store")
        return 1
    print(
        f"warm: {stats.store_hits} cell(s) served from the store in {wall:.3f}s "
        f"({disk_hits} disk hit(s)); parity with the cold run confirmed"
    )
    return 0


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small catalog + relaxed floor (CI smoke)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write {name, wall_s, speedup} records to PATH"
    )
    parser.add_argument(
        "--phase",
        choices=("cold", "warm"),
        help="run one half of the cross-process restart smoke instead of the "
        "in-process benchmark (requires --store and --state)",
    )
    parser.add_argument("--store", metavar="PATH", help="store file for --phase runs")
    parser.add_argument(
        "--state", metavar="PATH", help="expected-cells JSON file for --phase runs"
    )
    arguments = parser.parse_args()
    quick = arguments.quick or QUICK

    if arguments.phase:
        if not arguments.store or not arguments.state:
            parser.error("--phase requires --store and --state")
        if arguments.phase == "cold":
            return run_cold_phase(quick, arguments.store, arguments.state)
        return run_warm_phase(quick, arguments.store, arguments.state)

    floor = _floor(quick)
    with tempfile.TemporaryDirectory() as store_dir:
        result = run_benchmark(quick, store_dir)
    for line in _render(result):
        print(line)
    if arguments.json:
        from _jsonlog import json_record, write_json_records

        write_json_records(
            arguments.json,
            [
                json_record("verdict_store.cold_decision", result["cold_wall"], 1.0),
                json_record(
                    "verdict_store.store_served_restart",
                    result["warm_wall"],
                    result["speedup"],
                ),
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
