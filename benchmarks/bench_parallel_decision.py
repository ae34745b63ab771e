"""Experiment E10 — the parallel decision subsystem on the warehouse catalog.

This benchmark drives the decision workload an optimizer would run over the
warehouse catalog, through the parallel decision subsystem
(:mod:`repro.parallel`):

* the **bounded rewriting audit** — a literal-reordered rewriting of a
  returns-audit query over the warehouse vocabulary, decided by the full
  Theorem 4.8 procedure serially and with ``workers=2`` / ``workers=4``, and
* the **equivalence matrix** over the analyst catalog (extended with the
  pinned-sum/count pair the ROADMAP names), where the sum→count
  normalization settles the previously UNKNOWN cell syntactically.

The gates are deterministic, so they hold on any machine:

* the audit pair is equivalent, so every run sweeps the whole space: the
  canonical subsets examined plus the orbit duplicates never generated must
  add up to ``2**|BASE|``, with a nonzero number of duplicates skipped, for
  the serial run and every worker count alike;
* the parallel matrix must agree cell by cell with the serial matrix, and
  the pinned-sum cell must settle EQUIVALENT.

Wall times and worker scaling are reported, not asserted (CI boxes may have
a single core).

Run under pytest (``pytest benchmarks/bench_parallel_decision.py``) or
standalone (``python benchmarks/bench_parallel_decision.py [--quick]``).
``REPRO_BENCH_QUICK=1`` selects quick mode under pytest.
"""

from __future__ import annotations

import os
import time

from repro import parse_query
from repro.core.bounded import bounded_equivalence, build_base
from repro.engine import clear_evaluation_caches, clear_symbolic_caches
from repro.engine.symbolic import symbolic_cache_stats
from repro.workloads import build_warehouse, equivalence_matrix

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Workers used for the headline measurement.
WORKERS = 4


def _rewriting_audit_pair(quick: bool):
    """An equivalent literal-reordered rewriting over the warehouse
    vocabulary (equivalent pairs force the procedure to sweep the entire
    space, which is the expensive case).  Quick mode drops one predicate to
    shrink |BASE|."""
    if quick:
        first = parse_query("audit(count()) :- returns(s, p), premium_store(s)")
        second = parse_query("audit(count()) :- premium_store(s), returns(s, p)")
    else:
        first = parse_query(
            "audit(count()) :- returns(s, p), premium_store(s), not discontinued(p)"
        )
        second = parse_query(
            "audit(count()) :- premium_store(s), returns(s, p), not discontinued(p)"
        )
    return first, second, 3


def _catalog():
    """The warehouse analyst catalog, extended with the ROADMAP's pinned-sum
    pair (``sum`` over a variable pinned to 1 vs ``count``)."""
    warehouse = build_warehouse()
    catalog = dict(warehouse.queries)
    catalog["unit_sales_per_store"] = parse_query(
        "units(s, sum(u)) :- sales(s, p, a), u = 1"
    )
    catalog["sales_count_per_store"] = parse_query(
        "units(s, count()) :- sales(s, p, a)"
    )
    return catalog


def _cold() -> None:
    clear_symbolic_caches()
    clear_evaluation_caches()


def _timed(callable_):
    _cold()
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def _check_full_sweep(report, base_size: int, label: str) -> None:
    """An equivalent pair is swept completely: every subset of BASE is either
    examined (one canonical representative per orbit) or skipped as an orbit
    duplicate."""
    assert report.equivalent, label
    total = report.subsets_examined + report.subsets_skipped_by_symmetry
    assert total == 2**base_size, (label, total, 2**base_size)
    assert report.subsets_skipped_by_symmetry > 0, label


def run_benchmark(quick: bool) -> dict:
    first, second, bound = _rewriting_audit_pair(quick)
    _, base, _ = build_base(first, second, bound)
    catalog = _catalog()

    # --- the bounded audit across worker counts ------------------------
    # Parallel runs are measured first, while the process heap is small:
    # forked workers inherit the parent heap copy-on-write, so a heap
    # bloated by earlier measurements would tax exactly the runs that fork.
    # Every measurement is cold-cache regardless of order.
    scaling: dict[int, float] = {}
    for workers in (WORKERS, 2):
        elapsed, report = _timed(
            lambda workers=workers: bounded_equivalence(
                first, second, bound, workers=workers
            )
        )
        _check_full_sweep(report, len(base), f"workers={workers}")
        scaling[workers] = elapsed
    parallel_bounded = scaling[WORKERS]

    parallel_matrix, parallel_results = _timed(
        lambda: equivalence_matrix(catalog, workers=WORKERS)
    )

    serial_bounded, serial_report = _timed(
        lambda: bounded_equivalence(first, second, bound, workers=1)
    )
    _check_full_sweep(serial_report, len(base), "workers=1")
    gamma_stats = symbolic_cache_stats()
    # The serial audit sweep builds its group indexes through the shared
    # table; a zero here means the sweep stopped asking for them.
    assert gamma_stats["shared_misses"] > 0, gamma_stats
    scaling[1] = serial_bounded

    # --- matrix parity against the serial matrix ----------------------
    serial_matrix, serial_results = _timed(lambda: equivalence_matrix(catalog, workers=1))
    assert serial_results.keys() == parallel_results.keys()
    for pair, serial_cell in serial_results.items():
        assert serial_cell.verdict is parallel_results[pair].verdict, pair
        assert serial_cell.method == parallel_results[pair].method, pair

    normalized_cell = parallel_results[
        ("sales_count_per_store", "unit_sales_per_store")
    ]
    return {
        "quick": quick,
        "bound": bound,
        "base_size": len(base),
        "serial_bounded": serial_bounded,
        "parallel_bounded": parallel_bounded,
        "serial_matrix": serial_matrix,
        "parallel_matrix": parallel_matrix,
        "scaling": scaling,
        "speedup_bounded": serial_bounded / parallel_bounded,
        "speedup_matrix": serial_matrix / parallel_matrix,
        "subsets_examined": serial_report.subsets_examined,
        "subsets_skipped": serial_report.subsets_skipped_by_symmetry,
        "gamma_misses": gamma_stats["shared_misses"],
        "orderings_examined": serial_report.orderings_examined,
        "normalized_verdict": normalized_cell.verdict.value,
        "normalized_method": normalized_cell.method,
    }


def _render(result: dict) -> list[str]:
    mode = "quick" if result["quick"] else "full"
    scaling = ", ".join(
        f"{workers}w={elapsed:.2f}s" for workers, elapsed in sorted(result["scaling"].items())
    )
    return [
        f"[E10:{mode}] bounded audit (N={result['bound']}, |BASE|={result['base_size']}): "
        f"serial {result['serial_bounded']:.2f}s -> {WORKERS} workers "
        f"{result['parallel_bounded']:.2f}s ({result['speedup_bounded']:.1f}x; "
        f"{result['subsets_examined']} canonical subsets + "
        f"{result['subsets_skipped']} orbit duplicates never generated "
        f"= 2^{result['base_size']}, {result['gamma_misses']} group-index computations for "
        f"{result['orderings_examined']} ordering checks)",
        f"[E10:{mode}] worker scaling: {scaling}",
        f"[E10:{mode}] catalog matrix: serial {result['serial_matrix']:.2f}s -> "
        f"{WORKERS} workers {result['parallel_matrix']:.2f}s "
        f"({result['speedup_matrix']:.1f}x); pinned-sum cell: "
        f"{result['normalized_verdict']} [{result['normalized_method']}]",
    ]


def test_parallel_decision_work_and_parity(report_lines):
    result = run_benchmark(QUICK)
    report_lines.extend(_render(result))
    assert result["normalized_verdict"] == "equivalent"


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small instance (CI smoke)")
    parser.add_argument(
        "--json", metavar="PATH", help="write {name, wall_s, speedup} records to PATH"
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
                json_record("parallel_decision.bounded_serial", result["serial_bounded"], 1.0),
                json_record(
                    "parallel_decision.bounded_parallel",
                    result["parallel_bounded"],
                    result["speedup_bounded"],
                ),
                json_record("parallel_decision.matrix_serial", result["serial_matrix"], 1.0),
                json_record(
                    "parallel_decision.matrix_parallel",
                    result["parallel_matrix"],
                    result["speedup_matrix"],
                ),
            ],
        )
        print(f"(json records written to {arguments.json})")
    if result["normalized_verdict"] != "equivalent":
        print(f"FAIL: pinned-sum cell settled {result['normalized_verdict']}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
