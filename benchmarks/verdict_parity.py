"""Verdict parity between this checkout and another checkout of the repository.

Decides a fixed set of comparisons with this checkout's ``src/`` and with the
other checkout's, each in a fresh interpreter, and lists every comparison
whose verdict, method, details, witness database or witness results (the
``repr`` of each side's answer on the witness) differ:

* the seeded 28-query audit catalog of ``perfbench/catalog.py`` (378 cells)
  at seeds 1-3, through a cold ``Workspace(workers=1, store=False)``;
* the warehouse catalog's ``equivalence_matrix``, and each of its same-shape
  cells decided alone by ``are_equivalent``;
* ``bounded_equivalence`` on the ``DIFFERENTIAL_PAIRS`` of
  ``parity_inputs.py`` (which ``tests/test_parallel.py`` decides) at seeds
  0 and 5;
* ``parity_inputs.generated_catalog`` (the catalogs of the fuzz oracle
  ``tests/fuzz/test_sweep_oracle.py``) for every profile at the oracle's
  seeds 0, 1, 3 and 4, through
  ``equivalence_matrix`` — renamed members, equivalent members that are not
  renamings, and comparison-carrying classes side by side (a catalog over
  the oracle's subset budget is recorded as such);
* the staged ``g4``/``g1`` then ``g0`` sum session of
  ``tests/test_session.py`` and the count catalog of
  ``test_cells_keep_their_own_bound_in_a_wider_catalog`` in
  ``tests/test_sweep.py``, whose cells a catalog-wide BASE would change;
* the six reports of ``build_view_scenario(stores=40, products=25,
  sales_per_store=600, seed=1)`` rewritten and ranked through a cold
  ``Workspace(workers=1, store=False)`` with ``database=``: per report its
  direct cost and, in report order, each verified candidate's bucket, name,
  verdict, method and estimated cost.

Usage::

    python benchmarks/verdict_parity.py --against /path/to/other/checkout

The comparison inputs always come from this checkout, so the two sides decide
the same catalogs; they import no test module, so the comparison needs no
test dependency, and only ``repro`` names every checkout has.  Exits 1 when
any comparison differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _witness(counterexample) -> object:
    if counterexample is None:
        return None
    results = [repr(counterexample.left_result), repr(counterexample.right_result)]
    if counterexample.database is None:
        return ["symbolic", *results]
    return [repr(fact) for fact in counterexample.database.to_sorted_facts()] + results


def _cell(result) -> list:
    return [result.verdict.value, result.method, result.details, _witness(result.counterexample)]


def _dump() -> dict[str, list]:
    """Decide every comparison with the ``repro`` on ``sys.path``."""
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "benchmarks")]
    from catalog import audit_catalog
    from parity_inputs import DIFFERENTIAL_PAIRS, MAX_SUBSETS, PROFILES, TRIALS, generated_catalog

    from repro import Workspace, are_equivalent, parse_query
    from repro.core.bounded import bounded_equivalence
    from repro.engine import clear_evaluation_caches, clear_symbolic_caches
    from repro.errors import SearchSpaceBudgetError
    from repro.parallel.tasks import derive_pair_seed
    from repro.workloads import build_view_scenario, build_warehouse, equivalence_matrix

    def cold() -> None:
        clear_symbolic_caches()
        clear_evaluation_caches()

    cells: dict[str, list] = {}
    for seed in (1, 2, 3):
        cold()
        workspace = Workspace(workers=1, store=False)
        for name, (text, _class) in audit_catalog(seed).items():
            workspace.add(text, name=name)
        for pair, result in workspace.equivalences().items():
            cells[f"audit/{seed}/{pair}"] = _cell(result)
    queries = build_warehouse().queries
    cold()
    matrix = equivalence_matrix(queries, workers=1, seed=5)
    for pair, result in matrix.items():
        cells[f"warehouse/matrix/{pair}"] = _cell(result)
    cold()
    for name_a, name_b in matrix:
        first, second = queries[name_a], queries[name_b]
        if first.is_aggregate == second.is_aggregate:
            result = are_equivalent(first, second, seed=derive_pair_seed(5, name_a, name_b))
            cells[f"warehouse/pair/{(name_a, name_b)}"] = _cell(result)
    for seed in (0, 5):
        for index, (first, second, bound, semantics) in enumerate(DIFFERENTIAL_PAIRS):
            cold()
            report = bounded_equivalence(
                parse_query(first), parse_query(second), bound,
                semantics=semantics or "set", workers=1, seed=seed,
            )
            cells[f"bounded/{seed}/{index}"] = [report.equivalent, _witness(report.counterexample)]
    for profile in sorted(PROFILES):
        for seed in (0, 1, 3, 4):
            cold()
            catalog = generated_catalog(profile, seed)
            try:
                generated = equivalence_matrix(
                    catalog, workers=1, seed=seed, max_subsets=MAX_SUBSETS,
                    counterexample_trials=TRIALS,
                )
            except SearchSpaceBudgetError:
                cells[f"generated/{profile}/{seed}"] = ["over budget"]
                continue
            for pair, result in generated.items():
                cells[f"generated/{profile}/{seed}/{pair}"] = _cell(result)
    cold()
    staged = Workspace(workers=1, seed=7, store=False)
    staged.add("g4(x0, sum(y0)) :- p(x0, y0)", name="g4")
    staged.add("g1(x0, sum(y0)) :- r(x0), r(y0)", name="g1")
    staged.equivalences()
    staged.add("g0(x0, sum(y0)) :- r(x0), p(y0, 1)", name="g0")
    for pair, result in staged.equivalences().items():
        cells[f"staged/{pair}"] = _cell(result)
    staged.close()
    cold()
    own_bound = {
        "g0": "g0(x0, count()) :- r(x0), not r(x0) ; p(x0, x0), not p(x0, x0)",
        "g1": "g1(x0, count()) :- r(x0), not r(x0) ; p(x0, x0), p(z0, x0), not r(x0)",
        "g2": "g2(x0, count()) :- p(x0, x0), not p(x0, x0)",
        "g4": "g4(x0, count()) :- r(x0), p(0, x0)",
    }
    catalog = {name: parse_query(text) for name, text in own_bound.items()}
    for pair, result in equivalence_matrix(catalog, workers=1, seed=1).items():
        cells[f"own-bound/{pair}"] = _cell(result)
    cold()
    scenario = build_view_scenario(stores=40, products=25, sales_per_store=600, seed=1)
    with Workspace(workers=1, store=False) as rewriting:
        for view in scenario.views:
            rewriting.register_view(view)
        for name, query in scenario.queries.items():
            report = rewriting.rewrite(query, database=scenario.database)
            cells[f"rewrite/{name}"] = [report.direct_cost] + [
                [bucket, verified.candidate.name, verified.result.verdict.value,
                 verified.result.method, verified.estimated_cost]
                for bucket in ("safe", "not_equivalent", "unverified")
                for verified in getattr(report, bucket)
            ]
    return cells


def _decide_with(checkout: str) -> dict[str, list]:
    environment = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    environment["PYTHONPATH"] = os.path.join(checkout, "src")
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump"],
        env=environment, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(output.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="CHECKOUT", help="the other checkout's root")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    arguments = parser.parse_args()
    if arguments.dump:
        print(json.dumps(_dump()))
        return 0
    if not arguments.against:
        parser.error("--against is required")
    ours, theirs = _decide_with(ROOT), _decide_with(os.path.abspath(arguments.against))
    differing = sorted(key for key in ours.keys() | theirs.keys() if ours.get(key) != theirs.get(key))
    for key in differing:
        print(f"DIFFERS {key}: {theirs.get(key)!r} -> {ours.get(key)!r}")
    print(f"{len(ours) - len(differing)} of {len(ours)} comparisons match")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
