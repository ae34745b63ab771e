"""Fuzzing the catalog sweep against the per-pair reference.

Each catalog is a few generated queries (``QueryGenerator`` over ``p/2`` and
``r/1``) plus a variable-renamed copy of each, so every catalog holds
equivalent as well as non-equivalent cells.  The oracles:

* ``equivalence_matrix(workers=1)`` equals the per-pair reference (every
  cell one pair task through ``are_equivalent``) on verdict, method,
  details and witness database;
* every NOT_EQUIVALENT witness database re-checks under the naive reference;
* a catalog whose search space exceeds the budget raises
  ``SearchSpaceBudgetError`` on both sides.

The catalogs and budgets come from ``benchmarks/parity_inputs.py``, which
``benchmarks/verdict_parity.py`` also reads.  The seeds are fixed, so the
slice is deterministic.  Seed 2 is left out:
its ``max`` catalog alone takes about 4 s on a 2-core machine.
"""

from __future__ import annotations

import pytest

from parity_inputs import MAX_SUBSETS, PROFILES, TRIALS, generated_catalog
from repro.engine import naive_evaluate
from repro.errors import SearchSpaceBudgetError
from repro.parallel.executor import default_workers
from repro.workloads import equivalence_matrix
from test_sweep import _assert_cells_match, _pairwise_matrix


def _decide(decide):
    try:
        return decide()
    except SearchSpaceBudgetError:
        return None


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
@pytest.mark.parametrize("profile_name", sorted(PROFILES))
def test_sweep_matches_the_per_pair_reference(profile_name, seed):
    catalog = generated_catalog(profile_name, seed)
    swept = _decide(
        lambda: equivalence_matrix(
            catalog, workers=1, seed=seed, max_subsets=MAX_SUBSETS,
            counterexample_trials=TRIALS,
        )
    )
    pairwise = _decide(
        lambda: _pairwise_matrix(
            catalog, seed=seed, counterexample_trials=TRIALS, max_subsets=MAX_SUBSETS
        )
    )
    assert (swept is None) == (pairwise is None)
    if swept is None:
        return
    # Under REPRO_WORKERS the reference's bounded searches run on a pool,
    # where early-exit races may pick a different, equally valid witness.
    _assert_cells_match(swept, pairwise, require_same_witness_db=default_workers() == 1)
    for (name_a, name_b), result in swept.items():
        witness = result.counterexample
        if witness is None or witness.database is None:
            continue
        assert naive_evaluate(catalog[name_a], witness.database) != naive_evaluate(
            catalog[name_b], witness.database
        ), (name_a, name_b)
