"""Fuzzing the catalog sweep against the per-pair reference.

Each catalog is a few generated queries (``QueryGenerator`` over ``p/2`` and
``r/1``) plus a variable-renamed copy of each, so every catalog holds
equivalent as well as non-equivalent cells.  The oracles:

* ``equivalence_matrix(workers=1)`` equals the per-pair reference (every
  cell one pair task through ``are_equivalent``) on verdict, method,
  details and witness database;
* every NOT_EQUIVALENT witness database re-checks under the naive engine;
* a catalog whose search space exceeds the budget raises
  ``SearchSpaceBudgetError`` on both sides.

The seeds are fixed, so the slice is deterministic.  Seed 2 is left out:
its ``max`` catalog alone takes about 4 s on a 2-core machine.
"""

from __future__ import annotations

import pytest

from repro.engine import evaluate
from repro.engine.modes import engine_scope
from repro.errors import SearchSpaceBudgetError
from repro.parallel.executor import default_workers
from repro.workloads import QueryGenerator, QueryProfile, equivalence_matrix
from repro.workloads.generators import renamed_copy
from test_sweep import _assert_cells_match, _pairwise_matrix

#: Subset budget of both sides: BASEs of up to 12 atoms, so pairs with up
#: to three terms are searched and larger ones raise.
MAX_SUBSETS = 2**12
#: Witness-search trials per cell, on both sides.
TRIALS = 40

PROFILES = {
    "count": {"aggregation_function": "count", "max_comparisons": 0},
    "sum": {"aggregation_function": "sum", "max_comparisons": 0},
    "max": {"aggregation_function": "max", "max_comparisons": 1},
    "plain": {"aggregation_function": None, "max_comparisons": 0},
}


def generated_catalog(profile_name: str, seed: int, size: int = 2) -> dict:
    profile = QueryProfile(
        predicates={"p": 2, "r": 1},
        constants=(1,),
        max_positive_atoms=2,
        **PROFILES[profile_name],
    )
    generator = QueryGenerator(profile, seed=seed)
    catalog = {}
    for index in range(size):
        query = generator.query(f"g{index}")
        catalog[f"g{index}"] = query
        catalog[f"g{index}_c"] = renamed_copy(query)
    return catalog


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
    with engine_scope("naive"):
        for (name_a, name_b), result in swept.items():
            witness = result.counterexample
            if witness is None or witness.database is None:
                continue
            assert evaluate(catalog[name_a], witness.database) != evaluate(
                catalog[name_b], witness.database
            ), (name_a, name_b)
