"""Comparison inputs shared by the tests and ``verdict_parity.py``.

``verdict_parity.py --against`` imports this module under another
checkout's ``src/``, so it imports only ``repro`` names that every checkout
of the repository has: add none without checking the oldest checkout the
comparison must still run against.

* ``DIFFERENTIAL_PAIRS``: the query pairs ``tests/test_parallel.py``
  decides serially and through a pool;
* ``generated_catalog`` with ``PROFILES``, ``MAX_SUBSETS`` and ``TRIALS``:
  the catalogs of the sweep fuzz oracle (``tests/fuzz/test_sweep_oracle.py``);
* ``audit_catalog``: the seeded 28-query catalog of the ``audit-matrix``
  benchmark workload, read from ``perfbench/catalog.py``.
"""

from __future__ import annotations

import importlib.util
import os

from repro.workloads import QueryGenerator, QueryProfile
from repro.workloads.generators import renamed_copy

#: ``(first, second, bound, semantics)``; ``None`` semantics is the
#: aggregate default.
DIFFERENTIAL_PAIRS = [
    ("q(count()) :- p(y), not r(y)", "q(count()) :- p(y)", 2, None),
    ("q(max(y)) :- p(y)", "q(max(y)) :- p(y) ; p(y)", 2, None),
    ("q(sum(y)) :- p(y)", "q(sum(y)) :- p(y) ; p(y)", 2, None),
    ("q(count()) :- p(y), p(z), y < z", "q(count()) :- p(y), p(z), y != z", 2, None),
    ("q(x) :- p(x, y)", "q(x) :- p(x, y), p(x, z)", 2, "set"),
    ("q(x) :- p(x, y)", "q(x) :- p(x, y), p(x, z)", 2, "bag-set"),
]

#: Subset budget of the generated catalogs: BASEs of up to 12 atoms, so
#: pairs with up to three terms are searched and larger ones raise.
MAX_SUBSETS = 2**12
#: Witness-search trials per cell.
TRIALS = 40

PROFILES = {
    "count": {"aggregation_function": "count", "max_comparisons": 0},
    "sum": {"aggregation_function": "sum", "max_comparisons": 0},
    "max": {"aggregation_function": "max", "max_comparisons": 1},
    "plain": {"aggregation_function": None, "max_comparisons": 0},
}


def generated_catalog(profile_name: str, seed: int, size: int = 2) -> dict:
    """``size`` generated queries over ``p/2`` and ``r/1``, each beside a
    variable-renamed copy of itself."""
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


def audit_catalog(seed: int) -> dict[str, tuple[str, str]]:
    """``{name: (datalog text, equivalence class)}``: the benchmark's
    seeded audit catalog (``perfbench/catalog.py``), loaded by path so that
    no ``perfbench`` module name enters ``sys.path``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "catalog.py")
    spec = importlib.util.spec_from_file_location("perfbench_catalog", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.audit_catalog(seed)
