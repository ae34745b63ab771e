"""Fuzzing the verdict store's key against the equivalence it stands for.

The store serves one settled verdict to every pair with the same canonical
pair key, so equal ``store.canon.canonical_hash`` must mean equivalent
queries: reduction and canonical naming only ever rewrite a query into an
equivalent one.  Queries come from ``QueryGenerator`` (negation, one
comparison, up to two disjuncts); each gets the variants that are
isomorphic by construction (renamed, shuffled, duplicated-literal and
flipped-comparison copies, and all of these at once) and its one-literal
near misses (a negation dropped or a comparison negated); only queries
whose decision searches at most ``MAX_SUBSETS`` subsets are drawn, so the
slice stays fast.  All of them are
grouped by hash, and within each group every query is checked against the
group's first one (equivalence is transitive, so that covers every pair):

* ``are_equivalent`` decides EQUIVALENT — a NOT_EQUIVALENT would be an
  unsound store hit, an UNKNOWN a hit the decision procedures cannot back;
* ``naive_evaluate``, the reference semantics, gives equal results on
  seeded random databases.

A differing hash is only a store miss, so pairs across groups are not
checked.  The seeds are fixed and no hypothesis strategy runs, so the slice
is deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro.core.equivalence import Verdict, are_equivalent, route_pair
from repro.datalog.queries import Query
from repro.engine import naive_evaluate
from repro.obs import REGISTRY
from repro.store import canonical_hash
from repro.workloads import QueryGenerator, QueryProfile
from test_evaluation_key_oracle import _near_misses, _variants

PROFILES = {
    "count": QueryProfile(
        predicates={"p": 2, "r": 1},
        constants=(1,),
        aggregation_function="count",
        max_positive_atoms=2,
        max_comparisons=1,
        comparison_operators=("<", "<=", "!=", "="),
    ),
    "plain": QueryProfile(
        predicates={"p": 2, "r": 1},
        constants=(1,),
        aggregation_function=None,
        max_positive_atoms=2,
        max_comparisons=1,
        comparison_operators=(">", ">=", "="),
    ),
}
SEEDS = (0, 1, 2)
QUERIES_PER_SEED = 4
DATABASES = 6
#: Subset budget of every decision: BASEs of up to 8 atoms.
MAX_SUBSETS = 2**8


def _groups_by_hash(profile: QueryProfile) -> dict[str, list[Query]]:
    by_hash: dict[str, list[Query]] = {}
    for seed in SEEDS:
        generator = QueryGenerator(profile, seed=seed)
        rng = random.Random(seed)
        drawn = 0
        while drawn < QUERIES_PER_SEED:
            query = generator.query(f"g{drawn}")
            candidates = [query, *_variants(query, rng), *_near_misses(query)]
            if not all(
                route_pair(query, candidate, max_subsets=MAX_SUBSETS).fits(MAX_SUBSETS)
                for candidate in candidates
            ):
                continue
            drawn += 1
            for candidate in candidates:
                members = by_hash.setdefault(canonical_hash(candidate), [])
                if candidate not in members:
                    members.append(candidate)
    return by_hash


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
def test_equal_store_keys_mean_equivalent_queries(profile_name):
    profile = PROFILES[profile_name]
    bailouts_before = REGISTRY.get("store.canon.tie_bailouts")
    groups = _groups_by_hash(profile)
    bailouts = REGISTRY.get("store.canon.tie_bailouts") - bailouts_before
    databases = QueryGenerator(profile, seed=SEEDS[0])
    pairs = 0
    undecided: list[tuple[Query, Query, str]] = []
    unsound: list[tuple[Query, Query, str]] = []
    for reference, *others in groups.values():
        for other in others:
            pairs += 1
            result = are_equivalent(reference, other, max_subsets=MAX_SUBSETS, seed=pairs)
            if result.verdict is Verdict.UNKNOWN:
                undecided.append((reference, other, result.method))
            elif result.verdict is not Verdict.EQUIVALENT:
                unsound.append((reference, other, result.method))
        for _ in range(DATABASES):
            database = databases.database(max_facts=8)
            expected = naive_evaluate(reference, database)
            for other in others:
                assert naive_evaluate(other, database) == expected, (reference, other, database)
    summary = (
        f"{pairs} equal-hash pair(s) in {len(groups)} group(s): "
        f"{len(unsound)} not equivalent, {len(undecided)} UNKNOWN; "
        f"store.canon.tie_bailouts={bailouts}"
    )
    assert pairs > 0, summary
    assert not unsound and not undecided, (summary, unsound, undecided)
