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

A disk store also persists each recorded query's hash, so a restarted
process reads hashes instead of computing them.  The last slice writes a
store file over the same corpus (under both domains, plus pairs that are
equivalent over the integers only), re-opens it in a fresh interpreter with
another hash seed, and checks the groups of queries whose *persisted*
hashes are equal the same way, under the domain they were read for.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys

import pytest

import repro
from repro import Domain, parse_query
from repro.core.equivalence import EquivalenceResult, Verdict, are_equivalent, route_pair
from repro.datalog.database import Database
from repro.datalog.queries import Query
from repro.engine import naive_evaluate
from repro.obs import REGISTRY
from repro.store import VerdictStore, canonical_hash
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


#: Pairs whose hashes are equal over the integers (``0 < y < 2`` pins ``y``
#: to 1) but not over the rationals, where the queries are not equivalent:
#: a hash row read under the wrong domain would join them.
INTEGER_ONLY_PAIRS = (
    ("q(x, count()) :- p(x, y), y > 0, y < 2", "q(x, count()) :- p(x, 1)"),
    ("q(x, count()) :- r(x), 0 < x, x < 2", "q(x, count()) :- r(x), x = 1"),
)

def _within(domain: Domain, database: Database) -> Database:
    """The database's facts whose values all lie in ``domain``."""
    if domain is Domain.RATIONALS:
        return database
    return Database(
        [fact for fact in database.facts if all(isinstance(value, int) for value in fact.values)]
    )


#: What the fresh interpreter runs: open the store file, resolve every
#: query's hash under each domain, and report the persisted digests.
_READER = """
import json, pickle, sys
from repro import Domain
from repro.obs import REGISTRY
from repro.store import VerdictStore

with open(sys.argv[1], "rb") as handle:
    queries = pickle.load(handle)
store = VerdictStore(sys.argv[2])
report = {}
for domain in Domain:
    hashes = [store.query_hash(query, domain) for query in queries]
    report[domain.value] = [
        hashed.digest if hashed.unwritten_row is None else None for hashed in hashes
    ]
store.close()
report["canon_misses"] = REGISTRY.get("store.canon.misses")
print(json.dumps(report))
"""


def test_persisted_hashes_join_only_equivalent_queries_in_a_fresh_process(tmp_path):
    corpus: list[Query] = []
    for profile in PROFILES.values():
        for members in _groups_by_hash(profile).values():
            corpus.extend(members)
    for first, second in INTEGER_ONLY_PAIRS:
        corpus.extend((parse_query(first), parse_query(second)))
    store_path = str(tmp_path / "verdicts.sqlite3")
    writer = VerdictStore(store_path)
    # Integers first: a row key without the domain would then hand the
    # integer hashes to the rationals reader.
    for domain in (Domain.INTEGERS, Domain.RATIONALS):
        identical = EquivalenceResult(Verdict.EQUIVALENT, "identical queries", domain)
        for query in corpus:
            writer.record(query, query, domain, identical)
    writer.close()
    corpus_path = str(tmp_path / "corpus.pickle")
    with open(corpus_path, "wb") as handle:
        pickle.dump(corpus, handle)
    source = os.path.dirname(os.path.dirname(repro.__file__))
    environment = {**os.environ, "PYTHONPATH": source, "PYTHONHASHSEED": "4321"}
    environment.pop("REPRO_STORE_PATH", None)
    completed = subprocess.run(
        [sys.executable, "-c", _READER, corpus_path, store_path],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["canon_misses"] == 0, "the fresh process computed canonical forms"
    databases = QueryGenerator(PROFILES["count"], seed=SEEDS[0])
    joined_pairs = {}
    unsound: list[tuple[Query, Query, str, str]] = []
    for domain in (Domain.INTEGERS, Domain.RATIONALS):
        digests = report[domain.value]
        assert None not in digests, f"{digests.count(None)} hash(es) not persisted"
        groups: dict[str, list[Query]] = {}
        for query, digest in zip(corpus, digests):
            members = groups.setdefault(digest, [])
            if query not in members:
                members.append(query)
        pairs = 0
        for reference, *others in groups.values():
            for other in others:
                pairs += 1
                result = are_equivalent(
                    reference, other, domain, max_subsets=MAX_SUBSETS, seed=pairs
                )
                if result.verdict is not Verdict.EQUIVALENT:
                    unsound.append((reference, other, domain.value, result.method))
            for _ in range(DATABASES):
                database = _within(domain, databases.database(max_facts=8))
                expected = naive_evaluate(reference, database)
                for other in others:
                    assert naive_evaluate(other, database) == expected, (reference, other, database)
        joined_pairs[domain] = {
            pair
            for pair in INTEGER_ONLY_PAIRS
            if len({digests[corpus.index(parse_query(text))] for text in pair}) == 1
        }
        assert pairs > 0, domain
    assert not unsound, unsound
    # The slice exercises the domain in the key: the integer-only pairs
    # join under the integers and stay apart under the rationals.
    assert joined_pairs[Domain.INTEGERS] == set(INTEGER_ONLY_PAIRS)
    assert joined_pairs[Domain.RATIONALS] == set()
