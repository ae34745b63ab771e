"""Counterexample search: the brute-force baseline.

The decision procedures of the paper are complete but expensive; a
complementary (and much cheaper) way to establish *non*-equivalence is to find
a concrete database on which the two queries disagree.  This module implements

* a random-database generator parameterized by the predicates of the queries,
* :func:`find_counterexample` — randomized search for a distinguishing
  database, and
* :func:`exhaustive_counterexample` — exhaustive search over all databases
  built from a fixed value pool (the concrete analogue of the BASE subsets of
  Theorem 4.8), which doubles as the oracle the tests compare the decision
  procedures against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from ..datalog.database import Database
from ..datalog.queries import Query, combined_predicate_arities
from ..domains import Domain, NumericValue
from ..engine.evaluator import evaluate, evaluate_bag_set
from ..errors import UnsupportedAggregateError

#: Semantics under which the brute-force search compares non-aggregate
#: queries: answer sets, or answers with their multiplicities.
SET_SEMANTICS = "set"
BAG_SET_SEMANTICS = "bag-set"


def value_pool(
    first: Query, second: Query, domain: Domain, extra: Iterable[NumericValue] = ()
) -> list[NumericValue]:
    """A small pool of constants to draw database values from: the constants
    of the queries, their neighbours, a few small integers and (over Q) a few
    fractions."""
    values: set[NumericValue] = {0, 1, 2, -1}
    for constant in first.constants() | second.constants():
        base = constant.value
        values.add(base)
        if isinstance(base, int):
            values.add(base + 1)
            values.add(base - 1)
    if domain.is_dense:
        values.add(Fraction(1, 2))
        values.add(Fraction(3, 2))
    values.update(extra)
    return sorted(values, key=Fraction)


def random_database(
    arities: dict[str, int],
    values: Sequence[NumericValue],
    rng: random.Random,
    max_facts: int = 8,
) -> Database:
    """A random database over the given predicates and value pool."""
    facts = []
    for _ in range(rng.randint(0, max_facts)):
        predicate = rng.choice(sorted(arities))
        arity = arities[predicate]
        row = tuple(rng.choice(values) for _ in range(arity))
        facts.append((predicate, row))
    return Database(facts)


def _results_differ(first: Query, second: Query, database: Database, semantics: str) -> bool:
    if first.is_aggregate != second.is_aggregate:
        raise UnsupportedAggregateError(
            "cannot compare an aggregate query with a non-aggregate query"
        )
    if first.is_aggregate or semantics == SET_SEMANTICS:
        return evaluate(first, database) != evaluate(second, database)
    return evaluate_bag_set(first, database) != evaluate_bag_set(second, database)


#: Default seed of the randomized witness search (kept fixed so results are
#: reproducible even when no explicit seed is supplied).
DEFAULT_SEARCH_SEED = 2001

#: Default number of random databases the witness search tries.
DEFAULT_COUNTEREXAMPLE_TRIALS = 400


def find_counterexample(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    rng: Optional[random.Random] = None,
    trials: int = DEFAULT_COUNTEREXAMPLE_TRIALS,
    max_facts: int = 8,
    semantics: str = SET_SEMANTICS,
    extra_values: Iterable[NumericValue] = (),
    seed: Optional[int] = None,
) -> Optional[Database]:
    """Randomized search for a database distinguishing the two queries.

    Returns a witnessing database, or ``None`` when none was found within the
    given number of trials (which is *not* a proof of equivalence).  The
    search draws from a private ``random.Random``: pass ``seed`` (or a whole
    ``rng``) to control it; either way, results do not depend on process or
    worker scheduling.
    """
    if rng is None:
        rng = random.Random(DEFAULT_SEARCH_SEED if seed is None else seed)
    arities = combined_predicate_arities(first, second)
    if not arities:
        database = Database(())
        return database if _results_differ(first, second, database, semantics) else None
    values = value_pool(first, second, domain, extra_values)
    for _ in range(trials):
        database = random_database(arities, values, rng, max_facts)
        database.check_domain(domain)
        if _results_differ(first, second, database, semantics):
            return database
    return None


def enumerate_databases(
    arities: dict[str, int],
    values: Sequence[NumericValue],
    max_facts: Optional[int] = None,
) -> Iterator[Database]:
    """Every database over the predicates whose facts draw values from the
    pool — the concrete analogue of enumerating subsets of BASE."""
    universe = []
    for predicate in sorted(arities):
        arity = arities[predicate]
        for row in itertools.product(values, repeat=arity):
            universe.append((predicate, row))
    limit = len(universe) if max_facts is None else min(max_facts, len(universe))
    for size in range(limit + 1):
        for combination in itertools.combinations(universe, size):
            yield Database(combination)


def exhaustive_counterexample(
    first: Query,
    second: Query,
    values: Sequence[NumericValue],
    max_facts: Optional[int] = None,
    semantics: str = SET_SEMANTICS,
) -> Optional[Database]:
    """Exhaustive search over all databases built from the value pool.

    Used as a ground-truth oracle for the decision procedures on small
    instances: if the queries agree on every database over a pool at least as
    large as τ(q, q'), the procedures must report equivalence over that pool
    size as well.
    """
    arities = combined_predicate_arities(first, second)
    if not arities:
        database = Database(())
        return database if _results_differ(first, second, database, semantics) else None
    for database in enumerate_databases(arities, values, max_facts):
        if _results_differ(first, second, database, semantics):
            return database
    return None
