"""Fuzzing set and bag-set evaluation across the real vector threshold.

On a store whose largest relation has at least ``VECTOR_THRESHOLD`` (512)
rows, set and bag-set evaluation stay in id space: every disjunct's id
matrix is stacked, each row packs into one int64 key (base: the decode
table's length plus one, so decode-extension ids fit), one ``np.unique``
finds the distinct rows with their multiplicities, and only those rows are
decoded.  An empty head, or one too wide to pack, counts rows in the loop
that smaller stores use.  This slice runs both, with the real threshold
(nothing is monkeypatched), on seeded databases of 300 to 900 ``sales``
rows:

* values are ``int`` and ``Fraction``;
* one predicate, ``sales``, is stored at two arities, so every read must
  keep only the rows of the atom's arity;
* queries use negation, comparisons against constants in and out of the
  carrier, disjunctions, an empty head, and head constants absent from the
  carrier (two of them in one column beside carrier ids, so a pack base
  that left out their extension ids would merge distinct rows).

The oracle is ``naive_evaluate(q, D)`` and ``naive_evaluate(q, D,
bag=True)``; ``evaluate_set`` and ``evaluate_bag_set`` must match it in
value and type, with NumPy and under ``REPRO_NO_NUMPY=1``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro import Database, parse_query
from repro.engine import (
    clear_evaluation_caches,
    evaluate_bag_set,
    evaluate_set,
    naive_evaluate,
    store_for,
)
from repro.engine.columnar import VECTOR_THRESHOLD, numpy_module
from repro.obs import REGISTRY

#: (name, ternary ``sales`` rows, binary ``sales`` rows, Fraction share).
DATABASES = (
    ("small-two-arities", 300, 100, 0.0),
    ("large-mixed", 900, 0, 0.4),
    ("large-two-arities", 600, 200, 0.0),
)

QUERIES = (
    "q(s, p) :- sales(s, p, a)",
    "q(s, p, a) :- sales(s, p, a), not returns(s, p)",
    "q(s, a) :- sales(s, p, a), a >= 10, a < 301/2 ; sales(s, p, a), p > 15",
    "q(s, k) :- sales(s, p, k) ; sales(s, p, a), k = 4242 ; sales(s, p, a), k = 4243",
    "q(k, s, p) :- sales(s, p, a), k = -987654, p != 3 ; sales(s, p, k), premium(s)",
    "q(p) :- sales(s, p, a), not premium(s)",
    "q(a, s) :- sales(s, p, a), a < -1000 ; sales(s, p, a), a = 7/3",
    "q() :- sales(s, p, a), a > 100",
    "q() :- sales(s, p, a), a > 100000",
    "q(s, p) :- sales(s, p), not returns(s, p)",
    "q(s, x) :- sales(s, p), x = 31337 ; sales(s, x), premium(s), x != 4",
)


def _value(rng: random.Random, fractions: float):
    if rng.random() < fractions:
        return Fraction(rng.randrange(-60, 600), rng.choice((3, 7)))
    return rng.randrange(-50, 200)


def _database(seed: int, ternary: int, binary: int, fractions: float) -> Database:
    rng = random.Random(seed)
    # The carrier's least value sits in store 5's rows, so its id-0 column
    # value shares a row with a store whose id is not the least.
    sales: set = {(5, 3, -1000)}
    while len(sales) < ternary:
        sales.add((rng.randrange(12), rng.randrange(20), _value(rng, fractions)))
    pairs: set = set()
    while len(pairs) < binary:
        pairs.add((rng.randrange(12), rng.randrange(20)))
    facts = [("sales", row) for row in sales | pairs]
    facts += [("returns", (rng.randrange(12), rng.randrange(20))) for _ in range(40)]
    facts += [("premium", (s,)) for s in range(12) if rng.random() < 0.5]
    return Database(facts)


def _typed_row(row: tuple) -> tuple:
    return tuple((type(value).__name__, value) for value in row)


def _typed_set(rows) -> set:
    return {_typed_row(row) for row in rows}


def _typed_bag(bag) -> dict:
    return {_typed_row(row): count for row, count in bag.items()}


@pytest.fixture(scope="module")
def databases():
    return {
        name: _database(seed, ternary, binary, fractions)
        for seed, (name, ternary, binary, fractions) in enumerate(DATABASES)
    }


@pytest.fixture(scope="module")
def expected(databases):
    """The oracle's typed set and bag per (query, database)."""
    results = {}
    for text in QUERIES:
        query = parse_query(text)
        for name, database in databases.items():
            results[text, name] = (
                _typed_set(naive_evaluate(query, database)),
                _typed_bag(naive_evaluate(query, database, bag=True)),
            )
    return results


def test_databases_straddle_the_threshold(databases):
    clear_evaluation_caches()
    sizes = {name: len(database.relation("sales")) for name, database in databases.items()}
    assert sizes["small-two-arities"] < VECTOR_THRESHOLD
    assert min(sizes["large-mixed"], sizes["large-two-arities"]) >= VECTOR_THRESHOLD
    assert databases["large-two-arities"].relation_arities["sales"] == {2, 3}
    if numpy_module() is not None:
        assert not store_for(databases["small-two-arities"]).vectorized()
        assert store_for(databases["large-two-arities"]).vectorized()
    clear_evaluation_caches()


@pytest.mark.parametrize("backend", ["default", "no-numpy"])
def test_set_and_bag_set_match_the_naive_reference(backend, databases, expected, monkeypatch):
    if backend == "no-numpy":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    clear_evaluation_caches()
    vector_before = REGISTRY.get("engine.dispatch.vector")
    try:
        nonempty = 0
        for text in QUERIES:
            query = parse_query(text)
            for name, database in databases.items():
                want_set, want_bag = expected[text, name]
                assert _typed_set(evaluate_set(query, database)) == want_set, (text, name)
                assert _typed_bag(evaluate_bag_set(query, database)) == want_bag, (text, name)
                nonempty += bool(want_set)
        assert nonempty > 20
        vectorized = REGISTRY.get("engine.dispatch.vector") > vector_before
        assert vectorized == (backend == "default" and numpy_module() is not None)
    finally:
        monkeypatch.undo()
        clear_evaluation_caches()
