"""Fuzzing concrete aggregation across the real vector threshold.

A concrete store whose largest relation has at least
``VECTOR_THRESHOLD`` (512) rows folds aggregates in id space: one sort
groups the stacked id matrix, ``count``/``parity``/``cntd`` fold on counts,
``max``/``min`` on carrier ids, ``sum``/``avg`` in int64 under a guard, and
everything else through ``apply_counted``.  Smaller stores run the loop
kernels and the counted-bag fold.  This slice runs both, with the real
threshold (nothing is monkeypatched), on seeded databases of 300 to 1,500
``sales`` rows:

* values are ``int`` and ``Fraction``; one database carries int64 values
  whose group sums overflow int64 (the guard ``max|v| · rows < 2**62``
  must send them to the exact fold), and one values beyond int64;
* queries use negation, comparisons against constants in and out of the
  carrier, disjunctions, and head constants absent from the carrier (their
  decode-extension ids sort after the carrier whatever their value, so the
  ``max``/``min`` id folds must not take them);
* every registered aggregation function runs on every query whose
  aggregated tuple has the function's arity.

The oracle is the naive reference's grouping folded by ``apply``; the compiled
engine must match it in value and type, with NumPy and under
``REPRO_NO_NUMPY=1``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro import Database, parse_query
from repro.aggregates import get_function, registered_function_names
from repro.engine import (
    clear_evaluation_caches,
    evaluate_aggregate,
    naive_satisfying_assignments,
    store_for,
)
from repro.engine.columnar import VECTOR_THRESHOLD, numpy_module

#: (name, rows of ``sales``, value kind) — both sides of the threshold.
DATABASES = (
    ("small-int", 300, "int"),
    ("large-mixed", 700, "mixed"),
    ("large-int", 1500, "int"),
    ("large-guard", 600, "guard"),
    ("large-huge", 600, "huge"),
)

#: Aggregate query bodies; ``F`` is replaced by the aggregate term.
UNARY_TEMPLATES = (
    "q(s, F(a)) :- sales(s, p, a)",
    "q(s, F(a)) :- sales(s, p, a), not returns(s, p)",
    "q(s, F(a)) :- sales(s, p, a), premium(s), a >= 10, a < 7/2 ; sales(s, p, a), p > 15",
    "q(s, F(a)) :- sales(s, p, a), a > 5 ; sales(s, p, x), not returns(s, p), a = -987654",
    "q(s, F(a)) :- sales(s, p, x), premium(s), a = 31337",
    "q(k, F(a)) :- sales(s, p, a), k = 4242, p != 3",
    "q(F(a)) :- sales(s, p, a), not premium(s)",
    "q(s, p, F(a)) :- sales(s, p, a), not returns(s, p), s <= 6",
)
OTHER_TEMPLATES = (
    "q(s, count()) :- sales(s, p, a), not returns(s, p)",
    "q(count()) :- sales(s, p, a), a = 7 ; premium(s), p = 2",
    "q(s, cntd(p, a)) :- sales(s, p, a), premium(s) ; sales(s, p, x), a = 31337",
    "q(p, cntd(s, k)) :- sales(s, p, a), k = -5, not returns(s, p)",
)


def _value(rng: random.Random, kind: str):
    if kind == "guard":
        # Each fits int64, but two of them already overflow its sum.
        return rng.randrange(2**61, 2**62)
    if kind == "huge":
        return rng.randrange(2**70, 2**71) * rng.choice((1, -1))
    if kind == "mixed" and rng.random() < 0.4:
        return Fraction(rng.randrange(-60, 600), rng.choice((3, 7)))
    return rng.randrange(-50, 200)


def _database(seed: int, rows: int, kind: str) -> Database:
    rng = random.Random(seed)
    sales: set = set()
    while len(sales) < rows:
        sales.add((rng.randrange(12), rng.randrange(20), _value(rng, kind)))
    facts = [("sales", row) for row in sales]
    facts += [("returns", (rng.randrange(12), rng.randrange(20))) for _ in range(40)]
    facts += [("premium", (s,)) for s in range(12) if rng.random() < 0.5]
    return Database(facts)


def _functions():
    """Every registered aggregation function once (aliases share objects)."""
    unique = {}
    for name in registered_function_names():
        function = get_function(name)
        unique.setdefault(id(function), function)
    return list(unique.values())


def _cases():
    for template in UNARY_TEMPLATES:
        query = parse_query(template.replace("F(", "sum("))
        yield template, query, _functions()
    for template in OTHER_TEMPLATES:
        query = parse_query(template)
        arity = len(query.aggregation_variables())
        yield template, query, [
            function
            for function in _functions()
            if function.input_arity is None or function.input_arity == 0
            or function.input_arity == arity
        ]


def _typed(result: dict) -> dict:
    """The result with every key component and value tagged by its type."""

    def tag(value):
        if isinstance(value, tuple):
            return tuple(tag(item) for item in value)
        return (type(value).__name__, value)

    return {tag(key): tag(value) for key, value in result.items()}


def _naive_bags(query, database) -> dict:
    """``{group key: bag}`` over the naive reference's Γ (what
    ``naive_evaluate`` folds with ``apply``), shared by every function."""
    variables = query.aggregation_variables()
    bags: dict = {}
    for assignment in naive_satisfying_assignments(query, database):
        bags.setdefault(assignment.values_of(query.head_terms), []).append(
            assignment.values_of(variables)
        )
    return bags


def _naive(query, database, function) -> dict:
    return {key: function.apply(bag) for key, bag in _naive_bags(query, database).items()}


def _compiled(query, database, function) -> dict:
    return evaluate_aggregate(query, database, function)


@pytest.fixture(scope="module")
def databases():
    return {
        name: _database(seed, rows, kind)
        for seed, (name, rows, kind) in enumerate(DATABASES)
    }


def test_databases_straddle_the_threshold(databases):
    clear_evaluation_caches()
    sizes = {name: len(database.relation("sales")) for name, database in databases.items()}
    assert sizes["small-int"] < VECTOR_THRESHOLD <= min(
        size for name, size in sizes.items() if name != "small-int"
    )
    guard = databases["large-guard"].relation("sales")
    assert max(abs(row[2]) for row in guard) * len(guard) >= 2**62
    if numpy_module() is not None:
        assert not store_for(databases["small-int"]).vectorized()
        assert store_for(databases["large-int"]).vectorized()
    clear_evaluation_caches()


@pytest.fixture(scope="module")
def expected(databases):
    """The oracle's typed result per (template, database, function)."""
    results = {}
    for template, query, functions in _cases():
        for name, database in databases.items():
            bags = _naive_bags(query, database)
            for function in functions:
                results[template, name, function.name] = _typed(
                    {key: function.apply(bag) for key, bag in bags.items()}
                )
    return results


@pytest.mark.parametrize("backend", ["default", "no-numpy"])
def test_compiled_aggregation_matches_the_naive_fold(backend, databases, expected, monkeypatch):
    if backend == "no-numpy":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    clear_evaluation_caches()
    try:
        checked = 0
        for template, query, functions in _cases():
            for name, database in databases.items():
                for function in functions:
                    actual = _typed(_compiled(query, database, function))
                    assert actual == expected[template, name, function.name], (
                        template, name, function.name,
                    )
                    checked += 1
        assert checked > 500
    finally:
        monkeypatch.undo()
        clear_evaluation_caches()


def test_arity_errors_match(databases):
    """A unary function over a two-column aggregate raises on both engines."""
    query = parse_query("q(s, cntd(p, a)) :- sales(s, p, a)")
    database = databases["large-int"]
    for function in (get_function("sum"), get_function("max")):
        with pytest.raises(Exception) as naive_error:
            _naive(query, database, function)
        with pytest.raises(Exception) as compiled_error:
            _compiled(query, database, function)
        assert type(naive_error.value) is type(compiled_error.value)
