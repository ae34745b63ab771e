"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
import sys

import pytest

from repro import Domain, parse_database, parse_query
from repro.store import reset_shared_store
from repro.workloads import QueryGenerator, QueryProfile, build_warehouse

# Comparison inputs the tests share with benchmarks/verdict_parity.py
# (benchmarks/parity_inputs.py) import from the benchmarks directory.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"))


@pytest.fixture(autouse=True)
def _isolated_verdict_store(monkeypatch, tmp_path):
    """Keep the process-wide verdict store from leaking across tests.

    The store is deliberately process-global (tenants share it), which is
    exactly wrong for test isolation: a verdict settled by one test would
    serve a later test's pair and silently change its decided-cell counts.
    Each test starts with a dropped singleton, and an inherited
    ``REPRO_STORE_PATH`` (e.g. the CI persistence leg) is redirected to a
    per-test file so cross-test sharing goes through explicit fixtures
    only.  Store tests that need a shared path set their own.
    """
    import os

    if os.environ.get("REPRO_STORE_PATH"):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "verdicts.sqlite3"))
    reset_shared_store()
    yield
    reset_shared_store()


@pytest.fixture
def rng():
    return random.Random(2001)


@pytest.fixture
def simple_db():
    return parse_database("p(1, 2). p(1, 3). p(2, 5). p(2, -1). r(3). s(1).")


@pytest.fixture
def unary_db():
    return parse_database("p(1). p(2). p(3). r(2).")


@pytest.fixture
def sum_query():
    return parse_query("q(x, sum(y)) :- p(x, y)")


@pytest.fixture
def max_query():
    return parse_query("q(x, max(y)) :- p(x, y)")


@pytest.fixture
def count_query():
    return parse_query("q(x, count()) :- p(x, y)")


@pytest.fixture
def negation_query():
    return parse_query("q(x, sum(y)) :- p(x, y), not r(y)")


@pytest.fixture
def warehouse():
    return build_warehouse(stores=3, products=5, sales_per_store=6, seed=11)


@pytest.fixture
def quasilinear_generator():
    profile = QueryProfile(
        predicates={"p": 2, "r": 1, "s": 2},
        aggregation_function="sum",
        quasilinear_only=True,
        max_comparisons=1,
    )
    return QueryGenerator(profile, seed=42)


@pytest.fixture(params=[Domain.RATIONALS, Domain.INTEGERS], ids=["Q", "Z"])
def domain(request):
    return request.param
