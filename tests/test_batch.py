"""Tests for the batched workload APIs (evaluate_many / equivalence_matrix)."""

import pytest

from parity_inputs import audit_catalog
from repro import Verdict, Workspace, are_equivalent, parse_database, parse_query
from repro.engine import clear_evaluation_caches, clear_symbolic_caches, evaluate
from repro.obs import REGISTRY
from repro.workloads import (
    build_warehouse,
    equivalence_matrix,
    evaluate_many,
    format_equivalence_matrix,
)


class TestEvaluateMany:
    def test_matches_individual_evaluation(self, warehouse):
        results = evaluate_many(warehouse.queries, warehouse.database)
        assert set(results) == set(warehouse.queries)
        for name, query in warehouse.queries.items():
            assert results[name] == evaluate(query, warehouse.database)

    def test_scenario_convenience_method(self, warehouse):
        assert warehouse.evaluate_all() == evaluate_many(warehouse.queries, warehouse.database)

    def test_empty_catalog(self):
        assert evaluate_many({}, parse_database("p(1).")) == {}


class TestEquivalenceMatrix:
    def test_detects_equivalent_rewriting(self):
        queries = {
            "orig": parse_query("q(x, sum(y)) :- p(x, y), not r(x)"),
            "renamed": parse_query("q(x, sum(z)) :- p(x, z), not r(x)"),
            "weaker": parse_query("q(x, sum(y)) :- p(x, y)"),
        }
        results = equivalence_matrix(queries, counterexample_trials=100)
        assert set(results) == {("orig", "renamed"), ("orig", "weaker"), ("renamed", "weaker")}
        assert results[("orig", "renamed")].verdict is Verdict.EQUIVALENT
        assert results[("orig", "weaker")].verdict is Verdict.NOT_EQUIVALENT
        assert results[("renamed", "weaker")].verdict is Verdict.NOT_EQUIVALENT

    def test_mixed_shapes_are_incomparable_not_an_error(self):
        queries = {
            "agg": parse_query("q(x, sum(y)) :- p(x, y)"),
            "plain": parse_query("q(x) :- p(x, y)"),
        }
        results = equivalence_matrix(queries)
        result = results[("agg", "plain")]
        assert result.verdict is Verdict.NOT_EQUIVALENT
        assert result.method == "incomparable shapes"

    def test_formatting(self):
        queries = {
            "a": parse_query("q(x) :- p(x, y)"),
            "b": parse_query("q(x) :- p(x, y), p(x, z)"),
        }
        rendered = format_equivalence_matrix(equivalence_matrix(queries))
        assert "a" in rendered and "b" in rendered and "equivalent" in rendered
        assert format_equivalence_matrix({}) == "(empty catalog)"

    def test_warehouse_rewriting_pair(self):
        warehouse = build_warehouse(stores=2, products=3, sales_per_store=4, seed=3)
        catalog = {
            name: warehouse.queries[name]
            for name in ("revenue_per_store", "revenue_per_store_alt")
        }
        results = equivalence_matrix(catalog)
        (result,) = results.values()
        assert result.verdict is Verdict.EQUIVALENT


def _cold_audit_counts(workers: int, seed=None) -> dict:
    """The registry delta of one cold seed-1 audit matrix (28 queries,
    378 cells)."""
    clear_symbolic_caches()
    clear_evaluation_caches()
    before = REGISTRY.snapshot()
    with Workspace(workers=workers, store=False, seed=seed) as workspace:
        for name, (text, _class) in audit_catalog(1).items():
            workspace.add(text, name=name)
        workspace.equivalences()
    return REGISTRY.diff(before)


class TestClassPairWork:
    """A cold matrix decides and witnesses each isomorphism class pair once.

    The seed-1 audit catalog has 27 pair-path cells (``unit_sum`` against
    every other query, a counterexample search across functions) in 4 class
    pairs, and 75 NOT_EQUIVALENT swept cells failing at 6 class-pair
    places.  Decided per cell, that was 27 pair tasks, 75 witness
    realizations and 27 kernel compiles."""

    def test_a_cold_audit_matrix_runs_one_task_and_one_witness_per_class_pair(self):
        serial = _cold_audit_counts(workers=1)
        parallel = _cold_audit_counts(workers=2)
        for counts in (serial, parallel):
            assert counts.get("batch.pair_tasks") == 4
            assert counts.get("sweep.witnesses.realized") == 6
        # One kernel per disjunct the witness evaluations and the sweep read.
        assert serial.get("engine.kernel.compiles", 0) <= 6

    def test_an_explicit_seed_shares_no_pair_task(self):
        # Derived pair seeds differ per cell, so every cell searches alone.
        assert _cold_audit_counts(workers=1, seed=5).get("batch.pair_tasks") == 27

    def test_cells_of_two_class_pairs_run_their_own_tasks(self):
        # ``forward`` and ``backward`` agree on vocabulary, function, head
        # arity and disjunct count but are not isomorphic; ``forward_copy``
        # is a renaming of ``forward``.
        catalog = {
            "forward": parse_query("q(s, count()) :- p(s, t), r(t)"),
            "forward_copy": parse_query("q(a, count()) :- r(b), p(a, b)"),
            "backward": parse_query("q(s, count()) :- p(t, s), r(t)"),
            "units": parse_query("u(s, sum(v)) :- p(s, v), r(v)"),
        }
        before = REGISTRY.snapshot()
        results = equivalence_matrix(catalog, workers=1, counterexample_trials=100)
        # The three count/count cells are quasilinear and run alone; the
        # three cells against ``units`` form two class pairs.
        assert REGISTRY.diff(before).get("batch.pair_tasks") == 3 + 2
        for name in ("forward", "forward_copy", "backward"):
            cell = results[(name, "units")]
            alone = are_equivalent(catalog[name], catalog["units"], counterexample_trials=100)
            assert cell.verdict is alone.verdict is Verdict.NOT_EQUIVALENT
            assert cell.counterexample.database == alone.counterexample.database
            assert cell.counterexample.left_result == alone.counterexample.left_result
            assert cell.counterexample.right_result == alone.counterexample.right_result
