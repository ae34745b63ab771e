"""Tests for the view-based rewriting subsystem (`repro.rewriting`)."""

from __future__ import annotations

import pytest

from repro import (
    Verdict,
    View,
    ViewCatalog,
    Workspace,
    parse_database,
    parse_query,
    rewrite,
    unfold_query,
)
from repro.engine.evaluator import evaluate
from repro.errors import RewritingError
from repro.rewriting import (
    RewritingEngine,
    estimated_cost,
    generate_candidates,
    uses_views,
)
from repro.workloads import build_view_scenario, random_warehouse_database, warehouse_views


@pytest.fixture
def scenario():
    return build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)


@pytest.fixture
def views():
    return warehouse_views()


# ----------------------------------------------------------------------
# Views and materialization
# ----------------------------------------------------------------------
class TestViews:
    def test_shapes(self, views):
        from repro import Variable

        assert views["sales_by_sp"].is_aggregate
        assert views["sales_by_sp"].arity == 3
        assert not views["kept_sales"].is_aggregate
        assert views["kept_sales"].arity == 3
        assert not views["kept_sales"].is_duplicating
        assert views["sold"].is_duplicating
        assert views["sold"].duplicating_variables() == {Variable("a")}

    def test_aggregate_rows_append_value(self):
        view = View("v", parse_query("v(s, sum(a)) :- sales(s, p, a)"))
        database = parse_database("sales(1, 1, 10). sales(1, 2, 5). sales(2, 1, 3).")
        assert view.rows(database) == {(1, 15), (2, 3)}

    def test_materialize_keeps_base_facts(self, views):
        database = parse_database("sales(1, 1, 10). premium_store(1).")
        materialized = views.materialize(database)
        assert materialized.contains("premium_store", (1,))
        assert materialized.contains("sales_by_sp", (1, 1, 10))
        assert materialized.contains("count_by_sp", (1, 1, 1))

    def test_validation(self):
        with pytest.raises(RewritingError):
            View("sales", parse_query("v(s) :- sales(s, p, a)"))  # recursive name
        with pytest.raises(RewritingError):
            View("v", parse_query("v(s, top2(a)) :- sales(s, p, a)"))  # tuple values
        with pytest.raises(RewritingError):
            ViewCatalog(
                [
                    View("v", parse_query("v(s) :- sales(s, p, a)")),
                    View("v", parse_query("v(p) :- sales(s, p, a)")),
                ]
            )

    def test_materialize_rejects_predicate_clash(self):
        views = ViewCatalog([View("v", parse_query("v(s) :- sales(s, p, a)"))])
        with pytest.raises(RewritingError):
            views.materialize(parse_database("v(1). sales(1, 1, 1)."))


# ----------------------------------------------------------------------
# Unfolding: the faithfulness contract
# ----------------------------------------------------------------------
def _assert_faithful(candidate, views, databases):
    """eval(candidate, materialize(D)) == eval(unfold(candidate), D) on every D."""
    unfolded = unfold_query(candidate, views)
    assert not uses_views(unfolded, views)
    for database in databases:
        materialized = views.materialize(database)
        assert evaluate(candidate, materialized) == evaluate(unfolded, database), str(database)
    return unfolded


@pytest.fixture
def random_instances():
    return [random_warehouse_database(seed) for seed in range(12)]


class TestUnfoldFaithfulness:
    def test_sum_over_sum_view(self, views, random_instances):
        candidate = parse_query("rev(s, sum(t)) :- sales_by_sp(s, p, t)")
        _assert_faithful(candidate, views, random_instances)

    def test_sum_over_sum_view_with_residual_join(self, views, random_instances):
        candidate = parse_query(
            "rev(s, sum(t)) :- sales_by_sp(s, p, t), premium_store(s), not discontinued(p)"
        )
        _assert_faithful(candidate, views, random_instances)

    def test_sum_of_counts(self, views, random_instances):
        candidate = parse_query("volume(s, sum(t)) :- count_by_sp(s, p, t)")
        unfolded = _assert_faithful(candidate, views, random_instances)
        assert unfolded.aggregate.function == "count"

    def test_max_over_max_view(self, views, random_instances):
        candidate = parse_query("top(s, max(t)) :- max_by_sp(s, p, t)")
        _assert_faithful(candidate, views, random_instances)

    def test_count_rows_becomes_cntd(self, views, random_instances):
        candidate = parse_query("assortment(s, count()) :- sales_by_sp(s, p, t)")
        unfolded = _assert_faithful(candidate, views, random_instances)
        assert unfolded.aggregate.function == "cntd"

    def test_non_aggregate_over_duplicating_view(self, views, random_instances):
        # Set semantics collapses duplicates anyway, so `sold` is fine here.
        candidate = parse_query("sold_pairs(s, p) :- sold(s, p), not discontinued(p)")
        _assert_faithful(candidate, views, random_instances)

    def test_cntd_over_duplicating_view(self, views, random_instances):
        # Readmitted by the duplicate-tolerance trait: unfolding multiplies
        # assignments but preserves their projection, and cntd only sees the
        # underlying set.
        candidate = parse_query("assortment(s, cntd(p)) :- sold(s, p)")
        unfolded = _assert_faithful(candidate, views, random_instances)
        assert unfolded.aggregate.function == "cntd"

    def test_max_over_duplicating_view(self, random_instances):
        views = ViewCatalog(
            [View("amounts", parse_query("v(s, a) :- sales(s, p, a)"))]
        )
        candidate = parse_query("top(s, max(a)) :- amounts(s, a)")
        _assert_faithful(candidate, views, random_instances)

    def test_min_over_duplicating_view_with_residual(self, random_instances):
        views = ViewCatalog(
            [View("amounts", parse_query("v(s, a) :- sales(s, p, a)"))]
        )
        candidate = parse_query(
            "low(s, min(a)) :- amounts(s, a), premium_store(s)"
        )
        _assert_faithful(candidate, views, random_instances)

    def test_cntd_over_disjunctive_view(self, random_instances):
        # Overlapping disjuncts collapse in the stored union — harmless for a
        # duplicate-insensitive aggregate.
        views = ViewCatalog(
            [View("flagged", parse_query("v(s, p) :- returns(s, p) ; returns(s, p), discontinued(p)"))]
        )
        candidate = parse_query("audit(s, cntd(p)) :- flagged(s, p)")
        _assert_faithful(candidate, views, random_instances)

    def test_disjunctive_view_under_set_semantics(self, random_instances):
        views = ViewCatalog(
            [View("flagged", parse_query("v(s, p) :- returns(s, p) ; sales(s, p, a), discontinued(p)"))]
        )
        candidate = parse_query("audit(s, p) :- flagged(s, p)")
        _assert_faithful(candidate, views, random_instances)

    def test_queries_without_views_unchanged(self, views):
        query = parse_query("q(s, sum(a)) :- sales(s, p, a)")
        assert unfold_query(query, views) is query


class TestUnfoldRejections:
    def test_negated_view_atom(self, views):
        candidate = parse_query("q(s, p) :- returns(s, p), not sold(s, p)")
        with pytest.raises(RewritingError, match="negated view atom"):
            unfold_query(candidate, views)

    def test_count_over_duplicating_view(self, views):
        # The canonical unsoundness: count over `sold` counts distinct
        # (store, product) pairs, not sales rows.  Duplicate-sensitive
        # functions stay rejected by the tolerance trait.
        candidate = parse_query("volume(s, count()) :- sold(s, p)")
        with pytest.raises(RewritingError, match="duplicate-sensitive count"):
            unfold_query(candidate, views)

    def test_sum_over_duplicating_view(self, random_instances):
        views = ViewCatalog(
            [View("amounts", parse_query("v(s, a) :- sales(s, p, a)"))]
        )
        candidate = parse_query("rev(s, sum(a)) :- amounts(s, a)")
        with pytest.raises(RewritingError, match="duplicate-sensitive sum"):
            unfold_query(candidate, views)

    def test_aggregate_over_disjunctive_view(self):
        # Duplicate-free disjuncts, but their union still collapses the
        # per-disjunct labels Γ counts separately — fatal for count.
        views = ViewCatalog(
            [View("flagged", parse_query("v(s, p) :- returns(s, p) ; returns(s, p), discontinued(p)"))]
        )
        candidate = parse_query("audit(s, count()) :- flagged(s, p)")
        with pytest.raises(RewritingError, match="disjunctive view"):
            unfold_query(candidate, views)

    def test_filter_on_partial_aggregate(self, views):
        candidate = parse_query("rev(s, sum(t)) :- sales_by_sp(s, p, t), t > 10")
        with pytest.raises(RewritingError, match="partial aggregate"):
            unfold_query(candidate, views)

    def test_join_on_partial_aggregate(self, views):
        candidate = parse_query("rev(s, sum(t)) :- sales_by_sp(s, p, t), sales(s, p, t)")
        with pytest.raises(RewritingError, match="partial aggregate"):
            unfold_query(candidate, views)

    def test_unsupported_pairing(self, views):
        candidate = parse_query("top(s, max(t)) :- sales_by_sp(s, p, t)")
        with pytest.raises(RewritingError, match="unsupported aggregate pairing"):
            unfold_query(candidate, views)

    def test_non_aggregate_query_reads_aggregate_column(self, views):
        candidate = parse_query("rows(s, p, t) :- sales_by_sp(s, p, t)")
        with pytest.raises(RewritingError, match="aggregate column"):
            unfold_query(candidate, views)

    def test_two_aggregate_views_in_one_disjunct(self, views):
        candidate = parse_query(
            "rev(s, sum(t)) :- sales_by_sp(s, p, t), count_by_sp(s, p, c)"
        )
        with pytest.raises(RewritingError, match="two aggregate views"):
            unfold_query(candidate, views)

    def test_count_rows_with_extra_join_variables(self, views):
        candidate = parse_query(
            "assortment(s, count()) :- sales_by_sp(s, p, t), sales(s, q, a)"
        )
        with pytest.raises(RewritingError, match="no variables of their own"):
            unfold_query(candidate, views)

    def test_arity_mismatch(self, views):
        candidate = parse_query("q(s) :- sold(s)")
        with pytest.raises(RewritingError, match="arity"):
            unfold_query(candidate, views)


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
class TestCandidateGeneration:
    def test_scenario_queries_get_candidates(self, scenario):
        for name, query in scenario.queries.items():
            candidates, _rejected = generate_candidates(query, scenario.views)
            assert candidates, name
            for candidate in candidates:
                assert uses_views(candidate.query, scenario.views)
                assert not uses_views(candidate.unfolded, scenario.views)

    def test_cntd_query_gets_duplicating_view_candidate(self, views):
        # The duplicate-tolerance trait readmits `sold` for cntd: the
        # duplicating projection is no longer a rejection but a candidate.
        query = parse_query("assortment(s, cntd(p)) :- sales(s, p, a)")
        candidates, rejected = generate_candidates(query, views)
        assert any("sold" in c.view_names for c in candidates)
        assert not any(
            r.view_name == "sold" and "duplicating view" in r.reason for r in rejected
        )

    def test_count_query_rejects_duplicating_view(self, views):
        query = parse_query("volume(s, count()) :- sales(s, p, a)")
        _candidates, rejected = generate_candidates(query, views)
        assert any(
            r.view_name == "sold" and "duplicating view" in r.reason for r in rejected
        )

    def test_residual_literals_survive(self, views):
        query = parse_query(
            "rev(s, sum(a)) :- sales(s, p, a), premium_store(s), not discontinued(p)"
        )
        candidates, _ = generate_candidates(query, views)
        via_sum = [c for c in candidates if "sales_by_sp" in c.view_names]
        assert via_sum
        body = via_sum[0].query.disjuncts[0]
        assert any(atom.predicate == "premium_store" for atom in body.positive_atoms)
        assert any(atom.predicate == "discontinued" for atom in body.negated_atoms)


# ----------------------------------------------------------------------
# The engine: verification, ranking, and the property-based differential
# ----------------------------------------------------------------------
class TestRewritingEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_safe_rewritings_match_on_random_instances(self, scenario, workers):
        """Every rewriting the engine emits as SAFE, evaluated over the
        materialized views, matches the original query on randomized
        warehouse instances (the subsystem's end-to-end soundness claim)."""
        engine = RewritingEngine(scenario.views)
        databases = [random_warehouse_database(seed) for seed in range(8)]
        for name, query in scenario.queries.items():
            report = engine.rewrite(query, workers=workers, seed=31)
            assert report.safe, name
            for verified in report.safe:
                assert verified.result.verdict is Verdict.EQUIVALENT
                for database in databases:
                    materialized = scenario.views.materialize(database)
                    assert evaluate(verified.candidate.query, materialized) == evaluate(
                        query, database
                    ), (name, verified.candidate.name)

    def test_unsafe_candidate_gets_witness(self, scenario):
        """A hand-written wrong candidate is refuted with a concrete witness:
        reading total revenue from the returns-filtered view drops rows."""
        engine = RewritingEngine(scenario.views)
        query = parse_query("rev(s, sum(a)) :- sales(s, p, a)")
        candidate = engine.make_candidate(
            query, parse_query("rev(s, sum(a)) :- kept_sales(s, p, a)")
        )
        (verified,) = engine.verify(query, [candidate], seed=5)
        assert verified.result.verdict is Verdict.NOT_EQUIVALENT
        assert verified.result.counterexample is not None
        witness = verified.result.counterexample.database
        assert witness is not None
        assert evaluate(query, witness) != evaluate(candidate.unfolded, witness)

    def test_ranking_prefers_cheaper_view(self, scenario):
        report = rewrite(
            scenario.queries["total_revenue"],
            scenario.views,
            database=scenario.database,
            seed=3,
        )
        assert report.best is not None
        costs = [verified.estimated_cost for verified in report.safe]
        assert costs == sorted(costs)
        assert report.best.estimated_cost <= report.direct_cost

    def test_rejects_query_already_over_views(self, scenario):
        engine = RewritingEngine(scenario.views)
        with pytest.raises(RewritingError, match="view predicate"):
            engine.rewrite(parse_query("q(s, sum(t)) :- sales_by_sp(s, p, t)"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_disjunctive_rewritings_use_the_sweep_path(self, workers):
        """Union-view candidates land on the bounded local-equivalence path
        (not quasilinear), exercising the plan_catalog_sweep batching."""
        views = ViewCatalog(
            [
                View(
                    "activity",
                    parse_query(
                        "v(s, p) :- returns(s, p), premium_store(s) ; "
                        "returns(s, p), discontinued(p)"
                    ),
                ),
                View(
                    "activity2",
                    parse_query(
                        "v(p, s) :- returns(s, p), discontinued(p) ; "
                        "premium_store(s), returns(s, p)"
                    ),
                ),
            ]
        )
        query = parse_query(
            "audit(s, p) :- returns(s, p), premium_store(s) ; "
            "returns(s, p), discontinued(p)"
        )
        report = rewrite(query, views, workers=workers, seed=17)
        assert len(report.safe) == 2
        for verified in report.safe:
            assert verified.result.method == "local-equivalence (set semantics)"
        databases = [random_warehouse_database(seed) for seed in range(6)]
        for database in databases:
            materialized = views.materialize(database)
            for verified in report.safe:
                assert evaluate(verified.candidate.query, materialized) == evaluate(
                    query, database
                )

    def test_budget_blown_candidate_degrades_to_unverified(self):
        views = ViewCatalog(
            [View("w", parse_query("v(x, y, z, u) :- wide(x, y, z, u)"))]
        )
        engine = RewritingEngine(views, max_subsets=64)
        query = parse_query("q(count()) :- wide(x, y, z, u) ; wide(u, z, y, x)")
        candidate = engine.make_candidate(
            query, parse_query("q(count()) :- w(x, y, z, u) ; w(u, z, y, x)")
        )
        (verified,) = engine.verify(query, [candidate])
        assert verified.result.verdict is Verdict.UNKNOWN
        assert "budget" in verified.result.method

    def test_views_accepts_mapping_and_iterable(self):
        definition = parse_query("v(s, p, sum(a)) :- sales(s, p, a)")
        query = parse_query("rev(s, sum(a)) :- sales(s, p, a)")
        from_mapping = rewrite(query, {"v_sp": definition}, seed=1)
        from_list = rewrite(query, [View("v_sp", definition)], seed=1)
        assert [v.candidate.query for v in from_mapping.safe] == [
            v.candidate.query for v in from_list.safe
        ]


class TestCostModel:
    def test_distinct_count_estimate_splits_naive_ties(self):
        """Residual joins of equal naive size rank by join-column selectivity
        under the distinct-count estimator."""
        from repro import Database
        from repro.rewriting import estimated_cost, naive_estimated_cost

        facts = [("fact", (i % 10, i)) for i in range(20)]  # join col: 10 distinct
        facts += [("selective", (i, i % 2)) for i in range(10)]  # col 0: 10 distinct
        facts += [("skewed", (i % 2, i)) for i in range(10)]  # col 0: 2 distinct
        database = Database(facts)
        via_selective = parse_query("q(x, sum(y)) :- fact(x, y), selective(x, z)")
        via_skewed = parse_query("q(x, sum(y)) :- fact(x, y), skewed(x, z)")
        assert naive_estimated_cost(via_selective, database.relation) == naive_estimated_cost(
            via_skewed, database.relation
        )
        assert estimated_cost(via_selective, database.relation) < estimated_cost(
            via_skewed, database.relation
        )

    def test_view_probe_still_beats_fact_scan(self, scenario):
        """The new estimator preserves the PR 4 headline ordering: the best
        safe rewriting reads the pre-aggregated extent below the direct
        fact-table cost."""
        report = rewrite(
            scenario.queries["total_revenue"],
            scenario.views,
            database=scenario.database,
            seed=3,
        )
        assert report.best is not None
        assert report.best.estimated_cost <= report.direct_cost


class TestRankingReadsOnlyWhatItRanks:
    """Ranking materializes only the views the safe candidates read."""

    #: Views materialized per report: one per view its safe candidates name.
    EXTENTS = {
        "total_revenue": 1,
        "premium_revenue": 1,
        "sales_count": 1,
        "assortment": 4,
        "top_sale": 1,
        "kept_revenue": 2,
    }

    def test_one_pass_materializes_only_the_views_candidates_read(
        self, scenario, monkeypatch
    ):
        evaluated: list[str] = []
        rows = View.rows

        def counting_rows(view, database):
            evaluated.append(view.name)
            return rows(view, database)

        monkeypatch.setattr(View, "rows", counting_rows)
        reports = {}
        per_report = {}
        with Workspace(workers=1, store=False) as workspace:
            for view in scenario.views:
                workspace.register_view(view)
            for name, query in scenario.queries.items():
                before = len(evaluated)
                reports[name] = workspace.rewrite(query, database=scenario.database)
                per_report[name] = len(evaluated) - before
        monkeypatch.undo()
        assert per_report == self.EXTENTS
        assert len(evaluated) == 10

        # Costs and order equal those over every view's extent.
        full = scenario.views.materialize(scenario.database)
        for name, report in reports.items():
            assert report.safe, name
            ranked = [(v.candidate.name, v.estimated_cost) for v in report.safe]
            expected = sorted(
                ((v.candidate.name, estimated_cost(v.candidate.query, full.relation)) for v in report.safe),
                key=lambda pair: (pair[1], pair[0]),
            )
            assert ranked == expected, name

    def test_a_clash_with_an_unused_view_still_raises(self, scenario):
        # ``sold`` is a view no total_revenue candidate reads.
        database = scenario.database.add_facts([("sold", (1, 1))])
        engine = RewritingEngine(scenario.views)
        with pytest.raises(RewritingError, match="collide with base relations"):
            engine.rewrite(scenario.queries["total_revenue"], database=database, workers=1)


class TestRankingBuildsNoDatabase:
    """Ranking reads view extents and base relations; it builds no database."""

    def test_ranked_rewrites_never_add_facts_or_materialize(self, scenario, monkeypatch):
        from repro import Database

        def refuse(*_args, **_kwargs):
            raise AssertionError("ranking built a database")

        with Workspace(workers=1, store=False) as workspace:
            for view in scenario.views:
                workspace.register_view(view)
            for query in scenario.queries.values():
                workspace.rewrite(query)  # verification, outside the patch
            monkeypatch.setattr(Database, "add_facts", refuse)
            monkeypatch.setattr(ViewCatalog, "materialize", refuse)
            for name, query in scenario.queries.items():
                report = workspace.rewrite(query, database=scenario.database)
                assert report.direct_cost is not None, name
                assert report.safe, name
                assert all(v.estimated_cost is not None for v in report.safe), name


class TestReviewRegressions:
    """Pins for issues found in review."""

    def test_unfold_rejects_partial_aggregate_in_head(self, views):
        # Must raise the documented RewritingError, not MalformedQueryError.
        candidate = parse_query("rows(s, t, count()) :- sales_by_sp(s, p, t)")
        with pytest.raises(RewritingError, match="partial-aggregate column"):
            unfold_query(candidate, views)

    def test_verify_plans_only_the_target_row(self, scenario):
        """plan_catalog_sweep restricted to given pairs plans nothing else."""
        from repro.workloads import plan_catalog_sweep

        catalog = {name: query for name, query in scenario.queries.items()}
        wanted = [("assortment", "total_revenue"), ("sales_count", "total_revenue")]
        plan = plan_catalog_sweep(catalog, pairs=wanted)
        planned = set(plan.pair_path) | {
            pair for group in plan.groups for pair in group.pairs
        }
        assert planned == set(wanted)
        with pytest.raises(Exception, match="unknown query"):
            plan_catalog_sweep(catalog, pairs=[("total_revenue", "nope")])
