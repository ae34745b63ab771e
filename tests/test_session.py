"""Tests for the session-first public API (`repro.session.Workspace`).

The load-bearing property is the *incremental/from-scratch differential*:
adding queries to a workspace over several calls and asking for
``equivalences()`` must yield the same matrix a one-shot
``equivalence_matrix`` computes over the final catalog — cell for cell, on
every scenario catalog, serially and through the multiprocessing executor.

Every cell is searched over its own pair BASE, so verdicts, methods,
details and witness databases are byte-identical however the catalog was
staged; the parallel variants check witnesses semantically (present iff
present, and genuinely distinguishing), since early-exit races may pick a
different, equally valid witness.
"""

from __future__ import annotations

import pytest

from repro import Verdict, View, Workspace, parse_query
from repro.engine import evaluate
from repro.errors import QuerySyntaxError, ReproError, RewritingError
from repro.workloads import build_view_scenario, build_warehouse, equivalence_matrix


def scenario_catalogs() -> dict[str, dict]:
    return {
        "warehouse": build_warehouse().queries,
        "views": build_view_scenario().queries,
    }


def served_cells(workspace) -> set:
    """The cells a workspace served from the verdict store (set up when
    ``REPRO_STORE_PATH`` is set): the store keys pairs up to renaming, so a
    served witness may be the one a renamed pair found under its own seed,
    and it is checked semantically."""
    return {pair for pair, record in workspace.cell_provenance().items() if record["path"] == "store"}


def assert_cells_match(incremental, scratch, queries, *, strict_witnesses: bool, served=()):
    __tracebackhide__ = True
    assert incremental.keys() == scratch.keys()
    for pair, result in incremental.items():
        expected = scratch[pair]
        assert result.verdict is expected.verdict, pair
        assert result.method == expected.method, pair
        assert result.details == expected.details, pair
        assert (result.counterexample is None) == (expected.counterexample is None), pair
        if result.counterexample is None:
            continue
        witness = result.counterexample.database
        assert (witness is None) == (expected.counterexample.database is None), pair
        if strict_witnesses and pair not in served:
            assert witness == expected.counterexample.database, pair
        elif witness is not None:
            assert evaluate(queries[pair[0]], witness) != evaluate(
                queries[pair[1]], witness
            ), pair


class TestFrontDoor:
    def test_add_accepts_datalog_query_and_sql(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        assert ws.add("q(x, sum(y)) :- p(x, y)") == "q"
        assert ws.add(parse_query("r(x) :- p(x, y)")) == "r"
        name = ws.add("SELECT store, SUM(amount) FROM sales GROUP BY store", name="rev")
        assert name == "rev"
        assert ws["rev"].is_aggregate
        assert len(ws) == 3

    def test_names_deduplicate_and_explicit_duplicates_raise(self):
        ws = Workspace()
        assert ws.add("q(x) :- p(x, y)") == "q"
        assert ws.add("q(x) :- p(x, y), r(x)") == "q_2"
        ws.add("q(x) :- r(x)", name="named")
        with pytest.raises(ReproError, match="already has a query named"):
            ws.add("q(x) :- r(x)", name="named")

    def test_add_rejects_junk(self):
        with pytest.raises(ReproError, match="expects a Query"):
            Workspace().add(42)  # type: ignore[arg-type]

    def test_discard_drops_query_and_cells(self):
        ws = Workspace()
        ws.add("q(x) :- p(x, y)", name="a")
        ws.add("q(x) :- p(x, z)", name="b")
        assert len(ws.equivalences()) == 1
        ws.discard("b")
        assert ws.equivalences() == {}
        with pytest.raises(ReproError, match="no query named"):
            ws.discard("b")

    def test_register_view_three_forms(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        ws.register_view(View("sold", parse_query("v(s, p) :- sales(s, p, a)")))
        ws.register_view("kept", "v(s, p, a) :- sales(s, p, a), not returns(s, p)")
        ws.register_view(
            "CREATE VIEW by_store (store, total) AS "
            "SELECT store, SUM(amount) FROM sales GROUP BY store"
        )
        assert set(ws.views.names) == {"sold", "kept", "by_store"}

    def test_datalog_view_is_readable_from_sql(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        ws.register_view(
            View("sales_by_sp", parse_query("v(s, p, sum(a)) :- sales(s, p, a)"))
        )
        # Columns derive from the view head: s, p, sum_a.
        query = ws.add("SELECT s, SUM(sum_a) FROM sales_by_sp GROUP BY s")
        assert ws[query].predicates() == {"sales_by_sp"}

    def test_register_view_name_clash(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        ws.register_view(View("sold", parse_query("v(s, p) :- sales(s, p, a)")))
        with pytest.raises(RewritingError, match="duplicate view name"):
            ws.register_view(View("sold", parse_query("v(p) :- sales(s, p, a)")))
        with pytest.raises(QuerySyntaxError, match="collides"):
            # Clash with a schema base table is the SQL layer's verdict.
            ws.register_view(View("sales", parse_query("v(p) :- returns(s, p)")))

    def test_closed_workspace_refuses_work(self):
        with Workspace() as ws:
            ws.add("q(x) :- p(x, y)")
        assert ws.closed
        with pytest.raises(ReproError, match="closed"):
            ws.add("q(x) :- p(x, z)")
        with pytest.raises(ReproError, match="closed"):
            ws.equivalences()


class TestDeltaDifferential:
    @pytest.mark.parametrize("catalog_name", sorted(scenario_catalogs()))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_holdout_add_matches_scratch_exactly(self, catalog_name, workers):
        """Warm a workspace on all-but-one query, add the last, and demand
        the final matrix byte-matches a from-scratch run — the witnesses of
        decided cells included — whichever query is held out."""
        catalog = scenario_catalogs()[catalog_name]
        scratch = equivalence_matrix(catalog, workers=workers, seed=7)
        for holdout in sorted(catalog):
            with Workspace(workers=workers, seed=7) as ws:
                for name, query in catalog.items():
                    if name != holdout:
                        ws.add(query, name=name)
                warm = ws.equivalences()
                assert len(warm) == (len(catalog) - 1) * (len(catalog) - 2) // 2
                ws.add(catalog[holdout], name=holdout)
                final = ws.equivalences()
                delta_decided = ws.stats().decided_cells - len(warm)
                assert delta_decided <= len(catalog) - 1
                served = served_cells(ws)
            assert_cells_match(final, scratch, catalog, strict_witnesses=True, served=served)

    @pytest.mark.parametrize("catalog_name", sorted(scenario_catalogs()))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_at_a_time_matches_scratch(self, catalog_name, workers):
        """Grow the catalog one query per call; the final matrix matches the
        from-scratch run cell for cell, and every decided cell's witness is
        the from-scratch one."""
        catalog = scenario_catalogs()[catalog_name]
        with Workspace(workers=workers, seed=7) as ws:
            for name, query in catalog.items():
                ws.add(query, name=name)
                ws.equivalences()
            final = ws.equivalences()
            served = served_cells(ws)
        scratch = equivalence_matrix(catalog, workers=workers, seed=7)
        assert_cells_match(final, scratch, catalog, strict_witnesses=True, served=served)

    def test_staged_cell_does_not_depend_on_later_queries(self):
        """A cell settled before a new constant and a wider query arrive is
        the cell a from-scratch matrix reports: same ``bound τ`` details,
        same witness database."""
        g4 = "g4(x0, sum(y0)) :- p(x0, y0)"
        g1 = "g1(x0, sum(y0)) :- r(x0), r(y0)"
        g0 = "g0(x0, sum(y0)) :- r(x0), p(y0, 1)"
        with Workspace(workers=1, seed=7) as ws:
            ws.add(g4, name="g4")
            ws.add(g1, name="g1")
            ws.equivalences()
            ws.add(g0, name="g0")
            staged = ws.equivalences()
            served = served_cells(ws)
        catalog = {name: parse_query(text) for name, text in (("g4", g4), ("g1", g1), ("g0", g0))}
        scratch = equivalence_matrix(catalog, workers=1, seed=7)
        cell, expected = staged[("g1", "g4")], scratch[("g1", "g4")]
        assert cell.details == expected.details
        assert cell.counterexample is not None and cell.counterexample.database is not None
        assert cell.counterexample.database == expected.counterexample.database
        assert_cells_match(staged, scratch, catalog, strict_witnesses=True, served=served)

    def test_delta_only_decides_new_cells(self):
        catalog = scenario_catalogs()["views"]
        with Workspace(seed=3) as ws:
            for name, query in catalog.items():
                ws.add(query, name=name)
            first = ws.equivalences()
            decided = ws.stats().decided_cells
            assert decided == len(first)
            again = ws.equivalences()
            assert ws.stats().decided_cells == decided  # nothing re-decided
            assert again.keys() == first.keys()

    def test_structural_verdict_cache_serves_renamed_duplicates(self):
        with Workspace(seed=5) as ws:
            ws.add("q(x, sum(y)) :- p(x, y)", name="a")
            ws.add("q(x, sum(y)) :- p(x, y), not r(x)", name="b")
            ws.equivalences()
            # The same ASTs under fresh names: the (a2, b2) cell is the
            # structurally identical pair, served from the verdict cache.
            ws.add("q(x, sum(y)) :- p(x, y)", name="a2")
            ws.add("q(x, sum(y)) :- p(x, y), not r(x)", name="b2")
            results = ws.equivalences()
            assert ws.stats().verdict_cache_hits >= 1
            assert results[("a2", "b2")].verdict is results[("a", "b")].verdict
            assert results[("a2", "b2")].method == results[("a", "b")].method

    def test_verdict_cache_eviction_is_lru_not_insertion_order(self, monkeypatch):
        """Overflow must evict the least-recently-*used* entries: a pair the
        session keeps serving survives eviction no matter how early it was
        inserted (before the fix, the oldest-*inserted* quarter was dropped,
        so the hottest entries were exactly the ones lost)."""
        from repro.core.equivalence import EquivalenceResult
        from repro.domains import Domain
        from repro.session import workspace as workspace_module

        monkeypatch.setattr(workspace_module, "_VERDICT_CACHE_LIMIT", 4)
        with Workspace(workers=1, store=False) as ws:
            for index in range(5):
                ws.add(f"q(x) :- r{index}(x)", name=f"q{index}")
            fabricated = EquivalenceResult(Verdict.UNKNOWN, "fabricated", Domain.RATIONALS)
            filled = [("q0", "q1"), ("q0", "q2"), ("q0", "q3"), ("q1", "q2")]
            for name_a, name_b in filled:
                ws._cache_verdict((ws[name_a], ws[name_b]), fabricated)
            # Settle every cell except (q0, q1), then ask for the matrix:
            # the one remaining cell is served from the structural cache —
            # a *hit*, which must refresh the entry's recency.
            names = sorted(ws.queries)
            for position, name_a in enumerate(names):
                for name_b in names[position + 1 :]:
                    if (name_a, name_b) != ("q0", "q1"):
                        ws._results[(name_a, name_b)] = fabricated
            ws.equivalences()
            assert ws.stats().verdict_cache_hits == 1
            # The next insertion overflows the (limit 4) cache.  LRU order
            # after the hit is (q0,q2), (q0,q3), (q1,q2), (q0,q1): the
            # refreshed oldest-inserted entry survives and (q0, q2) goes.
            ws._cache_verdict((ws["q1"], ws["q3"]), fabricated)
            assert (ws["q0"], ws["q1"]) in ws._verdict_cache
            assert (ws["q0"], ws["q2"]) not in ws._verdict_cache


class TestSessionRewriting:
    def test_report_matches_one_shot_rewrite(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        from repro import rewrite

        one_shot = rewrite(
            scenario.queries["total_revenue"],
            scenario.views,
            database=scenario.database,
            seed=3,
        )
        with Workspace(seed=3) as ws:
            for view in scenario.views:
                ws.register_view(view)
            session_report = ws.rewrite(
                scenario.queries["total_revenue"], database=scenario.database
            )
        assert [v.candidate.name for v in session_report.safe] == [
            v.candidate.name for v in one_shot.safe
        ]
        assert [v.estimated_cost for v in session_report.safe] == [
            v.estimated_cost for v in one_shot.safe
        ]
        assert session_report.direct_cost == one_shot.direct_cost
        for verified in session_report.safe:
            assert verified.result.verdict is Verdict.EQUIVALENT

    def test_repeated_rewrites_hit_the_cache(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        with Workspace(seed=3) as ws:
            for view in scenario.views:
                ws.register_view(view)
            first = ws.rewrite(scenario.queries["total_revenue"])
            assert ws.stats().rewrite_cache_hits == 0
            second = ws.rewrite(
                scenario.queries["total_revenue"], database=scenario.database
            )
            assert ws.stats().rewrite_cache_hits == 1
            assert {v.candidate.name for v in second.safe} == {
                v.candidate.name for v in first.safe
            }
            # The cached call still ranks: costs are filled and ascending.
            costs = [v.estimated_cost for v in second.safe]
            assert all(cost is not None for cost in costs)
            assert costs == sorted(costs)

    def test_registering_a_view_invalidates_rewrite_cache(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        with Workspace(seed=3) as ws:
            ws.register_view(
                View("sales_by_sp", parse_query("v(s, p, sum(a)) :- sales(s, p, a)"))
            )
            before = ws.rewrite(scenario.queries["total_revenue"])
            ws.register_view(
                View("sales_by_s", parse_query("v(s, sum(a)) :- sales(s, p, a)"))
            )
            after = ws.rewrite(scenario.queries["total_revenue"])
            assert ws.stats().rewrite_cache_hits == 0  # cache was dropped
            assert {v.candidate.name for v in after.safe} > {
                v.candidate.name for v in before.safe
            }

    def test_cached_reports_do_not_alias_across_databases(self):
        """Re-ranking against a second database must not rewrite the costs
        inside a report already handed out (the cache stores the verification
        outcomes; each report gets its own wrappers)."""
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        bigger = build_view_scenario(stores=5, products=8, sales_per_store=12, seed=7)
        with Workspace(seed=3) as ws:
            for view in scenario.views:
                ws.register_view(view)
            first = ws.rewrite(scenario.queries["total_revenue"], database=scenario.database)
            first_costs = [v.estimated_cost for v in first.safe]
            second = ws.rewrite(scenario.queries["total_revenue"], database=bigger.database)
            assert ws.stats().rewrite_cache_hits == 1
            assert [v.estimated_cost for v in first.safe] == first_costs
            assert [v.estimated_cost for v in second.safe] != first_costs

    def test_failed_view_registration_preserves_caches(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        with Workspace(seed=3) as ws:
            ws.register_view(
                View("sales_by_sp", parse_query("v(s, p, sum(a)) :- sales(s, p, a)"))
            )
            ws.rewrite(scenario.queries["total_revenue"])
            with pytest.raises(RewritingError, match="duplicate view name"):
                ws.register_view("sales_by_sp", "v(s) :- sales(s, p, a)")
            with pytest.raises(RewritingError, match="duplicate view name"):
                ws.register_view(View("sales_by_sp", parse_query("v(s) :- sales(s, p, a)")))
            ws.rewrite(scenario.queries["total_revenue"])
            assert ws.stats().rewrite_cache_hits == 1  # cache survived the failures

    def test_mixed_case_views_stay_rewriting_only(self):
        """PR 4 accepted any valid view name; the session keeps that for the
        rewriting catalog and only gates *SQL visibility* on lowercase names
        (the SQL parser lowercases every table reference)."""
        from repro import rewrite

        view = View("SoldPairs", parse_query("v(s, p) :- sales(s, p, a)"))
        query = parse_query("assortment(s, cntd(p)) :- sales(s, p, a)")
        report = rewrite(query, [view], seed=1)  # the one-shot shim path
        assert report.safe
        with Workspace(schema={"sales": ["store", "product", "amount"]}) as ws:
            ws.register_view(view)
            assert "SoldPairs" in ws.views.names
            assert ws.rewrite(query).safe
            with pytest.raises(QuerySyntaxError, match="unknown table"):
                ws.add("SELECT s FROM SoldPairs")  # not SQL-addressable

    def test_rewrite_honours_session_decision_settings(self):
        """Rewrite verification decides like the session's equivalences():
        a candidate whose unfolding forms a pinned-sum / count pair is
        settled EQUIVALENT through the count-form normalization."""
        view = View("unit_rows", parse_query("v(s, p, a, u) :- sales(s, p, a), u = 1"))
        query = parse_query("volume(s, count()) :- sales(s, p, a)")
        candidate = parse_query("volume(s, sum(u)) :- unit_rows(s, p, a, u)")
        with Workspace(seed=2) as ws:
            ws.register_view(view)
            engine = ws._rewriting_engine()
            (outcome,) = engine.verify(query, [engine.make_candidate(query, candidate)], seed=2)
        assert outcome.result.verdict is Verdict.EQUIVALENT
        assert "normalization" in outcome.result.method

    def test_rewrite_rejects_view_queries(self):
        with Workspace() as ws:
            ws.register_view(View("sold", parse_query("v(s, p) :- sales(s, p, a)")))
            with pytest.raises(RewritingError, match="view predicate"):
                ws.rewrite("q(s, cntd(p)) :- sold(s, p)")


def _echo_task(task):
    return task


def _failing_task(task):
    raise RuntimeError(f"worker blew up on {task}")


class TestPersistentPool:
    def test_failed_drain_discards_the_pool(self):
        """A worker exception mid-run must not wedge the session: the broken
        pool is discarded and the next run forks a fresh one."""
        from repro.parallel import ProcessExecutor

        executor = ProcessExecutor(2)
        try:
            # imap_unordered: order may vary, compare as multisets.
            assert sorted(executor.run(_echo_task, [1, 2, 3, 4])) == [1, 2, 3, 4]
            assert sorted(executor.run(_echo_task, [5, 6, 7])) == [5, 6, 7]
            forks = executor.forks
            with pytest.raises(RuntimeError, match="blew up"):
                executor.run(_failing_task, [1, 2, 3, 4])
            assert not executor.alive  # broken pool was discarded
            assert sorted(executor.run(_echo_task, [8, 9, 10])) == [8, 9, 10]
            assert executor.forks == forks + 1  # healed by re-forking
        finally:
            executor.close()
    def test_pool_forks_once_across_calls(self):
        catalog = scenario_catalogs()["views"]
        with Workspace(workers=2, seed=7) as ws:
            for name, query in catalog.items():
                ws.add(query, name=name)
            ws.equivalences()
            forks_after_first = ws.stats().pool_forks
            assert forks_after_first <= 1
            ws.add("extra(s, sum(a)) :- sales(s, p, a), premium_store(s)")
            ws.equivalences()
            scenario = build_view_scenario()
            for view in scenario.views:
                ws.register_view(view)
            ws.rewrite(catalog["total_revenue"])
            ws.rewrite(catalog["kept_revenue"])
            # The pool forks lazily on the first call with shardable work and
            # is then reused: never more than one fork per session.
            assert ws.stats().pool_forks <= 1
            assert ws.stats().pool_forks >= forks_after_first
        executor = ws.executor
        assert executor is not None and not executor.alive

    def test_serial_workspace_has_no_pool(self):
        with Workspace(workers=1) as ws:
            assert ws.executor is None
            assert ws.stats().pool_forks == 0

    def test_explicit_executor_sets_the_worker_count(self):
        from repro.parallel import SerialExecutor

        executor = SerialExecutor()
        with Workspace(workers=4, executor=executor) as ws:
            assert ws.executor is executor
            assert ws.stats().workers == 1


class TestShims:
    def test_equivalence_matrix_shim_matches_workspace(self):
        queries = {
            "orig": parse_query("q(x, sum(y)) :- p(x, y), not r(x)"),
            "renamed": parse_query("q(x, sum(z)) :- p(x, z), not r(x)"),
            "weaker": parse_query("q(x, sum(y)) :- p(x, y)"),
        }
        shim = equivalence_matrix(queries, seed=11)
        with Workspace(seed=11) as ws:
            for name, query in queries.items():
                ws.add(query, name=name)
            direct = ws.equivalences()
        assert_cells_match(shim, direct, queries, strict_witnesses=True)

    def test_shim_docstrings_point_at_the_session(self):
        from repro import rewrite

        assert "Workspace" in equivalence_matrix.__doc__
        assert "Workspace" in rewrite.__doc__
