"""Tests for the unified instrumentation subsystem (`repro.obs`).

Four contracts are load-bearing:

* **Registry semantics** — snapshot/diff/merge compose deterministically
  (integer addition commutes), so parent-merged worker deltas never depend
  on scheduling.  The serial and workers=2 runs of the same catalog report
  equal *work* counters; their cache counters conserve lookups, and every
  engine count that differs is accounted for by group-index misses a
  worker repeats because it holds its own copy of the cache.
* **Reset semantics** — cache clears reset exactly the registry scopes that
  describe the dropped caches (``engine.kernel.`` / ``engine.store.`` /
  ``engine.dispatch.`` for :func:`clear_evaluation_caches`, ``engine.gamma.``
  for :func:`clear_symbolic_caches`); work-performed scopes (``sweep.``,
  ``parallel.``, ``worker.``) survive every clear.
* **Trace schema** — ``REPRO_TRACE`` JSONL validates: well-formed events,
  balanced begin/end per ``(pid, id)``, per-pid monotonic timestamps.
* **Provenance** — ``Workspace.explain`` returns a complete explanation for
  every settled cell of a decided matrix, including cache-served cells.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro import ReproError, Workspace, parse_query
from repro.engine import (
    clear_evaluation_caches,
    clear_plan_cache,
    clear_symbolic_caches,
    kernel_cache_stats,
    plan_cache_stats,
    store_cache_stats,
)
from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    span,
    validate_trace,
    validate_trace_file,
)
from repro.core.equivalence import (
    COUNTEREXAMPLE_SEARCH,
    PROCEDURES,
    normalization_method_suffix,
)
from repro.datalog.terms import Constant
from repro.obs import dispatch_class_of, normalization_of
from repro.obs import trace as _trace_module
from repro.workloads import build_view_scenario, build_warehouse
from repro.workloads.batch import decide_pairs, sweep_group_label


def _cold() -> None:
    clear_evaluation_caches()
    clear_plan_cache()
    clear_symbolic_caches()
    REGISTRY.reset()


@contextmanager
def _temporary_trace(path):
    """Redirect tracing to ``path`` and restore the prior sink afterwards
    (the suite may itself be running under ``REPRO_TRACE``)."""
    prior = _trace_module._sink.name if enabled() else None
    enable(str(path))
    try:
        yield
    finally:
        disable()
        if prior is not None:
            enable(prior)


def _merged_totals(snapshot: dict) -> dict:
    """Fold ``worker.<name>`` slices onto their base names."""
    merged: dict[str, int] = {}
    for name, value in snapshot.items():
        base = name[len("worker."):] if name.startswith("worker.") else name
        merged[base] = merged.get(base, 0) + value
    return merged


def _parity_catalogs() -> dict[str, dict]:
    from test_session import scenario_catalogs
    from test_sweep import _split_audit_catalog

    catalogs = scenario_catalogs()
    # Routes through sweep groups; the split member keeps the sweep open past
    # the warm prefix, so the parallel leg forks.
    catalogs["audit"] = _split_audit_catalog()
    return catalogs


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_inc_get_total(self):
        registry = MetricsRegistry()
        registry.inc("engine.kernel.compiles")
        registry.inc("engine.kernel.compiles", 4)
        registry.inc("worker.engine.kernel.compiles", 2)
        assert registry.get("engine.kernel.compiles") == 5
        assert registry.get("never.touched") == 0
        assert registry.total("engine.kernel.compiles") == 7

    def test_snapshot_diff_omits_zero_growth(self):
        registry = MetricsRegistry()
        registry.inc("a.x", 3)
        registry.inc("a.y", 1)
        before = registry.snapshot()
        registry.inc("a.x", 2)
        assert registry.diff(before) == {"a.x": 2}
        assert registry.snapshot("a.") == {"a.x": 5, "a.y": 1}

    def test_merge_is_commutative_and_prefixable(self):
        deltas = [{"e.c": 2, "e.h": 1}, {"e.c": 5}, {"e.h": 7}]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for delta in deltas:
            forward.merge(delta, prefix="worker.")
        for delta in reversed(deltas):
            backward.merge(delta, prefix="worker.")
        assert forward.snapshot() == backward.snapshot()
        assert forward.get("worker.e.c") == 7
        assert forward.get("e.c") == 0

    def test_reset_by_prefix(self):
        registry = MetricsRegistry()
        registry.inc("engine.kernel.compiles")
        registry.inc("engine.store.builds")
        registry.inc("sweep.subsets.examined")
        registry.reset("engine.kernel.")
        assert registry.get("engine.kernel.compiles") == 0
        assert registry.get("engine.store.builds") == 1
        registry.reset()
        assert registry.snapshot() == {}

    def test_tree_groups_by_scope(self):
        registry = MetricsRegistry()
        registry.inc("engine.kernel.compiles", 5)
        registry.inc("sweep.subsets.examined", 9)
        registry.inc("worker.engine.kernel.compiles", 2)
        assert registry.tree() == {
            "engine": {"kernel.compiles": 5},
            "sweep": {"subsets.examined": 9},
            "worker": {"engine.kernel.compiles": 2},
        }


# ----------------------------------------------------------------------
# Reset semantics (pinned: which clear resets which scope)
# ----------------------------------------------------------------------
class TestResetSemantics:
    def _seed_all_scopes(self):
        for name in (
            "engine.kernel.compiles",
            "engine.store.builds",
            "engine.dispatch.loop",
            "engine.gamma.shared_hits",
            "sweep.subsets.examined",
            "parallel.pool.forks",
            "worker.engine.kernel.compiles",
        ):
            REGISTRY.inc(name, 3)

    def test_clear_evaluation_caches_resets_engine_slices_only(self):
        _cold()
        self._seed_all_scopes()
        clear_evaluation_caches()
        assert REGISTRY.get("engine.kernel.compiles") == 0
        assert REGISTRY.get("engine.store.builds") == 0
        assert REGISTRY.get("engine.dispatch.loop") == 0
        # Γ counters are owned by clear_symbolic_caches, not this clear.
        assert REGISTRY.get("engine.gamma.shared_hits") == 3
        # Work-performed scopes survive every cache clear.
        assert REGISTRY.get("sweep.subsets.examined") == 3
        assert REGISTRY.get("parallel.pool.forks") == 3
        assert REGISTRY.get("worker.engine.kernel.compiles") == 3
        _cold()

    def test_clear_symbolic_caches_resets_gamma(self):
        _cold()
        self._seed_all_scopes()
        clear_symbolic_caches()
        assert REGISTRY.get("engine.gamma.shared_hits") == 0
        assert REGISTRY.get("sweep.subsets.examined") == 3
        assert REGISTRY.get("worker.engine.kernel.compiles") == 3
        _cold()

    def test_legacy_stats_shapes_are_registry_backed(self):
        _cold()
        warehouse = build_warehouse()
        decide_pairs(warehouse.queries, workers=1, seed=3)
        assert set(kernel_cache_stats()) == {"entries", "compiles", "hits"}
        assert set(store_cache_stats()) == {"entries", "builds", "hits"}
        assert set(plan_cache_stats()) == {"entries", "builds", "hits"}
        assert kernel_cache_stats()["compiles"] == REGISTRY.get("engine.kernel.compiles")
        assert kernel_cache_stats()["compiles"] > 0
        clear_evaluation_caches()
        assert kernel_cache_stats() == {"entries": 0, "compiles": 0, "hits": 0}
        _cold()


# ----------------------------------------------------------------------
# Counter parity: serial == merged workers=2, per catalog
# ----------------------------------------------------------------------
def _sum(totals: dict, *names: str) -> int:
    return sum(totals.get(name, 0) for name in names)


class TestCounterParity:
    """Serial against merged ``workers=2`` runs of one catalog.

    Work is counted where it is asked for, so it is equal on both sides:
    every ``sweep.`` counter and the group-index requests (hits + misses).
    Cache state is per process: a forked worker inherits the parent's
    tables at fork time but not its siblings' later entries, so a worker
    may miss on an index another process already built.  Measured at seed
    11 on the audit catalog with its split member (the isomorphic pairs
    settle without search, ``sweep.pairs.isomorphic`` = 3 on both sides):
    578 requests on each side with 289 misses, store lookups 307, and
    kernel runs (``engine.dispatch.loop``) 771, equal on both sides in
    three runs.  On warehouse and views only the process that compiled a
    kernel or built a store differs.
    """

    #: Counters that describe work performed: equal on both sides.
    WORK_SCOPES = ("sweep.",)
    GAMMA = ("engine.gamma.shared_hits", "engine.gamma.shared_misses")
    KERNEL_LOOKUPS = ("engine.kernel.compiles", "engine.kernel.hits")
    STORE_LOOKUPS = ("engine.store.builds", "engine.store.hits")
    KERNEL_RUNS = ("engine.dispatch.loop", "engine.dispatch.vector")
    #: Every ``engine.`` counter the checks below account for; any other
    #: engine counter must be equal on both sides.
    ACCOUNTED = GAMMA + KERNEL_LOOKUPS + STORE_LOOKUPS + KERNEL_RUNS + (
        "engine.kernel.verified",
    )

    @pytest.mark.parametrize("label", ["warehouse", "views", "audit"])
    def test_serial_equals_merged_parallel(self, label, monkeypatch):
        # Nested searches consult REPRO_WORKERS when callers pass None; pin
        # the environment so the "serial" leg is actually serial end to end.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        catalog = _parity_catalogs()[label]
        _cold()
        serial_results = decide_pairs(catalog, workers=1, seed=11)
        serial = _merged_totals(REGISTRY.snapshot())
        _cold()
        parallel_results = decide_pairs(catalog, workers=2, seed=11)
        merged = _merged_totals(REGISTRY.snapshot())
        _cold()
        assert {p: r.verdict for p, r in serial_results.items()} == {
            p: r.verdict for p, r in parallel_results.items()
        }

        # Work counters are equal.
        for scope in self.WORK_SCOPES:
            serial_scope = {k: v for k, v in serial.items() if k.startswith(scope)}
            merged_scope = {k: v for k, v in merged.items() if k.startswith(scope)}
            assert serial_scope == merged_scope, scope
        assert _sum(serial, *self.GAMMA) == _sum(merged, *self.GAMMA)

        # Cache lookups are conserved: one kernel lookup per loop run (one
        # verification per compile when REPRO_VERIFY_KERNELS is on), and
        # one store lookup per group-index miss a worker repeats.
        extra_misses = _sum(merged, self.GAMMA[1]) - _sum(serial, self.GAMMA[1])
        assert extra_misses >= 0
        for totals in (serial, merged):
            assert _sum(totals, *self.KERNEL_LOOKUPS) == totals.get("engine.dispatch.loop", 0)
            assert totals.get("engine.kernel.verified", 0) in (
                0, totals.get("engine.kernel.compiles", 0)
            )
        store_delta = _sum(merged, *self.STORE_LOOKUPS) - _sum(serial, *self.STORE_LOOKUPS)
        assert store_delta == extra_misses

        # Every differing engine count is accounted for by the extra misses:
        # each repeated evaluation runs one kernel per disjunct.
        max_disjuncts = max(len(query.disjuncts) for query in catalog.values())
        run_delta = _sum(merged, *self.KERNEL_RUNS) - _sum(serial, *self.KERNEL_RUNS)
        assert extra_misses <= run_delta <= extra_misses * max_disjuncts
        unaccounted = {
            name
            for name in set(serial) | set(merged)
            if name.startswith("engine.")
            and name not in self.ACCOUNTED
            and serial.get(name, 0) != merged.get(name, 0)
        }
        assert unaccounted == set()

        # One-shot decide_pairs forks one pool for the whole call (sweep
        # shards, then pair tasks), and the serial run never forks.
        assert serial.get("parallel.pool.forks", 0) == 0
        assert merged.get("parallel.pool.forks", 0) == 1

    def test_audit_catalog_counts_sweep_work(self):
        catalog = _parity_catalogs()["audit"]
        _cold()
        decide_pairs(catalog, workers=1, seed=11)
        assert REGISTRY.get("sweep.subsets.examined") > 0
        assert REGISTRY.get("sweep.orderings.examined") > 0
        _cold()


# ----------------------------------------------------------------------
# Trace schema
# ----------------------------------------------------------------------
class TestTracing:
    def test_disabled_span_is_shared_and_inert(self):
        if enabled():
            pytest.skip("suite is running under REPRO_TRACE")
        first = span("x", a=1)
        second = span("y")
        assert first is second  # the allocation-free null span
        with first as entered:
            entered.note(anything=1)

    def test_trace_file_validates_and_contains_decision_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with _temporary_trace(path):
            _cold()
            ws = Workspace()
            ws.add("q(x, sum(y)) :- p(x, y), y > 0", name="a")
            ws.add("q(x, sum(z)) :- p(x, z), z > 0, not r(x)", name="b")
            ws.equivalences()
            ws.close()
        assert validate_trace_file(str(path)) == []
        spans = set()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                spans.add(record["span"])
        assert "session.equivalences" in spans
        assert "dispatch.classify" in spans
        assert "sweep.plan" in spans
        _cold()

    def test_span_records_error_and_stays_balanced(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with _temporary_trace(path):
            with pytest.raises(ValueError):
                with span("failing.stage"):
                    raise ValueError("boom")
        assert validate_trace_file(str(path)) == []
        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert records[-1]["event"] == "end"
        assert records[-1]["error"] == "ValueError"
        assert "dur_s" in records[-1]

    def test_validator_rejects_malformed_traces(self):
        assert validate_trace([]) == ["trace is empty (no events)"]
        assert any("not valid JSON" in e for e in validate_trace(["{broken"]))
        assert any(
            "unknown event" in e
            for e in validate_trace(['{"event": "middle", "span": "x", "id": 1, "pid": 1, "t": 0}'])
        )
        unbalanced = ['{"event": "begin", "span": "x", "id": 1, "pid": 1, "t": 0.5}']
        assert any("unclosed span" in e for e in validate_trace(unbalanced))
        backwards = [
            '{"event": "begin", "span": "x", "id": 1, "pid": 1, "t": 2.0}',
            '{"event": "end", "span": "x", "id": 1, "pid": 1, "t": 1.0, "dur_s": 0.1}',
        ]
        assert any("goes backwards" in e for e in validate_trace(backwards))

    def test_validate_cli(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with _temporary_trace(path):
            with span("cli.check"):
                pass
        env = dict(os.environ)
        env.pop("REPRO_TRACE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        ok = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert ok.returncode == 0, ok.stderr
        assert "trace ok" in ok.stdout
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "nope"}\n', encoding="utf-8")
        failed = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert failed.returncode == 1
        assert "trace invalid" in failed.stderr


# ----------------------------------------------------------------------
# Workspace provenance and hierarchical stats
# ----------------------------------------------------------------------
class TestWorkspaceObservability:
    def test_explain_covers_every_cell_of_the_warehouse_matrix(self):
        _cold()
        scenario = build_warehouse()
        ws = Workspace()
        for name, query in scenario.queries.items():
            ws.add(query, name=name)
        results = ws.equivalences()
        assert len(results) == 28  # 8 warehouse queries -> C(8, 2) cells
        for pair, result in results.items():
            explanation = ws.explain(*pair)
            assert explanation.pair == pair
            assert explanation.verdict == result.verdict.value
            assert explanation.method == result.method
            assert explanation.dispatch_class != "unknown", result.method
            assert explanation.decision_path != "unknown"
            assert explanation.decision_path.startswith(("sweep:", "pair"))
            assert explanation.decided_in_call == 1
            assert explanation.cache_served is False
            assert explanation.domain in ("integers", "rationals")
            if result.verdict.value == "not equivalent":
                assert explanation.witness is not None
            assert isinstance(explanation.summary(), str)
        ws.close()
        _cold()

    @pytest.mark.parametrize("method", PROCEDURES + (COUNTEREXAMPLE_SEARCH,))
    @pytest.mark.parametrize("multiplier", [1, 2])
    def test_explain_classes_every_dispatcher_procedure(self, method, multiplier):
        # Store-served verdicts carry only the method string, so the explain
        # table must know every method the dispatcher names, bare and with
        # the count-form normalization suffix.
        suffix = normalization_method_suffix(Constant(multiplier))
        assert dispatch_class_of(method) != "unknown"
        assert dispatch_class_of(method + suffix) == dispatch_class_of(method)
        assert normalization_of(method) is None
        assert normalization_of(method + suffix) == suffix[len(" (after "):-1]

    def test_explain_order_insensitive_and_unsettled_raises(self):
        ws = Workspace()
        ws.add("q(x) :- p(x, y)", name="a")
        ws.add("q(x) :- p(x, y), r(x)", name="b")
        with pytest.raises(ReproError):
            ws.explain("a", "b")  # not settled yet
        ws.equivalences()
        assert ws.explain("a", "b") == ws.explain("b", "a")
        with pytest.raises(ReproError):
            ws.explain("a", "a")
        with pytest.raises(ReproError):
            ws.explain("a", "missing")
        ws.close()
        # explain still works after close: pure introspection.
        assert ws.explain("a", "b").verdict

    def test_parallel_workspace_reports_worker_side_compiles(self):
        _cold()
        scenario = build_warehouse()
        with Workspace(workers=2) as ws:
            for name, query in scenario.queries.items():
                ws.add(query, name=name)
            ws.equivalences()
            stats = ws.stats()
        assert stats.pool_forks == 1
        worker_scope = stats.counters.get("worker", {})
        assert worker_scope.get("engine.kernel.compiles", 0) > 0
        assert REGISTRY.total("engine.kernel.compiles") > REGISTRY.get(
            "engine.kernel.compiles"
        )
        _cold()

    def test_stats_report_is_hierarchical(self):
        _cold()
        ws = Workspace()
        ws.add("q(x) :- p(x, y)", name="a")
        ws.add("q(x) :- p(x, y), r(x)", name="b")
        ws.equivalences()
        stats = ws.stats()
        assert set(stats.plan_cache) == {"entries", "builds", "hits"}
        assert "engine" in stats.counters
        rendered = stats.report()
        assert rendered.startswith("workspace:")
        assert "engine:" in rendered
        assert "plan_cache:" in rendered
        assert f"decided_cells: {stats.decided_cells}" in rendered
        ws.close()
        _cold()

    def test_sweep_group_label_names_members_and_bound(self):
        _cold()
        from test_sweep import _audit_catalog

        from repro.workloads.batch import plan_catalog_sweep

        plan = plan_catalog_sweep(_audit_catalog())
        assert plan.groups, "audit catalog must form at least one sweep group"
        label = sweep_group_label(plan.groups[0])
        assert "τ=" in label
        for name in plan.groups[0].queries:
            assert name in label
        ws = Workspace()
        for name, query in _audit_catalog().items():
            ws.add(query, name=name)
        ws.equivalences()
        paths = {ws.explain(*pair).decision_path for pair in ws.equivalences()}
        assert any(path.startswith("sweep:") for path in paths)
        ws.close()
        _cold()
