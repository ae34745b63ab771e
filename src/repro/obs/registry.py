"""The process-local metrics registry.

One flat, dotted-name counter space replaces the scattered per-module stats
dicts the engine grew PR by PR (``_KERNEL_STATS`` in ``engine/compile``,
``_STORE_STATS`` in ``engine/columnar``, ``_SHARED_GAMMA_STATS`` in
``engine/symbolic``, the ``forks`` attribute on the process executor).
Counter names are hierarchical by convention — the first dotted segment is
the *scope* that owns the counter's reset semantics:

* ``engine.`` — evaluation-layer counters (kernel compiles/hits, store
  builds/hits, vector-vs-loop dispatches, and
  ``engine.gamma.shared_hits``/``shared_misses`` of the one shared symbolic
  table, the group-index cache).  Reset together with the caches they
  describe:
  ``clear_kernel_cache`` resets ``engine.kernel.*``, ``clear_store_cache``
  resets ``engine.store.*``, ``clear_symbolic_caches`` resets
  ``engine.gamma.*``, and
  ``clear_evaluation_caches`` resets the whole evaluation slice it drops
  (kernel + store + dispatch).
* ``sweep.`` — decision-procedure counters (subsets examined / skipped by
  symmetry, ordering classes examined, identities checked,
  ``sweep.pairs.isomorphic``: pairs settled without search because their
  evaluation keys are equal, and ``sweep.witnesses.realized``: witnesses
  built after a search, one per class pair and failure place).  Never
  reset by the cache clears; they describe *work performed*, not cache
  state.
* ``batch.`` — ``batch.pair_tasks``: pair tasks a matrix ran, one per
  isomorphism class pair for the cells settled by a counterexample search
  when no seed is given.  Like ``sweep.``, work performed.
* ``datalog.`` — ``datalog.key.tie_bailouts``: evaluation keys whose
  symmetric-tie search exceeded its budget and fell back to variable-name
  order (such a key only loses sharing).
* ``parallel.`` — executor counters (pool forks).
* ``session.`` — workspace-layer counters: ``session.store.hits``, cells
  the verdict store served, and ``session.verdict_cache.misses``, cells
  sent to ``decide_pairs``.  The second keeps its historical name because
  the perfbench harness reads it as ``session.cells_decided``.  Like
  ``sweep.``, these survive every cache clear.
* ``worker.`` — the aggregated deltas merged back from pool workers: a
  worker-side increment of ``engine.kernel.compiles`` lands here as
  ``worker.engine.kernel.compiles``.  This is the slice that makes worker
  activity visible — before it existed, everything a forked worker counted
  died with the worker.

The registry is deliberately primitive: a dict of ints behind ``inc``/
``get``, because several of its callers sit on the warm compiled evaluation
path where anything heavier would show up in the benchmarks (the <3%
instrumentation-overhead floor in ``bench_compiled_engine.py`` keeps that
honest).  Snapshot/diff/merge are the worker-aggregation contract: a task
runner snapshots before the task, diffs after, ships the delta inside the
(picklable) outcome, and the parent merges every delta under ``worker.`` —
deterministically, since integer addition commutes, so merged totals never
depend on worker scheduling.
"""

from __future__ import annotations

from typing import Mapping, Optional


class MetricsRegistry:
    """A process-local registry of named integer counters."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount`` (creating it at zero)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        """The current value of ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0)

    def total(self, name: str) -> int:
        """``name`` plus its worker-side aggregate ``worker.<name>`` — the
        merged view a session reports (parent work + everything the pool
        workers counted on its behalf)."""
        return self.get(name) + self.get(f"worker.{name}")

    # ------------------------------------------------------------------
    # Snapshot / diff / merge (the worker-aggregation contract)
    # ------------------------------------------------------------------
    def snapshot(self, prefix: Optional[str] = None) -> dict[str, int]:
        """A copy of the current counters (optionally only those under
        ``prefix``), suitable for diffing later."""
        if prefix is None:
            return dict(self._counters)
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def diff(self, before: Mapping[str, int]) -> dict[str, int]:
        """The per-counter growth since ``before`` (zero-growth counters are
        omitted, so deltas pickle small)."""
        delta: dict[str, int] = {}
        for name, value in self._counters.items():
            grown = value - before.get(name, 0)
            if grown:
                delta[name] = grown
        return delta

    def merge(self, delta: Mapping[str, int], prefix: str = "") -> None:
        """Fold a delta into the registry, each name under ``prefix``.

        The parent-side merge of worker outcomes uses ``prefix="worker."`` so
        worker activity stays distinguishable from the parent's own; plain
        ``merge(delta)`` adds in place (used by tests and tooling).
        """
        counters = self._counters
        for name, value in delta.items():
            key = prefix + name
            counters[key] = counters.get(key, 0) + value

    # ------------------------------------------------------------------
    # Reset / reporting
    # ------------------------------------------------------------------
    def reset(self, prefix: Optional[str] = None) -> None:
        """Drop every counter under ``prefix`` (everything when ``None``)."""
        if prefix is None:
            self._counters.clear()
            return
        for name in [name for name in self._counters if name.startswith(prefix)]:
            del self._counters[name]

    def tree(self) -> dict[str, dict[str, int]]:
        """The hierarchical report: counters grouped by their first dotted
        segment — ``{"engine": {"kernel.compiles": 5, ...}, "worker": ...}``.
        Scopes and names iterate sorted, so renderings are stable."""
        grouped: dict[str, dict[str, int]] = {}
        for name in sorted(self._counters):
            scope, _, rest = name.partition(".")
            grouped.setdefault(scope, {})[rest or scope] = self._counters[name]
        return grouped


#: The process-wide registry.  Forked pool workers inherit a copy-on-write
#: image of it; their runners diff against a pre-task snapshot, so inherited
#: parent values never leak into a worker delta.
REGISTRY = MetricsRegistry()
