"""Timing, failure accounting and per-layer metrics shared by the workloads.

Every timed operation collects garbage first, so one operation's garbage
is never collected on the next one's clock; the collector itself is never
disabled or frozen, so allocation cost stays inside the timings.  Every
timing metric is built from medians over the operations of one run.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Callable, Mapping, Optional

from layers import LayerTotals, Tracer, install

#: Per-layer metrics: name -> unit.  Times are self time in ms per cycle
#: (per read or per add where the name says so), counts are per cycle.
PER_LAYER_UNITS: dict[str, str] = {
    "batch.plan_ms": "ms", "batch.groups": "count", "batch.pair_cells": "count",
    "bounded.sweep_ms": "ms", "bounded.subsets": "count", "bounded.orderings": "count",
    "bounded.subsets_skipped": "count",
    "equivalence.pair_ms": "ms", "equivalence.pair_calls": "count",
    "equivalence.unknown_cells": "count",
    "planner.plan_ms": "ms", "planner.calls": "count", "planner.cache_hit_ratio": "ratio",
    "compile.get_kernel_ms": "ms", "compile.rows_ms": "ms", "compile.kernel_hit_ratio": "ratio",
    "symbolic.group_index_ms": "ms",
    "columnar.store_build_ms": "ms", "columnar.store_builds": "count",
    "columnar.vector_share": "ratio",
    "evaluator.evaluate_ms": "ms", "evaluator.calls": "count",
    "aggregates.apply_ms": "ms",
    "rewriting.materialize_ms": "ms", "rewriting.candidates_ms": "ms",
    "rewriting.verify_ms": "ms", "rewriting.safe_ratio": "ratio",
    "session.equivalences_self_ms": "ms", "session.cells_decided": "count",
    "session.cells_served": "count",
    "canon.pair_key_ms": "ms", "canon.hit_ratio": "ratio", "canon.tie_bailouts": "count",
    "disk.serve_ms": "ms", "disk.hits": "count", "disk.writes": "count",
    "witness.realize_ms": "ms", "witness.revalidated": "count", "witness.stale": "count",
    "datalog.parse_ms": "ms",
    "service.explain_ms": "ms", "service.add_ms": "ms", "service.read_wait_ms": "ms",
    "service.read_p99_ms": "ms",
    "service.requests": "count", "service.tenant_evictions": "count",
    "parallel.tasks": "count",
    "trace.overhead_pct": "%",
}

#: Per-layer time metric -> the span whose self time it reports.
_SELF_TIME_SPANS = {
    "batch.plan_ms": "batch.plan",
    "bounded.sweep_ms": "bounded.sweep",
    "equivalence.pair_ms": "equivalence.pair",
    "planner.plan_ms": "planner.plan",
    "compile.get_kernel_ms": "compile.get_kernel",
    "compile.rows_ms": "compile.rows",
    "symbolic.group_index_ms": "symbolic.group_index",
    "columnar.store_build_ms": "columnar.store_build",
    "evaluator.evaluate_ms": "evaluator.evaluate",
    "aggregates.apply_ms": "aggregates.apply",
    "rewriting.materialize_ms": "rewriting.materialize",
    "rewriting.candidates_ms": "rewriting.candidates",
    "rewriting.verify_ms": "rewriting.verify",
    "session.equivalences_self_ms": "session.equivalences",
    "canon.pair_key_ms": "canon.pair_key",
    "disk.serve_ms": "disk.serve",
    "witness.realize_ms": "witness.realize",
    "datalog.parse_ms": "datalog.parse",
}

#: Per-layer count metric -> the metrics-registry counter it reports.
_COUNTERS = {
    "bounded.subsets": "sweep.subsets.examined",
    "bounded.orderings": "sweep.orderings.examined",
    "bounded.subsets_skipped": "sweep.subsets.skipped",
    "columnar.store_builds": "engine.store.builds",
    "canon.tie_bailouts": "store.canon.tie_bailouts",
    "disk.hits": "store.disk.hits",
    "disk.writes": "store.disk.writes",
    "witness.revalidated": "store.witness.revalidated",
    "witness.stale": "store.witness.stale",
    "service.tenant_evictions": "service.tenant.evictions",
}


class CheckFailed(Exception):
    """An output check that does not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def timed_setup(workload) -> float:  # noqa: ANN001
    """Set ``workload`` up (again); returns the seconds ``setup`` took.

    ``prepare_setup`` (dropping the previous set-up) and ``finish_setup``
    run off the clock, and garbage is collected before it starts."""
    workload.prepare_setup()
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    workload.finish_setup()
    return elapsed


class InProcessWorkload:
    """What the workloads that run the program in this process share: no
    per-phase hooks, and tracing by wrapping the program's functions here.

    ``registry`` returns the counters each operation's delta is taken of."""

    registry: Optional[Callable[[], Mapping[str, int]]] = None

    def finish_setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def begin_phase(self, recorder: "Recorder") -> None:
        pass

    def end_phase(self, recorder: "Recorder") -> None:
        pass

    def start_tracing(self, tracer: Tracer) -> None:
        install(tracer)

    def finish_tracing(self, tracer: Tracer, recorder: "Recorder", path: str) -> tuple[LayerTotals, dict[str, int]]:
        """Write the trace to ``path``; return its totals and the counter
        deltas of the traced operations."""
        tracer.dump(path)
        return tracer.totals(), recorder.counters


class Recorder:
    """Samples, attempts and failures of one phase of a run.

    With ``registry`` set, each operation's counter delta is taken after
    its ``prepare`` step (the cache resets, which also reset the engine's
    counters) and summed into :attr:`counters`, and per kind of operation
    into :attr:`op_counters` (with the operation count under ``ops``).

    With ``resetup`` the workloads' calls of :meth:`resetup` set them up
    again, timed into :attr:`setups`, so that ``setup_s`` samples the same
    machine state as the operations it is interleaved with."""

    def __init__(
        self,
        registry: Optional[Callable[[], Mapping[str, int]]] = None,
        resetup: bool = False,
    ) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.op_counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.extras: dict[str, float] = defaultdict(float)
        self.setups: list[float] = []
        self._registry = registry
        self._resetup = resetup

    def op(
        self,
        metric: str,
        body: Callable[[], object],
        check: Callable[[object], None],
        prepare: Optional[Callable[[], None]] = None,
    ) -> object:
        """Time one operation; returns its value, or ``None`` if it raised
        or its check failed (which counts it as failed)."""
        self.attempted += 1
        try:
            if prepare is not None:
                prepare()
            before = self._registry() if self._registry is not None else None
            gc.collect()
            start = time.perf_counter()
            value = body()
            elapsed = time.perf_counter() - start
            if before is not None:
                kind = self.op_counters[metric.split(":")[0]]
                kind["ops"] += 1
                for name, count in self._registry().items():  # type: ignore[misc]
                    delta = count - before.get(name, 0)
                    if delta:
                        self.counters[name] += delta
                        kind[name] += delta
            check(value)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.fail()
            return None
        self.samples[metric].append(elapsed * 1e3)
        return value

    def resetup(self, workload) -> None:  # noqa: ANN001
        """Set ``workload`` up again, if this phase times set-ups; a set-up
        that raises counts as a failed operation."""
        if not self._resetup:
            return
        self.attempted += 1
        try:
            self.setups.append(timed_setup(workload))
        except Exception:  # noqa: BLE001 - a failed set-up is counted, not fatal
            self.fail()

    def fail(self, message: Optional[str] = None) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(message or traceback.format_exc(), file=sys.stderr)

    def loop(self, seconds: float, cycle: Callable[["Recorder", int], None], index: int = 0) -> int:
        """Run whole cycles until ``seconds`` have passed (at least one);
        returns the next cycle index."""
        deadline = time.perf_counter() + seconds
        while True:
            cycle(self, index)
            index += 1
            self.cycles += 1
            if time.perf_counter() >= deadline:
                return index

    def median(self, metric: str) -> float:
        values = self.samples.get(metric)
        return statistics.median(values) if values else 0.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))] if ranked else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    layer_totals: LayerTotals,
    counters: Mapping[str, int],
    cycles: int,
    extras: Mapping[str, float],
) -> dict[str, float]:
    """Every per-layer metric, per cycle, from span totals and counter
    deltas; ``extras`` supplies the values only a workload can compute
    (they override the span/counter-derived ones)."""
    per = max(1, cycles)
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for metric, span in _SELF_TIME_SPANS.items():
        values[metric] = layer_totals.self_ns.get(span, 0) / 1e6 / per
    for metric, counter in _COUNTERS.items():
        values[metric] = counters.get(counter, 0) / per
    groups, pair_cells = layer_totals.tallies.get("batch.plan", [0, 0])
    values["batch.groups"] = groups / per
    values["batch.pair_cells"] = pair_cells / per
    values["equivalence.pair_calls"] = layer_totals.calls.get("equivalence.pair", 0) / per
    values["planner.calls"] = layer_totals.calls.get("planner.plan", 0) / per
    values["evaluator.calls"] = layer_totals.calls.get("evaluator.evaluate", 0) / per
    values["parallel.tasks"] = layer_totals.tallies.get("parallel.serial_run", [0])[0] / per
    values["planner.cache_hit_ratio"] = _ratio(
        counters.get("plan.hits", 0), counters.get("plan.hits", 0) + counters.get("plan.builds", 0)
    )
    hits, compiles = counters.get("engine.kernel.hits", 0), counters.get("engine.kernel.compiles", 0)
    values["compile.kernel_hit_ratio"] = _ratio(hits, hits + compiles)
    vector, loop = counters.get("engine.dispatch.vector", 0), counters.get("engine.dispatch.loop", 0)
    values["columnar.vector_share"] = _ratio(vector, vector + loop)
    canon_hits, canon_misses = counters.get("store.canon.hits", 0), counters.get("store.canon.misses", 0)
    values["canon.hit_ratio"] = _ratio(canon_hits, canon_hits + canon_misses)
    values["session.cells_decided"] = counters.get("session.verdict_cache.misses", 0) / per
    values["session.cells_served"] = (
        counters.get("session.store.hits", 0) + counters.get("session.verdict_cache.hits", 0)
    ) / per
    values.update(extras)
    return values
