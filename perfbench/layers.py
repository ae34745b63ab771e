"""Outside-in layer tracing: wrap the program's public functions and turn
their calls into per-layer self times and counts.

Nothing here edits the program.  :func:`install` replaces each function in
:data:`TARGETS` with a timing wrapper at its defining module *and* at every
``repro`` module that bound it with ``from ... import``, because a call
through such a binding never looks at the defining module again.  Each
target also names the bindings it must find; a missing one raises, so a
rename in the program breaks the traced run instead of silently reporting
zero for a layer.

A span is ``(name, start_ns, end_ns, id, parent, thread)``; its parent is
the innermost wrapped call open on the same thread, and its self time is
its duration minus its direct children's.  Self times and call counts are
summed as spans end (a traced sweep ends hundreds of thousands of spans a
second), and the first :data:`KEPT_SPANS` spans are kept whole for the
trace file.  Only synchronous functions are wrapped: an ``await`` inside
an open span would let other coroutines on the loop thread nest under it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Whole spans kept per traced process, for the trace file.
KEPT_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One wrapped function: the span name it records under, where it is
    defined (``Class.method`` for methods), and the modules that must hold
    a ``from ... import`` binding of it.  ``label`` may rename a call's
    span from its arguments; ``tally`` returns integers taken from a call's
    result and summed per span name."""

    span: str
    module: str
    attribute: str
    bindings: tuple[str, ...] = ()
    label: Optional[Callable[[tuple], str]] = None
    tally: Optional[Callable[[object], tuple[int, ...]]] = None


def _plan_tally(plan: object) -> tuple[int, ...]:
    return len(getattr(plan, "groups")), len(getattr(plan, "pair_path"))


def _encode_label(args: tuple) -> str:
    payload = args[0] if args else None
    explained = isinstance(payload, dict) and "pair" in payload
    return "service.encode_explain" if explained else "service.encode"


#: The functions the traced run wraps, one layer each (named by module).
TARGETS: tuple[Target, ...] = (
    Target("batch.plan", "repro.workloads.batch", "plan_catalog_sweep",
           ("repro.workloads",), tally=_plan_tally),
    Target("bounded.sweep", "repro.core.bounded", "sweep_equivalence",
           ("repro.workloads.batch", "repro.core")),
    Target("equivalence.pair", "repro.core.equivalence", "are_equivalent",
           ("repro.parallel.tasks", "repro.core", "repro")),
    Target("planner.plan", "repro.engine.planner", "plan_condition",
           ("repro.engine.compile", "repro.engine.symbolic", "repro.engine.evaluator")),
    Target("compile.get_kernel", "repro.engine.compile", "get_kernel", ("repro.engine",)),
    Target("compile.rows", "repro.engine.compile", "condition_rows"),
    Target("symbolic.group_index", "repro.engine.symbolic", "symbolic_group_index",
           ("repro.core.bounded",)),
    Target("columnar.store_build", "repro.engine.columnar", "store_for",
           ("repro.engine.compile",)),
    Target("evaluator.evaluate", "repro.engine.evaluator", "evaluate",
           ("repro.workloads.batch", "repro.store.witness", "repro.core.counterexample",
            "repro.engine", "repro")),
    Target("rewriting.materialize", "repro.rewriting.views", "ViewCatalog.materialize"),
    Target("rewriting.candidates", "repro.rewriting.engine", "RewritingEngine.candidates"),
    Target("rewriting.verify", "repro.rewriting.engine", "RewritingEngine.verify"),
    Target("session.equivalences", "repro.session.workspace", "Workspace.equivalences"),
    Target("session.add", "repro.session.workspace", "Workspace.add"),
    Target("canon.pair_key", "repro.store.canon", "pair_key", ("repro.store.disk",)),
    Target("disk.serve", "repro.store.disk", "VerdictStore.serve"),
    Target("witness.realize", "repro.store.witness", "realize_result", ("repro.store",)),
    Target("datalog.parse", "repro.datalog.parser", "parse_query",
           ("repro.session.workspace", "repro.datalog", "repro")),
    Target("service.explain_cell", "repro.session.workspace", "explain_cell",
           ("repro.service.snapshots", "repro.session")),
    Target("service.explanation_payload", "repro.service.protocol", "explanation_payload",
           ("repro.service.app",)),
    Target("service.encode", "repro.service.protocol", "encode",
           ("repro.service.app",), label=_encode_label),
    Target("parallel.serial_run", "repro.parallel.executor", "SerialExecutor.run",
           tally=lambda outcomes: (len(outcomes),)),  # type: ignore[arg-type]
)

#: ``AggregationFunction.apply`` is overridden per function, so every
#: subclass that defines its own ``apply`` is wrapped under this span.
AGGREGATE_SPAN = "aggregates.apply"


@dataclass
class LayerTotals:
    """Per span name: self and total time (ns), calls, and summed tallies."""

    self_ns: dict[str, int]
    total_ns: dict[str, int]
    calls: dict[str, int]
    tallies: dict[str, list[int]]

    def to_json(self) -> dict[str, object]:
        return {
            "self_ns": self.self_ns, "total_ns": self.total_ns,
            "calls": self.calls, "tallies": self.tallies,
        }


class Tracer:
    """Span recorder: one parent stack and one table of sums per thread,
    so no thread ever writes another's state."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: list[dict[str, list[int]]] = []
        self._tallies: list[dict[str, list[int]]] = []

    def _thread_state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.table, local.tallies = [], {}, {}
            self._tables.append(local.table)
            self._tallies.append(local.tallies)
        return local

    def wrap(self, span: str, function: Callable, label=None, tally=None) -> Callable:  # noqa: ANN001
        ids, spans, state = self._ids, self.spans, self._thread_state

        @functools.wraps(function)
        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            frame = [next(ids), 0]  # span id, time covered by children
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter_ns()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                name = label(args) if label is not None else span
                row = local.table.get(name)
                if row is None:
                    row = local.table[name] = [0, 0, 0]
                row[0] += duration - frame[1]
                row[1] += duration
                row[2] += 1
                if tally is not None and result is not None:
                    counts = tally(result)
                    sums = local.tallies.setdefault(name, [0] * len(counts))
                    for position, count in enumerate(counts):
                        sums[position] += count
                if len(spans) < KEPT_SPANS:
                    spans.append((name, start, end, frame[0], parent, threading.get_ident()))

        traced._perfbench_span = span  # type: ignore[attr-defined]
        return traced

    def totals(self) -> LayerTotals:
        """The sums over every thread (read once the traced work ended)."""
        merged = LayerTotals({}, {}, {}, {})
        for table in self._tables:
            for name, (self_ns, total_ns, calls) in list(table.items()):
                merged.self_ns[name] = merged.self_ns.get(name, 0) + self_ns
                merged.total_ns[name] = merged.total_ns.get(name, 0) + total_ns
                merged.calls[name] = merged.calls.get(name, 0) + calls
        for tallies in self._tallies:
            for name, counts in list(tallies.items()):
                sums = merged.tallies.setdefault(name, [0] * len(counts))
                for position, count in enumerate(counts):
                    sums[position] += count
        return merged

    def dump(self, path: str) -> None:
        """Write the totals and the kept spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"totals": self.totals().to_json(), "spans": self.spans}, handle)


def load_totals(path: str) -> LayerTotals:
    """The totals of a trace file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        totals = json.load(handle)["totals"]
    return LayerTotals(totals["self_ns"], totals["total_ns"], totals["calls"], totals["tallies"])


def _resolve(target: Target) -> tuple[object, str, Callable]:
    module = importlib.import_module(target.module)
    owner: object = module
    *path, name = target.attribute.split(".")
    for step in path:
        owner = getattr(owner, step)
    return owner, name, getattr(owner, name)


def install(tracer: Tracer) -> int:
    """Wrap every target; returns the number of bindings replaced.

    Raises ``RuntimeError`` when a target or one of its expected bindings is
    missing, or when a target is already wrapped."""
    import repro  # noqa: F401  (the package's own imports create the bindings)
    import repro.service  # noqa: F401

    replaced = 0
    for target in TARGETS:
        for module_name in target.bindings:
            importlib.import_module(module_name)
        try:
            owner, name, original = _resolve(target)
        except (ImportError, AttributeError) as error:
            raise RuntimeError(f"trace target {target.module}.{target.attribute} is gone") from error
        if getattr(original, "_perfbench_span", None):
            raise RuntimeError(f"{target.attribute} is already wrapped")
        wrapper = tracer.wrap(target.span, original, target.label, target.tally)
        setattr(owner, name, wrapper)
        replaced += 1
        if not isinstance(owner, type):
            rebound = {owner.__name__}
            for module_name, module in list(sys.modules.items()):
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        rebound.add(module_name)
                        replaced += 1
            missing = set(target.bindings) - rebound
            if missing:
                raise RuntimeError(
                    f"{target.attribute} is no longer bound in {', '.join(sorted(missing))}"
                )
    functions = importlib.import_module("repro.aggregates.functions")
    wrapped_apply = 0
    for value in list(vars(functions).values()):
        if (
            isinstance(value, type)
            and issubclass(value, functions.AggregationFunction)
            and "apply" in vars(value)
        ):
            value.apply = tracer.wrap(AGGREGATE_SPAN, vars(value)["apply"])
            wrapped_apply += 1
    if wrapped_apply == 0:
        raise RuntimeError("no AggregationFunction subclass defines apply()")
    return replaced + wrapped_apply


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_table(title: str, layer_totals: LayerTotals, cycles: int) -> list[str]:
    """The per-layer self-time and count table, per cycle, busiest first."""
    per = max(1, cycles)
    lines = [f"# layers: {title} (per cycle, {cycles} cycles traced)",
             f"#   {'span':<30} {'self ms':>10} {'calls':>10}"]
    ranked = sorted(layer_totals.self_ns.items(), key=lambda item: -item[1])
    for name, nanos in ranked:
        lines.append(
            f"#   {name:<30} {nanos / 1e6 / per:>10.3f} "
            f"{layer_totals.calls.get(name, 0) / per:>10.2f}"
        )
    return lines


#: Counters shown per kind of operation in the traced run's output.
OP_COUNTERS = (
    "sweep.subsets.examined",
    "sweep.orderings.examined",
    "session.verdict_cache.misses",
    "store.disk.hits",
    "store.canon.misses",
    "engine.dispatch.loop",
    "engine.dispatch.vector",
)


def render_op_counts(op_counters: dict[str, dict[str, int]]) -> list[str]:
    """Per kind of operation: each of :data:`OP_COUNTERS` per operation."""
    lines = []
    for kind, counts in sorted(op_counters.items()):
        ops = counts.get("ops", 0)
        if not ops:
            continue
        shown = " ".join(f"{name}={counts.get(name, 0) / ops:g}" for name in OP_COUNTERS)
        lines.append(f"# per op: {kind} ({ops} ops) {shown}")
    return lines
