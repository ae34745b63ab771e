"""The repository's benchmark: one seeded workload, timed or traced.

Usage::

    python3 perfbench/run.py --workload audit-matrix --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository (the program is imported from its
``src/``).  Every workload reports the same end-to-end metrics, defined
per workload in its module: ``decide_ms``, the median of the operation
that settles equivalences; ``answer_ms``, the median of the operation
answered from what set-up prepared; and ``setup_s``, the median of the
set-up before the operations and the set-ups each workload interleaves
with them.  Each operation's output is checked; a failed
check counts the operation as failed and makes the command exit nonzero.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).

With ``--trace 1`` the first third of the time runs untraced, as the
reference for the tracing overhead; then every layer function is wrapped
from outside (see ``layers.py``) and the rest of the time is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Everything a run writes: scratch stores, server logs, traces.
OUTPUT = os.path.join(ROOT, ".perfbench")
TMP = os.path.join(OUTPUT, "tmp")

#: Share of a traced run spent untraced, as the overhead reference.
UNTRACED_SHARE = 1 / 3

WORKLOADS = ("audit-matrix", "warehouse-rewrite", "served-churn")


def _pin_environment() -> None:
    """Drop every ``REPRO_*`` setting (workers, engine, tracing, store path,
    ...) so the program runs with its defaults, and import it from this
    checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # Temporary files (Python's and sqlite's) stay inside the checkout.
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = TMP
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def _fingerprint() -> dict[str, object]:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _workload(name: str, seed: int, scratch: str, trace_path: Optional[str]):  # noqa: ANN202
    if name == "audit-matrix":
        from audit_matrix import AuditMatrix

        return AuditMatrix(seed, scratch, trace_path)
    if name == "warehouse-rewrite":
        from warehouse_rewrite import WarehouseRewrite

        return WarehouseRewrite(seed, scratch, trace_path)
    from served_churn import ServedChurn

    return ServedChurn(seed, scratch, trace_path)


def _phase(workload, recorder, seconds: float, index: int = 0) -> int:  # noqa: ANN001
    workload.begin_phase(recorder)
    try:
        return recorder.loop(seconds, workload.cycle, index)
    finally:
        workload.end_phase(recorder)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    # Import the whole program before any timing, so that compiling it on a
    # fresh checkout never lands in set-up.
    import repro.service  # noqa: F401
    from harness import PER_LAYER_UNITS, Recorder, layer_metrics, timed_setup
    from layers import Tracer, render_op_counts, render_table

    scratch = os.path.join(OUTPUT, f"{name}-{seed}-{os.getpid()}")
    trace_path = os.path.join(OUTPUT, f"trace-{name}-{seed}.json") if trace else None
    workload = _workload(name, seed, scratch, trace_path)
    try:
        # A set-up that fails here leaves nothing to measure: it ends the run.
        first_setup_s = timed_setup(workload)
        if not trace:
            recorder = Recorder(resetup=True)
            recorder.setups.append(first_setup_s)
            _phase(workload, recorder, seconds)
            metrics = {
                metric: {"value": value, "unit": "ms"}
                for metric, value in workload.end_to_end(recorder).items()
            }
            metrics["setup_s"] = {"value": statistics.median(recorder.setups), "unit": "s"}
            for metric, meaning in workload.meaning.items():
                print(f"# {metric} is {meaning}: {metrics[metric]['value']:.3f} ms")
            counts: dict[str, int] = {}
            for kind, values in recorder.samples.items():
                counts[kind.split(":")[0]] = counts.get(kind.split(":")[0], 0) + len(values)
            counts["setup"] = len(recorder.setups)
            print("# samples: " + " ".join(f"{kind}={count}" for kind, count in sorted(counts.items())))
            return _result(recorder.attempted, recorder.failed, metrics)

        untraced = Recorder()
        index = _phase(workload, untraced, seconds * UNTRACED_SHARE)
        tracer = Tracer()
        workload.start_tracing(tracer)
        traced = Recorder(registry=workload.registry)
        _phase(workload, traced, seconds * (1 - UNTRACED_SHARE), index)
        layer_totals, counters = workload.finish_tracing(tracer, traced, trace_path)
        print(f"# trace written to {os.path.relpath(trace_path, ROOT)}")
        values = layer_metrics(
            layer_totals, counters, traced.cycles,
            workload.layer_extras(traced, layer_totals, counters),
        )
        reference = workload.end_to_end(untraced)
        for line in render_table(name, layer_totals, traced.cycles):
            print(line)
        for line in render_op_counts(traced.op_counters):
            print(line)
        for metric, value in workload.end_to_end(traced).items():
            base = reference[metric]
            overhead = (value / base - 1) * 100 if base else 0.0
            print(f"# overhead: {metric} untraced {base:.3f} ms, traced {value:.3f} ms ({overhead:+.1f}%)")
            if metric == "decide_ms":
                values["trace.overhead_pct"] = overhead
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in PER_LAYER_UNITS.items()
        }
        return _result(
            untraced.attempted + traced.attempted, untraced.failed + traced.failed, metrics
        )
    finally:
        workload.close()


def _result(attempted: int, failed: int, metrics: dict) -> dict[str, object]:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    # Turn SIGTERM into an exit that runs the clean-up, which stops the
    # server of served-churn.
    signal.signal(signal.SIGTERM, lambda _signal, _frame: sys.exit(128 + signal.SIGTERM))
    _pin_environment()
    print("# machine: " + json.dumps(_fingerprint(), sort_keys=True))
    result = measure(arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
