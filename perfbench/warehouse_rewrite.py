"""Workload ``warehouse-rewrite``: view rewriting and report evaluation on a
20k-fact warehouse, interleaved per report.

This is the one workload where the concrete engine runs on large relations
(the NumPy join path) and where the rewriting layer runs; verification of
its rewritings is quasilinear and never sweeps.  ``rewrite_ms`` is
``Workspace.rewrite(report, database=facts)`` on a fresh workspace with the
five views registered; ``report_ms`` evaluates the report on the facts and
its best rewriting on the materialized extents (twice per rewrite).  The
six reports differ in cost, so ``decide_ms`` (rewrite) and ``answer_ms``
(report) are the mean over reports of the per-report median.

The first set-up is followed, off the clock, by a reference rewriting of
every report through ``RewritingEngine`` directly, past the session layer,
whose safe rewritings must each answer the report on the data; every
``rewrite_ms`` operation must reproduce that outcome exactly (each
candidate's bucket, verdict, method and cost rank, and the rejections).
A cycle is one pass over the six reports, with a set-up before the first
and the fourth.
"""

from __future__ import annotations

import statistics
from typing import Optional

from audit_matrix import clear_caches, registry_snapshot
from harness import InProcessWorkload, Recorder, require

import repro
from repro import Workspace
from repro.rewriting import RewritingEngine, RewritingReport
from repro.workloads.scenarios import build_view_scenario

#: Report evaluations per rewrite: more answer samples per pass.
REPORTS_PER_REWRITE = 2

#: Positions in a pass over the reports where the workload is set up again.
SETUP_BEFORE = (0, 3)


def outcome_of(report: RewritingReport) -> tuple:
    """What a rewriting report decided: every verified candidate in report
    order (so the best one first) with its bucket, verdict, method and
    estimated cost, and the rejected candidates."""
    return (
        tuple(
            (bucket, verified.candidate.name, verified.result.verdict.value,
             verified.result.method, verified.estimated_cost)
            for bucket in ("safe", "not_equivalent", "unverified")
            for verified in getattr(report, bucket)
        ),
        tuple(str(rejection) for rejection in report.rejected),
    )


class WarehouseRewrite(InProcessWorkload):
    """The ``warehouse-rewrite`` workload over one seeded warehouse."""

    meaning = {
        "decide_ms": "rewrite_ms, one report rewritten, verified and ranked",
        "answer_ms": "report_ms, one report evaluated on the facts and from the views",
    }

    registry = staticmethod(registry_snapshot)

    def __init__(self, seed: int, _scratch: str, _trace_path: Optional[str]) -> None:
        self.seed = seed
        self.scenario = None
        self.extents = None
        self.reference: dict[str, tuple] = {}

    def prepare_setup(self) -> None:
        clear_caches()
        self.scenario = self.extents = None

    def setup(self) -> None:
        """Build the warehouse and materialize the view extents."""
        self.scenario = build_view_scenario(
            stores=40, products=25, sales_per_store=600, seed=self.seed
        )
        self.extents = self.scenario.materialized()

    def finish_setup(self) -> None:
        """After the first set-up: the reference outcome of every report,
        whose safe rewritings must each answer the report on this data."""
        if self.reference:
            return
        engine = RewritingEngine(self.scenario.views)
        for name, report in self.scenario.queries.items():
            clear_caches()
            outcome = engine.rewrite(report, database=self.scenario.database, workers=1)
            require(outcome.best is not None, f"{name}: no safe rewriting in the reference")
            direct = repro.evaluate(report, self.scenario.database)
            for verified in outcome.safe:
                require(
                    repro.evaluate(verified.candidate.query, self.extents) == direct,
                    f"{name}: safe rewriting {verified.candidate.name} answers differently",
                )
            self.reference[name] = outcome_of(outcome)

    def cycle(self, recorder: Recorder, _index: int) -> None:
        for position, name in enumerate(self.reference):
            if position in SETUP_BEFORE:
                recorder.resetup(self)
            scenario = self.scenario
            report = scenario.queries[name]
            workspace: list[Workspace] = []

            def fresh_workspace() -> None:
                clear_caches()
                session = Workspace(workers=1, store=False)
                for view in scenario.views:
                    session.register_view(view)
                workspace[:] = [session]

            def check_rewriting(outcome: object) -> None:
                require(
                    outcome_of(outcome) == self.reference[name],  # type: ignore[arg-type]
                    f"{name}: rewriting outcome differs from the reference",
                )
                emitted = len(outcome.safe) + len(outcome.not_equivalent) + len(outcome.unverified)  # type: ignore[attr-defined]
                recorder.extras["rewriting.safe"] += len(outcome.safe)  # type: ignore[attr-defined]
                recorder.extras["rewriting.verified"] += emitted

            outcome = recorder.op(
                f"rewrite_ms:{name}",
                lambda: workspace[0].rewrite(report, database=scenario.database),
                check_rewriting,
                prepare=fresh_workspace,
            )
            if outcome is None:
                recorder.attempted += 1
                recorder.fail(f"{name}: no rewriting to evaluate")
                continue
            best = outcome.best.candidate.query  # type: ignore[attr-defined]

            def check_report(results: object) -> None:
                direct, rewritten = results  # type: ignore[misc]
                require(bool(direct), f"{name}: empty report")
                require(direct == rewritten, f"{name}: rewritten report differs")

            for _ in range(REPORTS_PER_REWRITE):
                recorder.op(
                    f"report_ms:{name}",
                    # Called through the package, so the traced run sees the wrapper.
                    lambda: (
                        repro.evaluate(report, scenario.database),
                        repro.evaluate(best, self.extents),
                    ),
                    check_report,
                    prepare=clear_caches,
                )

    def _mean_of_medians(self, recorder: Recorder, metric: str) -> float:
        medians = [
            statistics.median(values)
            for key, values in recorder.samples.items()
            if key.startswith(metric + ":")
        ]
        return statistics.fmean(medians) if medians else 0.0

    def end_to_end(self, recorder: Recorder) -> dict[str, float]:
        return {
            "decide_ms": self._mean_of_medians(recorder, "rewrite_ms"),
            "answer_ms": self._mean_of_medians(recorder, "report_ms"),
        }

    def layer_extras(self, recorder: Recorder, _totals: object, _counters: dict) -> dict[str, float]:
        verified = recorder.extras["rewriting.verified"]
        return {"rewriting.safe_ratio": recorder.extras["rewriting.safe"] / verified if verified else 0.0}
