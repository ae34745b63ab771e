"""Workload ``audit-matrix``: a cold equivalence matrix against a restart
served from the verdict store, interleaved.

``matrix_ms`` is one cold ``Workspace(workers=1, store=False)`` deciding
the 28-query audit catalog (378 cells) after the public cache resets: the
sweep, planner, kernel and symbolic layers do nearly all of it.
``restart_ms`` (two per matrix) is what a restarted process pays for the same catalog: a new
``Workspace`` over a new ``VerdictStore`` on the file set-up filled, with
the in-process caches cleared first, so every cell is served from the
store and no subset is examined.  A sweep change should move the first
and leave the second alone; a store change the reverse.

Reported as ``decide_ms`` (median matrix) and ``answer_ms`` (median
restart).  Every third cycle ends with a new set-up (a fresh store file),
which the following restarts read.
"""

from __future__ import annotations

import os
import shutil
from typing import Optional

from catalog import audit_catalog, expected_equivalent
from harness import CheckFailed, InProcessWorkload, Recorder, require

from repro import Workspace
from repro.engine import clear_evaluation_caches, clear_plan_cache, clear_symbolic_caches
from repro.engine.planner import plan_cache_stats
from repro.obs import REGISTRY
from repro.service import clear_service_caches
from repro.store import VerdictStore

#: Restarts per cold matrix: restarts are ~20x cheaper, so two per cycle
#: give their median more samples at little cost.
RESTARTS_PER_MATRIX = 2

#: Cycles per interleaved set-up (which costs about one cycle).
CYCLES_PER_SETUP = 3


def clear_caches() -> None:
    """The public resets of every in-process decision cache."""
    clear_symbolic_caches()
    clear_evaluation_caches()
    clear_plan_cache()


def registry_snapshot() -> dict[str, int]:
    """The metrics registry plus the planner's cache statistics, which the
    registry does not mirror."""
    snapshot = REGISTRY.snapshot()
    for key, value in plan_cache_stats().items():
        snapshot[f"plan.{key}"] = value
    return snapshot


def cells_of(matrix: dict) -> dict[tuple[str, str], tuple[str, str]]:
    return {pair: (result.verdict.value, result.method) for pair, result in matrix.items()}


class AuditMatrix(InProcessWorkload):
    """The ``audit-matrix`` workload over one seeded catalog."""

    meaning = {
        "decide_ms": "matrix_ms, a cold 378-cell matrix",
        "answer_ms": "restart_ms, the matrix served from the store file",
    }

    registry = staticmethod(registry_snapshot)

    def __init__(self, seed: int, scratch: str, _trace_path: Optional[str]) -> None:
        self.catalog = audit_catalog(seed)
        self.expected = expected_equivalent(self.catalog)
        self.scratch = scratch
        self.setups = 0
        self.store_path = ""
        self.reference: dict[tuple[str, str], tuple[str, str]] = {}

    def _workspace(self, store: object) -> Workspace:
        workspace = Workspace(workers=1, store=store)  # type: ignore[arg-type]
        for name, (text, _class) in self.catalog.items():
            workspace.add(text, name=name)
        return workspace

    # ------------------------------------------------------------------
    def prepare_setup(self) -> None:
        clear_caches()
        clear_service_caches()
        if self.store_path:
            shutil.rmtree(os.path.dirname(self.store_path), ignore_errors=True)
        self.setups += 1
        directory = os.path.join(self.scratch, f"store-{self.setups}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        self.store_path = os.path.join(directory, "verdicts.sqlite")

    def setup(self) -> None:
        """One cold decision against a fresh disk store: it fills the store
        the restarts read, and the first one becomes the reference matrix,
        which every later set-up must reproduce."""
        store = VerdictStore(self.store_path)
        try:
            matrix = self._workspace(store).equivalences()
        finally:
            store.close()
        for pair, equivalent in self.expected.items():
            if matrix[pair].is_equivalent != equivalent:
                raise CheckFailed(f"reference cell {pair} is {matrix[pair].verdict.value}")
        if not self.reference:
            self.reference = cells_of(matrix)
        elif cells_of(matrix) != self.reference:
            raise CheckFailed("a set-up's matrix differs from the reference")

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    def _check_matrix(self, matrix: dict) -> None:
        require(len(matrix) == len(self.reference), f"{len(matrix)} cells")
        require(cells_of(matrix) == self.reference, "matrix differs from the reference")

    def cycle(self, recorder: Recorder, index: int) -> None:
        def check_matrix(matrix: object) -> None:
            self._check_matrix(matrix)  # type: ignore[arg-type]
            recorder.extras["equivalence.unknown_cells"] += sum(
                1 for result in matrix.values() if result.verdict.value == "unknown"  # type: ignore[attr-defined]
            )

        recorder.op(
            "matrix_ms",
            lambda: self._workspace(False).equivalences(),
            check_matrix,
            prepare=clear_caches,
        )

        examined_before = [0]
        stores: list[VerdictStore] = []

        def prepare_restart() -> None:
            clear_caches()
            clear_service_caches()
            examined_before[0] = REGISTRY.get("sweep.subsets.examined")

        def restart() -> tuple[Workspace, dict]:
            store = VerdictStore(self.store_path)
            stores.append(store)
            workspace = self._workspace(store)
            return workspace, workspace.equivalences()

        def check_restart(value: object) -> None:
            workspace, matrix = value  # type: ignore[misc]
            self._check_matrix(matrix)
            require(workspace.stats().decided_cells == 0, "a restart decided cells")
            require(
                REGISTRY.get("sweep.subsets.examined") == examined_before[0],
                "a restart examined subsets",
            )

        for _ in range(RESTARTS_PER_MATRIX):
            recorder.op("restart_ms", restart, check_restart, prepare=prepare_restart)
            for store in stores:
                store.close()

        if index % CYCLES_PER_SETUP == CYCLES_PER_SETUP - 1:
            recorder.resetup(self)

    def end_to_end(self, recorder: Recorder) -> dict[str, float]:
        return {
            "decide_ms": recorder.median("matrix_ms"),
            "answer_ms": recorder.median("restart_ms"),
        }

    def layer_extras(self, recorder: Recorder, _totals: object, _counters: dict) -> dict[str, float]:
        return {
            "equivalence.unknown_cells":
                recorder.extras["equivalence.unknown_cells"] / max(1, recorder.cycles)
        }
