"""Parallel decision subsystem: sharded bounded equivalence, catalog sweeps,
and equivalence matrices.

The decision procedures of the paper enumerate huge but *independent* check
spaces — (subset, ordering-class) rows of a subset search (a catalog sweep,
or the one-pair sweep behind bounded equivalence) and query pairs for an
equivalence matrix.  This package splits those spaces into picklable shards
(:mod:`repro.parallel.tasks`: :class:`SweepRangeCheckTask` and
:class:`PairCheckTask`) and runs them through pluggable executors
(:mod:`repro.parallel.executor`): serial for reference and debugging, or a
multiprocessing pool with chunked dispatch, early exit via a shared
cancellation event, and deterministic merging of verdicts and witnesses.  Sweep pools are forked after a serial warm prefix, so workers
inherit the parent's shared group-index cache copy-on-write.

Users normally reach this subsystem through ``workers=N`` on
:func:`repro.core.bounded.bounded_equivalence` or
:func:`repro.workloads.equivalence_matrix`; the ``REPRO_WORKERS`` environment
variable sets the default worker count process-wide (a malformed value warns
and falls back to serial).
"""

from .executor import (
    PersistentProcessExecutor,
    ProcessExecutor,
    SerialExecutor,
    cancellation_requested,
    default_workers,
    in_worker,
    resolve_executor,
)
from .tasks import (
    PairCheckTask,
    PairOutcome,
    SweepCheckOutcome,
    SweepRangeCheckTask,
    block_cyclic_ranges,
    derive_pair_seed,
    pair_check_tasks,
    parallel_sweep_search,
    run_pair_task,
    run_sweep_range_task,
    sweep_range_tasks,
)

__all__ = [
    "PairCheckTask",
    "PairOutcome",
    "PersistentProcessExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "SweepCheckOutcome",
    "SweepRangeCheckTask",
    "block_cyclic_ranges",
    "cancellation_requested",
    "default_workers",
    "derive_pair_seed",
    "in_worker",
    "pair_check_tasks",
    "parallel_sweep_search",
    "resolve_executor",
    "run_pair_task",
    "run_sweep_range_task",
    "sweep_range_tasks",
]
