"""Work decomposition for the parallel decision subsystem.

The decision procedures factor into independent, picklable check tasks:

* :class:`SweepRangeCheckTask` — a shard of a subset search (a catalog
  sweep, or the one-pair sweep behind ``bounded_equivalence``):
  ``(start, count)`` ranges of the orbit-canonical subset enumeration,
  checked against every ordering class and every still-open pair of
  isomorphism classes.  Workers rebuild the run state (BASE, orderings,
  aggregation function) and re-enumerate the subset stream locally,
  memoizing the setup per process, so tasks stay small on the wire.  A shard
  reports only *where* each pair first fails (a
  :class:`~repro.core.bounded.Failure`); witnesses are realized by the
  parent once the merged search is over.
* :class:`PairCheckTask` — one (name_a, name_b) cell of an equivalence
  matrix, dispatched through :func:`repro.core.equivalence.are_equivalent`.
  The catalog planner sends only the cells no sweep can decide here (mixed
  shapes, procedures other than local equivalence, and cells whose BASE
  exceeds the subset budget); the per-pair reference of the sweep tests
  runs every cell this way.

Outcomes carry global positions, so merging is deterministic: the verdict
never depends on worker scheduling, and when several shards report
failures for a pair the one at the smallest (subset, ordering) position
wins.  (Under early-exit cancellation the set of *reporting* shards can
depend on timing, so the chosen failure — and the witness realized from it,
always valid — may vary between runs; pair tasks have no early exit and
are fully reproducible.)
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..core.bounded import (
    CanonicalSubsetEnumerator,
    CheckStats,
    Failure,
    SweepRunSetup,
    check_subset_sweep,
    prepare_sweep_run,
)
from ..caches import put_bounded, register_cache
from ..core.equivalence import EquivalenceResult, Verdict, are_equivalent
from ..datalog.queries import Query
from ..domains import Domain
from ..engine.modes import DEFAULT_ENGINE, active_engine, engine_scope
from ..obs import REGISTRY as _OBS
from ..obs import span as _span
from .executor import Executor, cancellation_requested, in_worker


def capture_worker_metrics() -> Optional[dict]:
    """A pre-task registry snapshot — but only inside a pool worker.

    In the parent (serial executors, warm prefixes) the task's counters land
    in the parent registry directly, so capturing a delta there would double
    count; ``None`` marks that case.
    """
    return _OBS.snapshot() if in_worker() else None


def attach_worker_metrics(outcome, before: Optional[dict]):
    """Attach the registry delta since ``before`` to a task outcome."""
    if before is not None:
        outcome.metrics = _OBS.diff(before) or None
    return outcome


def absorb_worker_metrics(outcomes: Iterable) -> None:
    """Fold worker-shipped counter deltas into the parent registry under the
    ``worker.`` scope.

    Deterministic by construction: deltas are added counter-wise and integer
    addition commutes, so the merged totals are independent of worker
    scheduling and of which worker ran which task.
    """
    for outcome in outcomes:
        delta = getattr(outcome, "metrics", None)
        if delta:
            _OBS.merge(delta, prefix="worker.")


# ----------------------------------------------------------------------
# Subset-search shards
# ----------------------------------------------------------------------
#: Per-process memo of sweep setups, so a worker prepares BASE and the
#: ordering classes once per (catalog, bound) no matter how many shards it
#: executes.  Setups are heavy (materialized BASE + orderings), so the memo
#: is capped: on overflow the oldest entries are evicted (dicts iterate
#: insertion-first).
_SETUP_MEMO: dict[tuple, object] = {}
_SETUP_MEMO_LIMIT = 64


def clear_setup_memo() -> None:
    """Drop every memoized run setup and reset its build/hit counters.

    Registered under ``clear_evaluation_caches``: the setups hold
    materialized BASEs and ordering classes keyed by query identity, so any
    reset that drops the evaluation caches must drop them too — a stale
    setup surviving into a reused process is exactly the leak the
    cache-discipline checker exists to prevent.
    """
    _SETUP_MEMO.clear()
    _OBS.reset("parallel.setup.")


register_cache("parallel/tasks.py:_SETUP_MEMO", "clear_evaluation_caches", clear_setup_memo)


@dataclass(frozen=True)
class SweepRangeCheckTask:
    """A picklable shard of a subset search, described by ``(start, count)``
    ranges of the canonical enumeration.

    Workers re-derive the subset stream locally in one streaming pass
    (:func:`_sweep_range_rows`), so the pickle carries a handful of integers
    per shard instead of every subset's index tuple — for huge BASEs that is
    the whole task payload.  The trade is redundant enumeration (each worker
    walks the stream up to its last assigned position), so exactly one shard
    is built per worker with finer-grained blocks inside; ranges are assigned
    block-cyclically, so every shard sees the same size profile at block
    granularity.  When the pool was forked after the parent's warm prefix,
    workers also inherit the already populated shared group-index cache
    copy-on-write.

    ``pairs`` are the still-open pairs of isomorphism classes, named by
    their representatives in ``queries``.
    """

    index: int
    queries: tuple[tuple[str, Query], ...]
    pairs: tuple[tuple[str, str], ...]
    bound: int
    domain: Domain
    semantics: str
    ranges: tuple[tuple[int, int], ...]
    #: The evaluation engine the parent had active when the task was built;
    #: the runner restores it around the shard so spawn-started workers (which
    #: re-read ``REPRO_ENGINE`` at import) still decide under the same engine.
    #: Deliberately absent from ``_setup_key``: setups hold engine-neutral
    #: state (BASE, orderings), so shards of differing engines may share one.
    engine: str = DEFAULT_ENGINE

    def _setup_key(self) -> tuple:
        return (
            self.queries,
            self.bound,
            self.domain,
            self.semantics,
        )


@dataclass
class SweepCheckOutcome:
    """The result of one sweep shard: merged statistics plus, for every pair
    the shard saw fail, its first :class:`~repro.core.bounded.Failure` and
    the global position of its subset."""

    task_index: int
    stats: CheckStats
    found: tuple[tuple[tuple[str, str], int, Failure], ...] = ()
    cancelled: bool = False
    #: The worker-side metrics-registry delta for this task (``None`` when the
    #: task ran in the parent process); see :func:`absorb_worker_metrics`.
    metrics: Optional[dict] = None


def _memoized_setup(key: tuple, build):
    setup = _SETUP_MEMO.get(key)
    if setup is None:
        _OBS.inc("parallel.setup.builds")
        setup = build()
        put_bounded(_SETUP_MEMO, key, setup, _SETUP_MEMO_LIMIT)
    else:
        _OBS.inc("parallel.setup.hits")
    return setup


def _sweep_setup_for(task: SweepRangeCheckTask) -> SweepRunSetup:
    return _memoized_setup(
        task._setup_key(),
        lambda: prepare_sweep_run(
            dict(task.queries), task.bound, task.domain, task.semantics
        ),
    )


def _sweep_range_rows(
    task: SweepRangeCheckTask,
) -> "Iterator[tuple[int, tuple[int, ...]]]":
    """The positioned subset rows a range shard owns, re-enumerated locally.

    The canonical enumeration is a pure function of the setup (str-sorted
    BASE, orderly generation), so every worker derives exactly the stream the
    parent numbered — the whole point of shipping ``(start, count)`` ranges
    instead of materialized subset rows.  The stream is *not* materialized:
    one pass yields only the positions inside the shard's (ascending) ranges
    and stops after the last of them, keeping worker memory O(1) in the
    stream length.
    """
    setup = _sweep_setup_for(task)
    spans = iter(task.ranges)
    span = next(spans, None)
    last_needed = task.ranges[-1][0] + task.ranges[-1][1] - 1 if task.ranges else -1
    for position, indices in enumerate(CanonicalSubsetEnumerator(setup.base, setup.fresh)):
        if position > last_needed or span is None:
            return
        while span is not None and position >= span[0] + span[1]:
            span = next(spans, None)
        if span is not None and span[0] <= position:
            yield position, indices


def run_sweep_range_task(task: SweepRangeCheckTask) -> SweepCheckOutcome:
    """Execute one range shard: re-enumerate the canonical stream locally and
    check the positions the ranges select, until every assigned pair failed
    locally or the pool's cancellation event fires."""
    before = capture_worker_metrics()
    with engine_scope(task.engine):
        outcome = _sweep_range_outcome(task)
    return attach_worker_metrics(outcome, before)


def _sweep_range_outcome(task: SweepRangeCheckTask) -> SweepCheckOutcome:
    setup = _sweep_setup_for(task)
    stats = CheckStats()
    open_pairs = list(task.pairs)
    found: list[tuple[tuple[str, str], int, Failure]] = []
    base = setup.base
    for position, indices in _sweep_range_rows(task):
        if not open_pairs:
            break
        if cancellation_requested():
            return SweepCheckOutcome(task.index, stats, tuple(found), cancelled=True)
        stats.subsets_examined += 1
        hits = check_subset_sweep(setup, frozenset(base[i] for i in indices), open_pairs, stats)
        for pair, ordering_position, identity_failed in hits:
            found.append((pair, position, Failure(indices, ordering_position, identity_failed)))
            open_pairs.remove(pair)
    return SweepCheckOutcome(task.index, stats, tuple(found))


#: Blocks per shard in :func:`block_cyclic_ranges`: enough that every shard
#: sees the whole size profile of the stream, few enough to keep the range
#: tuples small on the wire.
_BLOCKS_PER_SHARD = 16


def block_cyclic_ranges(
    start: int, count: int, shards: int
) -> list[tuple[tuple[int, int], ...]]:
    """Partition ``[start, start + count)`` into per-shard ``(start, count)``
    range tuples: the span is cut into :data:`_BLOCKS_PER_SHARD` blocks per
    shard dealt round-robin, so every shard sees the same mix of cheap
    (small, early) and expensive (large, late) subsets at block
    granularity."""
    if count <= 0 or shards <= 0:
        return []
    shards = min(shards, count)
    block_count = min(count, shards * _BLOCKS_PER_SHARD)
    size, remainder = divmod(count, block_count)
    ranges: list[list[tuple[int, int]]] = [[] for _ in range(shards)]
    position = start
    for block in range(block_count):
        length = size + (1 if block < remainder else 0)
        ranges[block % shards].append((position, length))
        position += length
    return [tuple(blocks) for blocks in ranges if blocks]


def sweep_range_tasks(
    queries: tuple[tuple[str, Query], ...],
    pairs: Sequence[tuple[str, str]],
    bound: int,
    domain: Domain,
    semantics: str,
    start: int,
    count: int,
    shards: int,
) -> list[SweepRangeCheckTask]:
    """Build range shards covering positions ``[start, start + count)``."""
    return [
        SweepRangeCheckTask(
            index=index,
            queries=queries,
            pairs=tuple(pairs),
            bound=bound,
            domain=domain,
            semantics=semantics,
            ranges=ranges,
            engine=active_engine(),
        )
        for index, ranges in enumerate(block_cyclic_ranges(start, count, shards))
    ]


def parallel_sweep_search(
    *,
    setup: SweepRunSetup,
    pairs: Sequence[tuple[str, str]],
    bound: int,
    domain: Domain,
    semantics: str,
    start: int,
    count: int,
    stats: CheckStats,
    executor: Executor,
) -> tuple[dict[tuple[str, str], Failure], str]:
    """Shard positions ``[start, start + count)`` of a subset search across an
    executor and merge the shards' failures (called by the search loop
    behind :func:`repro.core.bounded.sweep_equivalence` and
    :func:`repro.core.bounded.bounded_equivalence`, after the warm prefix
    when the executor wants one).  Returns each failing pair's first
    :class:`~repro.core.bounded.Failure` and a note for the reports; the
    shards' statistics are folded into ``stats``.

    One shard per worker: a range worker re-enumerates the stream up to its
    last assigned position, so extra shards would multiply that redundant
    enumeration; load balance comes from the finer block-cyclic blocks
    inside each shard instead.

    ``setup`` is the parent's run state; it seeds the per-process setup memo
    before the pool forks, so a worker's first lookup hands back the
    parent's own query objects.  Every shared-cache entry the parent (or its
    warm prefix) keyed by those objects then matches by identity, instead of
    by a field-by-field comparison against equal unpickled copies on every
    lookup.

    The merge is deterministic: for every pair the failure at the smallest
    global (subset, ordering) position wins, so verdicts never depend on
    worker scheduling.  Cancellation fires only once *every* pair has a
    failure, so pairs left standing really survived the whole enumeration.
    """
    tasks = sweep_range_tasks(
        tuple(setup.queries.items()), pairs, bound, domain, semantics,
        start, count, executor.workers,
    )
    if tasks:
        _memoized_setup(tasks[0]._setup_key(), lambda: setup)
    remaining = set(pairs)

    def all_settled(outcome: SweepCheckOutcome) -> bool:
        for pair, _position, _failure in outcome.found:
            remaining.discard(pair)
        return not remaining

    with _span("sweep.enumerate.parallel", shards=len(tasks)):
        outcomes = executor.run(run_sweep_range_task, tasks, stop=all_settled)
    best: dict[tuple[str, str], tuple[tuple[int, int], Failure]] = {}
    cancelled = 0
    absorb_worker_metrics(outcomes)
    for outcome in outcomes:
        stats.merge(outcome.stats)
        if outcome.cancelled:
            cancelled += 1
        for pair, position, failure in outcome.found:
            known = best.get(pair)
            if known is None or (position, failure.ordering) < known[0]:
                best[pair] = ((position, failure.ordering), failure)
    note = (
        f"parallel sweep: {len(tasks)} shard(s) over {executor.workers} worker(s)"
        + (f", {cancelled} cancelled after full settlement" if cancelled else "")
    )
    return {pair: failure for pair, (_position, failure) in best.items()}, note


# ----------------------------------------------------------------------
# Equivalence-matrix shards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairCheckTask:
    """One cell of an equivalence matrix, with everything the dispatcher
    needs (picklable)."""

    index: int
    name_a: str
    name_b: str
    first: Query
    second: Query
    domain: Domain
    counterexample_trials: int
    max_subsets: int
    unknown_bound: Optional[int]
    seed: Optional[int]
    #: Engine captured at build time; restored by the runner (see
    #: :class:`SweepRangeCheckTask`).
    engine: str = DEFAULT_ENGINE


@dataclass
class PairOutcome:
    task_index: int
    name_a: str
    name_b: str
    result: EquivalenceResult
    #: Worker-side registry delta (``None`` when run in the parent); see
    #: :func:`absorb_worker_metrics`.
    metrics: Optional[dict] = None


def derive_pair_seed(seed: Optional[int], name_a: str, name_b: str) -> Optional[int]:
    """A deterministic per-pair seed (stable across runs and processes, unlike
    the salted builtin ``hash``)."""
    if seed is None:
        return None
    return zlib.crc32(f"{seed}:{name_a}:{name_b}".encode())


def run_pair_task(task: PairCheckTask) -> PairOutcome:
    """Decide one matrix cell.  Pairs mixing an aggregate with a non-aggregate
    query are recorded as ``incomparable shapes`` rather than raising, so one
    odd catalog entry does not abort the sweep."""
    before = capture_worker_metrics()
    if task.first.is_aggregate != task.second.is_aggregate:
        # repro: allow[verdict-soundness] -- the shape mismatch itself is the witness: an aggregate and a non-aggregate query differ on result type over every database
        result = EquivalenceResult(
            Verdict.NOT_EQUIVALENT,
            method="incomparable shapes",
            domain=task.domain,
            details="one query is aggregate and the other is not",
        )
    else:
        with engine_scope(task.engine):
            result = are_equivalent(
                task.first,
                task.second,
                domain=task.domain,
                counterexample_trials=task.counterexample_trials,
                max_subsets=task.max_subsets,
                unknown_bound=task.unknown_bound,
                seed=derive_pair_seed(task.seed, task.name_a, task.name_b),
            )
    return attach_worker_metrics(
        PairOutcome(task.index, task.name_a, task.name_b, result), before
    )


def pair_check_tasks(
    queries: Mapping[str, Query],
    *,
    domain: Domain,
    counterexample_trials: int,
    max_subsets: int,
    unknown_bound: Optional[int],
    seed: Optional[int],
    pairs: Optional[Sequence[tuple[str, str]]] = None,
) -> list[PairCheckTask]:
    """One task per unordered pair of catalog queries (``name_a < name_b``).

    ``pairs`` restricts the tasks to the given cells (used by the sweep
    planner for the cells no sweep group owns); ``None`` means every
    unordered pair.
    """
    if pairs is None:
        pairs = itertools.combinations(sorted(queries), 2)
    tasks: list[PairCheckTask] = []
    for name_a, name_b in pairs:
        tasks.append(
            PairCheckTask(
                index=len(tasks),
                name_a=name_a,
                name_b=name_b,
                first=queries[name_a],
                second=queries[name_b],
                domain=domain,
                counterexample_trials=counterexample_trials,
                max_subsets=max_subsets,
                unknown_bound=unknown_bound,
                seed=seed,
                engine=active_engine(),
            )
        )
    return tasks
