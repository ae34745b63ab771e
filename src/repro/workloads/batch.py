"""Batched evaluation and pairwise equivalence over query catalogs.

Workload scenarios (see :mod:`repro.workloads.scenarios`) carry *catalogs* —
named families of queries posed against one database.  This module provides
the batched entry points the examples and benchmarks drive:

* :func:`evaluate_many` — evaluate every query of a catalog over a database
  (the memoized, compiled engine makes repeated and overlapping evaluations
  cheap), and
* :func:`equivalence_matrix` — run the paper's strongest applicable decision
  procedure on every unordered pair of catalog queries, the bulk analogue of
  :func:`repro.core.equivalence.are_equivalent`.

The planner (:func:`plan_catalog_sweep`) asks the dispatcher how each cell
is decided (:func:`repro.core.equivalence.route_pair`).  Every cell routed to
bounded local equivalence within the subset budget joins the *sweep group*
of the cells whose search reads the same inputs: the same function and the
same search space the route carries (vocabulary, constants, τ and
comparison flag), hence the same BASE and orderings as the cell's own local
check.  Each group is decided by :func:`repro.core.bounded.sweep_equivalence`
— **one** subset/ordering enumeration for the whole group, with all queries
evaluated per (S, L) via the shared Γ caches and the pairs compared in-loop —
turning the Γ work from O(pairs) into O(queries);
:func:`repro.core.equivalence.local_result` states each report as the pair
path would.  Cells outside every group (mixed shapes, different functions,
quasilinear pairs, undecided fragments, cells whose BASE would blow the
subset budget) run as independent, picklable pair tasks through
:func:`repro.core.equivalence.are_equivalent` — one task per isomorphism
class pair for the cells settled by a seeded counterexample search, whose
outcome is the same for every member cell.

Both kinds of work route through the parallel subsystem
(:mod:`repro.parallel`): ``workers=N`` shards the sweep's subset stream and
the pair tasks across one process pool; ``workers=None`` honours the
``REPRO_WORKERS`` environment variable; the serial path runs the very same
work items through the serial executor, so the two can never diverge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from ..core.bounded import DEFAULT_MAX_SUBSETS, sweep_equivalence
from ..core.counterexample import DEFAULT_COUNTEREXAMPLE_TRIALS
from ..core.equivalence import (
    DIFFERENT_FUNCTIONS,
    SET_LOCAL_EQUIVALENCE,
    UNDECIDED_FRAGMENT,
    EquivalenceResult,
    PairRoute,
    local_result,
    route_pair,
)
from ..datalog.database import Database
from ..datalog.queries import Query
from ..domains import Domain
from ..errors import ReproError
from ..engine.evaluator import evaluate
from ..obs import REGISTRY as _OBS
from ..obs import span as _span
from ..parallel.executor import Executor, SerialExecutor, resolve_executor
from ..parallel.tasks import absorb_worker_metrics, pair_check_tasks, run_pair_task


def evaluate_many(queries: Mapping[str, Query], database: Database) -> dict[str, object]:
    """Evaluate every query of the catalog over the database.

    Returns ``{name: result}`` where each result follows
    :func:`repro.engine.evaluate` (a dict for aggregate queries, a set of
    tuples otherwise).
    """
    return {name: evaluate(query, database) for name, query in queries.items()}


# ----------------------------------------------------------------------
# Sweep planning
# ----------------------------------------------------------------------
@dataclass
class SweepGroup:
    """One single-sweep sub-catalog: the effective query forms, the cells the
    sweep decides with each cell's dispatcher route, and the bound τ every
    one of those cells shares."""

    key: tuple
    queries: dict[str, Query]
    pairs: list[tuple[str, str]]
    routes: dict[tuple[str, str], PairRoute]
    bound: int


@dataclass
class SweepPlan:
    """The output of :func:`plan_catalog_sweep`: sweep groups plus the cells
    left on the per-pair task path, with each such cell's route (``None``
    for a cell mixing an aggregate with a non-aggregate query)."""

    groups: list[SweepGroup] = field(default_factory=list)
    pair_path: list[tuple[str, str]] = field(default_factory=list)
    pair_routes: dict[tuple[str, str], Optional[PairRoute]] = field(default_factory=dict)


def plan_catalog_sweep(
    queries: Mapping[str, Query],
    domain: Domain = Domain.RATIONALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    *,
    pairs: Optional[Sequence[tuple[str, str]]] = None,
) -> SweepPlan:
    """Partition the matrix cells of a catalog into single-sweep groups and
    per-pair fallbacks.

    A cell is swept exactly when its dispatcher route
    (:func:`repro.core.equivalence.route_pair`) is bounded local
    equivalence — both queries non-aggregate, or both aggregate with one
    shared function, possibly after the sum ≡ c·count normalization unifies
    them, outside the quasilinear fragment — and the route fits
    ``max_subsets`` (:meth:`~repro.core.equivalence.PairRoute.fits`).  Cells
    are grouped by the route's function and the search space the route
    carries (:class:`~repro.core.equivalence.SearchSpace`: both forms'
    predicates with arities, their constants, τ and the comparison flag),
    exactly the inputs their local search reads.  A group's BASE and
    ordering classes are therefore those of each of its cells, and every
    swept cell runs the enumeration its pair task would.  A query may appear
    in several groups under different forms (a pinned sum meets counts in
    count form and unpinned sums in sum form), but every cell is owned by
    exactly one group or by the pair path.

    The planner derives nothing the route does not carry: routing sees
    ``max_subsets`` too, so a cell whose count forms would blow the budget
    is routed on its originals, as
    :func:`~repro.core.equivalence.are_equivalent` routes it, and an
    over-budget local route stays on the pair path, whose budget guard
    raises.  Each pair-path cell's route is kept in
    :attr:`SweepPlan.pair_routes`, from which :func:`decide_pairs` finds the
    counterexample searches an isomorphism class pair can share.

    ``pairs`` restricts the plan to the given cells (each normalized to
    ``name_a < name_b``); ``None`` plans every unordered pair.
    """
    if pairs is None:
        cells = itertools.combinations(sorted(queries), 2)
    else:
        cells = sorted({tuple(sorted(pair)) for pair in pairs})
        for name_a, name_b in cells:
            if name_a not in queries or name_b not in queries:
                raise ReproError(
                    f"sweep plan pair ({name_a!r}, {name_b!r}) names an unknown query"
                )
    plan = SweepPlan()
    grouped: dict[tuple, SweepGroup] = {}
    for name_a, name_b in cells:
        first, second = queries[name_a], queries[name_b]
        pair = (name_a, name_b)
        if first.is_aggregate != second.is_aggregate:
            # Mixed shapes have no route; their pair task records them.
            plan.pair_path.append(pair)
            plan.pair_routes[pair] = None
            continue
        route = route_pair(first, second, domain, max_subsets)
        if route.space is None or not route.fits(max_subsets):
            plan.pair_path.append(pair)
            plan.pair_routes[pair] = route
            continue
        kind: tuple = (
            ("plain",)
            if route.procedure == SET_LOCAL_EQUIVALENCE
            else ("agg", route.first.aggregate.function)
        )
        key = kind + route.space
        group = grouped.get(key)
        if group is None:
            group = SweepGroup(key=key, queries={}, pairs=[], routes={}, bound=route.space.bound)
            grouped[key] = group
            plan.groups.append(group)
        group.queries[name_a] = route.first
        group.queries[name_b] = route.second
        group.pairs.append(pair)
        group.routes[pair] = route
    return plan


def sweep_group_label(group: SweepGroup) -> str:
    """A human-readable identity for a sweep group, used by trace spans and
    by ``Workspace.explain`` provenance: the dispatch kind, the member
    queries sharing the enumeration, and the group bound."""
    kind = group.key[0]
    tag = kind if kind != "agg" else f"agg:{group.key[1]}"
    return f"{tag}({'+'.join(sorted(group.queries))})τ={group.bound}"


# ----------------------------------------------------------------------
# The equivalence matrix
# ----------------------------------------------------------------------
def decide_pairs(
    queries: Mapping[str, Query],
    pairs: Optional[Sequence[tuple[str, str]]] = None,
    domain: Domain = Domain.RATIONALS,
    counterexample_trials: int = DEFAULT_COUNTEREXAMPLE_TRIALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    unknown_bound: Optional[int] = None,
    *,
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: Optional[int] = None,
    pair_runner=run_pair_task,
    provenance: Optional[dict] = None,
) -> dict[tuple[str, str], EquivalenceResult]:
    """Decide a set of catalog cells: the shared engine behind
    :func:`equivalence_matrix` (all unordered pairs), the incremental
    session (:meth:`repro.session.Workspace.equivalences`, the delta cells
    of a growing catalog), and the rewriting verifier
    (:meth:`repro.rewriting.engine.RewritingEngine.verify`, one row of
    (target, candidate) cells).

    ``pairs`` restricts the work to the given cells (``None`` means every
    unordered pair); ``pair_runner`` lets callers wrap the per-cell task
    execution (it must stay a picklable module-level function — the
    rewriting engine uses this to degrade budget-blown cells to UNKNOWN
    instead of aborting the batch).  Sweep-eligible cells are decided in
    single-sweep groups; everything else runs through ``pair_runner``.
    Without a ``seed``, the cells whose route is a counterexample search
    (``DIFFERENT_FUNCTIONS``, or ``UNDECIDED_FRAGMENT`` without
    ``unknown_bound``) run one task per ``(class key a, class key b)``;
    every other cell runs its own task (:func:`_pair_task_cells`).  A cell
    sharing another cell's task receives a copy of its result and witness;
    tasks run are counted under ``batch.pair_tasks``.

    ``workers`` / ``executor`` are resolved once
    (:func:`repro.parallel.executor.resolve_executor`): every sweep group and
    then the pair tasks run on that one executor, so a one-shot
    ``workers=N`` call forks at most one pool.

    ``provenance``, when given a dict, receives one entry per decided cell
    describing *how* it was decided — ``"sweep:<group label>"`` for cells a
    shared single-sweep enumeration carried, ``"pair"`` for standalone pair
    tasks.  The session layer feeds this into ``Workspace.explain``.
    """
    with resolve_executor(workers, executor) as pool:
        results: dict[tuple[str, str], EquivalenceResult] = {}
        with _span("sweep.plan", cells=-1 if pairs is None else len(pairs)) as plan_span:
            plan = plan_catalog_sweep(
                queries,
                domain=domain,
                max_subsets=max_subsets,
                pairs=pairs,
            )
            plan_span.note(groups=len(plan.groups), pair_path=len(plan.pair_path))
        for group in plan.groups:
            label = sweep_group_label(group)
            with _span("sweep.group", group=label, pairs=len(group.pairs)):
                reports = sweep_equivalence(
                    group.queries,
                    group.pairs,
                    group.bound,
                    domain=domain,
                    max_subsets=max_subsets,
                    # Already resolved: ``pool=None`` means serial.
                    workers=1,
                    executor=pool,
                    seed=seed,
                )
            for (name_a, name_b), report in reports.items():
                results[(name_a, name_b)] = local_result(
                    group.routes[(name_a, name_b)], report, domain,
                    queries[name_a], queries[name_b],
                )
                if provenance is not None:
                    provenance[(name_a, name_b)] = f"sweep:{label}"
        task_cells = _pair_task_cells(queries, plan, seed, unknown_bound)
        tasks = pair_check_tasks(
            queries,
            domain=domain,
            counterexample_trials=counterexample_trials,
            max_subsets=max_subsets,
            unknown_bound=unknown_bound,
            seed=seed,
            pairs=list(dict.fromkeys(task_cells.values())),
        )
        if tasks:
            _OBS.inc("batch.pair_tasks", len(tasks))
        runner = SerialExecutor().run if pool is None else pool.run
        outcomes = runner(pair_runner, tasks)
        absorb_worker_metrics(outcomes)
        decided = {(outcome.name_a, outcome.name_b): outcome.result for outcome in outcomes}
        for pair, task_pair in task_cells.items():
            result = decided[task_pair]
            if pair != task_pair:
                result = replace(
                    result,
                    counterexample=None
                    if result.counterexample is None
                    else replace(result.counterexample),
                )
            results[pair] = result
            if provenance is not None:
                provenance[pair] = "pair"
        return results


#: The pair-path procedures whose outcome is a seeded counterexample search
#: on the original queries: the only pair tasks one isomorphism class pair
#: can share.
_SEARCH_PROCEDURES = (DIFFERENT_FUNCTIONS, UNDECIDED_FRAGMENT)


def _pair_task_cells(
    queries: Mapping[str, Query],
    plan: SweepPlan,
    seed: Optional[int],
    unknown_bound: Optional[int],
) -> dict[tuple[str, str], tuple[str, str]]:
    """Map every pair-path cell, in plan order, to the cell whose pair task
    decides it: itself, or the first cell of its isomorphism class pair.

    A counterexample-search route (:data:`_SEARCH_PROCEDURES`) draws its
    databases from the pair's predicates, arities and constants and the
    pair seed, and isomorphic queries agree on every database — so cells
    with equal ``(evaluation key a, evaluation key b)`` under the shared
    default seed find the same witness and state the same outcome.  With an
    explicit ``seed`` the derived pair seeds differ per cell, so nothing is
    shared.  An undecided-fragment cell with an ``unknown_bound`` also runs
    a bounded search, whose fresh terms avoid the queries' own variable
    names, so it runs its own task; so do quasilinear and all other routes,
    whose results carry the cell's own isomorphism and reduced queries."""
    owner = {pair: pair for pair in plan.pair_path}
    if seed is not None:
        return owner
    first_cell: dict[tuple, tuple[str, str]] = {}
    for pair in plan.pair_path:
        route = plan.pair_routes.get(pair)
        if route is None or route.procedure not in _SEARCH_PROCEDURES:
            continue
        if route.procedure == UNDECIDED_FRAGMENT and unknown_bound is not None:
            continue
        classes = (queries[pair[0]].evaluation_key, queries[pair[1]].evaluation_key)
        owner[pair] = first_cell.setdefault(classes, pair)
    return owner


def equivalence_matrix(
    queries: Mapping[str, Query],
    domain: Domain = Domain.RATIONALS,
    counterexample_trials: int = DEFAULT_COUNTEREXAMPLE_TRIALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    unknown_bound: Optional[int] = None,
    *,
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: Optional[int] = None,
) -> dict[tuple[str, str], EquivalenceResult]:
    """Pairwise equivalence over a query catalog.

    Returns ``{(name_a, name_b): result}`` for every unordered pair with
    ``name_a < name_b``.  Pairs mixing an aggregate with a non-aggregate query
    are recorded as ``NOT_EQUIVALENT`` with method ``"incomparable shapes"``
    (their results live in different spaces, so no database can make them
    agree) rather than raising, so one odd catalog entry does not abort the
    whole sweep.

    Cells whose local searches share a BASE are decided with one
    subset/ordering enumeration per group (:func:`plan_catalog_sweep`) and
    only the leftover cells as per-pair tasks; every cell's result depends on
    the pair alone, never on the rest of the catalog.  ``workers=N`` shards both
    the sweep streams and the cell tasks across N processes (``None``
    consults ``REPRO_WORKERS``); ``seed`` derives a deterministic per-pair
    seed for the randomized witness searches, so results are reproducible
    regardless of worker scheduling.

    .. deprecated:: prefer :class:`repro.session.Workspace` for anything
       beyond a one-shot matrix — this function is now a thin shim over an
       ephemeral workspace, so every call re-warms the caches, and (with ``workers``) re-forks a pool that a session
       would keep alive.  ``ws = Workspace(workers=N)`` + ``ws.add(...)`` +
       ``ws.equivalences()`` returns the identical matrix and decides only
       delta cells on later calls.
    """
    from ..session import Workspace

    with Workspace(
        workers=workers,
        executor=executor,
        domain=domain,
        counterexample_trials=counterexample_trials,
        max_subsets=max_subsets,
        unknown_bound=unknown_bound,
        seed=seed,
        # One-shot matrices stay self-contained: no verdict-store tier, so
        # this entry point's results never depend on process-wide state
        # (REPRO_STORE_PATH included).  Sessions wanting the store use
        # Workspace directly.
        store=False,
    ) as workspace:
        for name, query in queries.items():
            workspace.add(query, name=name)
        return workspace.equivalences()


def format_equivalence_matrix(
    results: Mapping[tuple[str, str], EquivalenceResult]
) -> str:
    """Render an equivalence matrix as an aligned text table."""
    if not results:
        return "(empty catalog)"
    width = max(len(name) for pair in results for name in pair)
    lines = []
    for (name_a, name_b), result in sorted(results.items()):
        lines.append(
            f"{name_a:{width}s} vs {name_b:{width}s}: "
            f"{result.verdict.value:14s} [{result.method}]"
        )
    return "\n".join(lines)
