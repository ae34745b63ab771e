"""The rewriting engine: synthesize, verify, and rank view rewritings.

``rewrite(query, views)`` is the subsystem's front door.  It

1. generates candidate rewritings over the views
   (:mod:`repro.rewriting.candidates`),
2. **verifies** each candidate by unfolding it to base predicates and
   deciding ``query ≡ unfolded`` with the strongest applicable procedure —
   the whole verification batch is planned with
   :func:`repro.workloads.batch.plan_catalog_sweep`, so candidates the
   dispatcher routes to the same local-equivalence class share one subset/ordering sweep, and everything (sweep shards
   and per-pair cells alike) fans out over :mod:`repro.parallel` workers —
3. partitions the candidates into *safe* (proved EQUIVALENT), *not
   equivalent* (with a witness database where one was found), *unverified*
   (UNKNOWN or over the search-space budget) and *rejected* (ruled out
   before verification by the unfolder's faithfulness conditions), and
4. ranks the safe rewritings by estimated evaluation cost when a database
   is supplied, over the extents of the views they read and the base
   relations (no materialized database is built).

Only candidates in the *safe* bucket may be substituted for the query: the
equivalence engine proved they agree with it over **every** database, which
is the paper's criterion for a sound warehouse rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, Union

from ..core.bounded import DEFAULT_MAX_SUBSETS
from ..core.counterexample import DEFAULT_COUNTEREXAMPLE_TRIALS
from ..core.equivalence import EquivalenceResult, Verdict
from ..datalog.database import Database
from ..datalog.queries import Query
from ..datalog.terms import Constant
from ..domains import Domain
from ..errors import RewritingError, SearchSpaceBudgetError
from ..obs import span as _span
from ..parallel.executor import Executor
from ..parallel.tasks import PairOutcome, run_pair_task
from .candidates import CandidateRewriting, RejectedCandidate, generate_candidates
from .unfold import unfold_query
from .views import View, ViewCatalog

#: Reserved catalog name for the query under rewriting in verification
#: batches; candidate names always contain ``__via_``, so it cannot clash.
TARGET_NAME = "__target__"

#: Anything accepted where a view catalog is expected.
ViewsLike = Union[ViewCatalog, Iterable[View], Mapping[str, Query]]

#: The cost model's predicate → rows lookup (``database.relation`` for a database).
Relations = Callable[[str], Collection[tuple]]


def as_view_catalog(views: ViewsLike) -> ViewCatalog:
    """Coerce ``views`` into a :class:`ViewCatalog`."""
    if isinstance(views, ViewCatalog):
        return views
    if isinstance(views, Mapping):
        return ViewCatalog.from_mapping(views)
    return ViewCatalog(views)


def naive_estimated_cost(query: Query, relations: Relations) -> int:
    """The PR 4 cost model, kept as the coarse reference: per disjunct, the
    product of the sizes of the positive atoms' relations (the worst case a
    nested-loop join can enumerate), summed over disjuncts.  It orders a
    fact-table scan above a view probe, but ties every residual join of the
    same relations regardless of how selective the join columns are."""
    total = 0
    for disjunct in query.disjuncts:
        cost = 1
        for atom in disjunct.positive_atoms:
            cost *= max(1, len(relations(atom.predicate)))
        total += cost
    return total


def _column_distinct_count(
    relations: Relations, predicate: str, position: int, memo: dict
) -> int:
    """Distinct values in one column of a relation (memoized per ranking —
    it probes the same view extents for every candidate)."""
    key = (predicate, position)
    cached = memo.get(key)
    if cached is None:
        cached = len({row[position] for row in relations(predicate)})
        memo[key] = cached
    return cached


def estimated_cost(
    query: Query, relations: Relations, _memo: Optional[dict] = None
) -> int:
    """A distinct-count join-cardinality estimate over the relations that
    ``relations`` returns per predicate (view extents and base relations).

    Atoms are joined left to right (candidates put their view atom first, so
    its columns bind the residual joins).  Each atom starts from its
    relation's row count; every column already bound by an earlier atom — or
    pinned by a constant — divides the contribution by that column's distinct
    count in that relation, the classic uniform-frequency estimate
    ``|R| / Π V(R, c)``.  Unlike the plain join-size product
    (:func:`naive_estimated_cost`) this ranks residual-join candidates by
    how selectively the view's exported columns bind them: probing a
    pre-aggregated extent whose group key joins the residual on all its
    distinct values costs ~one row per group, not ``|view| × |residual|``.

    Estimates are floored at one row per atom, summed over disjuncts, so a
    fact-table scan still dominates every pre-aggregated probe.
    """
    memo: dict = _memo if _memo is not None else {}
    total = 0
    for disjunct in query.disjuncts:
        rows = 1
        bound: set = set()
        for atom in disjunct.positive_atoms:
            size = max(1, len(relations(atom.predicate)))
            selectivity = 1
            for position, argument in enumerate(atom.arguments):
                if isinstance(argument, Constant) or argument in bound:
                    selectivity *= max(
                        1, _column_distinct_count(relations, atom.predicate, position, memo)
                    )
            rows *= max(1, size // selectivity)
            bound |= {
                argument for argument in atom.arguments if not isinstance(argument, Constant)
            }
        total += rows
    return total


@dataclass
class VerifiedRewriting:
    """A candidate together with its verification verdict (and, when a
    database was supplied, its estimated cost over the view extents)."""

    candidate: CandidateRewriting
    result: EquivalenceResult
    estimated_cost: Optional[int] = None

    @property
    def is_safe(self) -> bool:
        return self.result.verdict is Verdict.EQUIVALENT

    def __str__(self) -> str:
        cost = f", est. cost {self.estimated_cost}" if self.estimated_cost is not None else ""
        return f"{self.candidate.name}: {self.result.verdict.value} [{self.result.method}]{cost}"


@dataclass
class RewritingReport:
    """The outcome of :func:`rewrite` for one query."""

    query: Query
    safe: list[VerifiedRewriting] = field(default_factory=list)
    not_equivalent: list[VerifiedRewriting] = field(default_factory=list)
    unverified: list[VerifiedRewriting] = field(default_factory=list)
    rejected: list[RejectedCandidate] = field(default_factory=list)
    direct_cost: Optional[int] = None

    @property
    def best(self) -> Optional[VerifiedRewriting]:
        """The cheapest safe rewriting (the first, after ranking)."""
        return self.safe[0] if self.safe else None

    def __str__(self) -> str:
        lines = [f"rewritings of {self.query.head_string()}:"]
        for verified in self.safe:
            lines.append(f"  SAFE {verified}")
        for verified in self.not_equivalent:
            lines.append(f"  UNSAFE {verified}")
        for verified in self.unverified:
            lines.append(f"  UNVERIFIED {verified}")
        for rejection in self.rejected:
            lines.append(f"  REJECTED {rejection}")
        return "\n".join(lines)


def _run_pair_task_guarded(task) -> PairOutcome:
    """Pair-task runner that degrades a blown search-space budget to an
    UNVERIFIED verdict instead of aborting the whole batch (one oversized
    candidate must not take down its siblings)."""
    try:
        return run_pair_task(task)
    except SearchSpaceBudgetError as error:
        return PairOutcome(
            task.index,
            task.name_a,
            task.name_b,
            EquivalenceResult(
                Verdict.UNKNOWN,
                method="search-space budget exceeded",
                domain=task.domain,
                details=str(error),
            ),
        )


class RewritingEngine:
    """Synthesis + verification of view rewritings for one view catalog."""

    def __init__(
        self,
        views: ViewsLike,
        *,
        domain: Domain = Domain.RATIONALS,
        max_subsets: int = DEFAULT_MAX_SUBSETS,
        counterexample_trials: int = DEFAULT_COUNTEREXAMPLE_TRIALS,
        unknown_bound: Optional[int] = None,
    ):
        self.views = as_view_catalog(views)
        self.domain = domain
        self.max_subsets = max_subsets
        self.counterexample_trials = counterexample_trials
        # Forwarded to every verification batch, so a session configuring it
        # (repro.session.Workspace) gets the same dispatch behavior from
        # rewrite verification as from its equivalence matrix.
        self.unknown_bound = unknown_bound

    # ------------------------------------------------------------------
    # Candidate synthesis
    # ------------------------------------------------------------------
    def candidates(
        self, query: Query, limit: int = 32
    ) -> tuple[list[CandidateRewriting], list[RejectedCandidate]]:
        """Generate (unverified) candidates and the pre-verification
        rejections for ``query``."""
        if set(query.predicates()) & set(self.views.names):
            raise RewritingError(
                f"query {query.name!r} already mentions a view predicate; "
                "rewrite() expects a query over base relations"
            )
        return generate_candidates(query, self.views, limit=limit)

    def make_candidate(
        self, query: Query, candidate_query: Query, name: Optional[str] = None
    ) -> CandidateRewriting:
        """Wrap a hand-written candidate (a query over view predicates) for
        verification, unfolding it through the catalog."""
        unfolded = unfold_query(candidate_query, self.views)
        used = tuple(
            sorted(set(candidate_query.predicates()) & set(self.views.names))
        )
        return CandidateRewriting(
            name=name or f"{query.name}__via_{'_'.join(used) or 'manual'}",
            query=candidate_query,
            unfolded=unfolded,
            view_names=used,
            description="user-supplied candidate",
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(
        self,
        query: Query,
        candidates: Sequence[CandidateRewriting],
        *,
        workers: Optional[int] = None,
        executor: Optional[Executor] = None,
        seed: Optional[int] = None,
    ) -> list[VerifiedRewriting]:
        """Decide ``query ≡ unfold(candidate)`` for every candidate.

        The (target, candidate) cells are decided exactly like an equivalence
        matrix restricted to one row (:func:`repro.workloads.batch.decide_pairs`
        with ``pairs=`` the row): :func:`plan_catalog_sweep` groups the cells
        the dispatcher routes to the bounded procedure into single-sweep
        groups (one subset/ordering enumeration per group), and the leftover
        cells run as parallel pair tasks through the full dispatcher — with
        budget-blown cells degraded to UNKNOWN instead of aborting the batch.
        """
        from ..workloads.batch import decide_pairs

        if not candidates:
            return []
        catalog: dict[str, Query] = {TARGET_NAME: query}
        for candidate in candidates:
            if candidate.name in catalog:
                raise RewritingError(f"duplicate candidate name {candidate.name!r}")
            catalog[candidate.name] = candidate.unfolded
        wanted = [
            tuple(sorted((TARGET_NAME, candidate.name))) for candidate in candidates
        ]
        with _span(
            "rewrite.verify", query=query.name, candidates=len(candidates)
        ) as verify_span:
            results = decide_pairs(
                catalog,
                wanted,
                domain=self.domain,
                counterexample_trials=self.counterexample_trials,
                max_subsets=self.max_subsets,
                unknown_bound=self.unknown_bound,
                workers=workers,
                executor=executor,
                seed=seed,
                pair_runner=_run_pair_task_guarded,
            )
            verify_span.note(
                safe=sum(
                    1
                    for result in results.values()
                    if result.verdict is Verdict.EQUIVALENT
                )
            )
        verified: list[VerifiedRewriting] = []
        for candidate in candidates:
            pair = tuple(sorted((TARGET_NAME, candidate.name)))
            verified.append(VerifiedRewriting(candidate, results[pair]))
        return verified

    # ------------------------------------------------------------------
    # The full pipeline
    # ------------------------------------------------------------------
    def rewrite(
        self,
        query: Query,
        *,
        database: Optional[Database] = None,
        workers: Optional[int] = None,
        executor: Optional[Executor] = None,
        seed: Optional[int] = None,
        limit: int = 32,
    ) -> RewritingReport:
        """Synthesize, verify, and rank rewritings of ``query``.

        With ``database`` the safe rewritings are ranked by estimated cost
        over the view extents (cheapest first) and the report
        records the direct fact-table cost for comparison; without one the
        generation order is kept.
        """
        candidates, rejected = self.candidates(query, limit=limit)
        verified = self.verify(
            query, candidates, workers=workers, executor=executor, seed=seed
        )
        return assemble_report(query, verified, rejected, self.views, database)


def assemble_report(
    query: Query,
    verified: Sequence[VerifiedRewriting],
    rejected: Sequence[RejectedCandidate],
    views: ViewCatalog,
    database: Optional[Database] = None,
) -> RewritingReport:
    """Partition verified candidates into a :class:`RewritingReport` and —
    with a database — rank the safe bucket by estimated cost over the
    extent of each view the safe candidates read (:meth:`View.rows`, once
    each) and the base relations; no database is materialized.

    Split out of :meth:`RewritingEngine.rewrite` so a session
    (:meth:`repro.session.Workspace.rewrite`) can cache the expensive
    verification outcomes and re-assemble reports per call (the ranking
    depends on the database; the verdicts do not).
    """
    report = RewritingReport(query=query, rejected=list(rejected))
    for outcome in verified:
        if outcome.is_safe:
            report.safe.append(outcome)
        elif outcome.result.verdict is Verdict.NOT_EQUIVALENT:
            report.not_equivalent.append(outcome)
        else:
            report.unverified.append(outcome)
    if database is not None:
        views.check_clash(database)
        read: set[str] = set()
        for outcome in report.safe:
            read |= outcome.candidate.query.predicates()
        extents = {
            name: views[name].rows(database) for name in views.names if name in read
        }

        def relations(predicate: str) -> Collection[tuple]:
            return extents[predicate] if predicate in extents else database.relation(predicate)

        memo: dict = {}
        report.direct_cost = estimated_cost(query, relations, memo)
        for outcome in report.safe:
            outcome.estimated_cost = estimated_cost(
                outcome.candidate.query, relations, memo
            )
        report.safe.sort(
            key=lambda outcome: (outcome.estimated_cost, outcome.candidate.name)
        )
    return report


def rewrite(
    query: Query,
    views: ViewsLike,
    *,
    database: Optional[Database] = None,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    domain: Domain = Domain.RATIONALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    limit: int = 32,
) -> RewritingReport:
    """Synthesize and verify rewritings of ``query`` over materialized views.

    The one-shot form of :class:`RewritingEngine`: every emitted safe
    rewriting has been proved equivalent to ``query`` over every database by
    the equivalence engine; ``workers=N`` fans the verification out over N
    processes (``None`` honours ``REPRO_WORKERS``).

    .. deprecated:: prefer :class:`repro.session.Workspace` when rewriting
       more than once against the same view catalog — this function is now a
       thin shim over an ephemeral workspace, so every call re-forks its
       worker pool and re-verifies from cold caches.  A session registers the
       views once, keeps the pool and verification caches alive, and serves
       repeated ``ws.rewrite(query)`` calls from them.
    """
    from ..session import Workspace

    with Workspace(
        workers=workers, domain=domain, max_subsets=max_subsets, seed=seed
    ) as workspace:
        for view in as_view_catalog(views):
            workspace.register_view(view)
        return workspace.rewrite(query, database=database, limit=limit)
