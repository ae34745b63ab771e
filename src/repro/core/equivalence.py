"""The top-level equivalence checker and the decidability map (Table 2).

:func:`are_equivalent` dispatches a pair of queries to the strongest decision
procedure the paper provides for them:

1. **Non-aggregate queries** — local equivalence under set semantics
   (Levy–Sagiv style reduction to small databases).
2. **Quasilinear aggregate queries** with a singleton-determining function (or
   ``cntd`` under the side conditions of Theorem 7.4) — isomorphism of the
   reduced queries, in polynomial time (Section 7).
3. **Decomposable functions** (``count``, ``parity``, ``sum``, ``max``,
   ``top2``, ``min``, ``bot2``, …) and ``prod`` over the rationals — local
   equivalence via the bounded-equivalence procedure (Theorems 6.5 and 6.6).
4. **Everything else** (``avg`` and ``cntd`` outside the quasilinear fragment,
   ``prod`` over the integers) — the paper leaves the problem open; the checker
   runs a counterexample search and a bounded check, and reports ``UNKNOWN``
   when neither settles the question.

Pairs using *different* aggregation functions are also outside the paper's
decidable classes (differing names do not imply differing semantics — a ``sum``
of values pinned to 1 is a ``count``), so they get the same treatment as the
open fragment: ``NOT_EQUIVALENT`` with a concrete witness when the search finds
one, ``UNKNOWN`` otherwise.  The routing applies a sound semantic
normalization to exactly that common case: when both queries reduce to
*count forms* with one shared nonzero multiplier ``c`` — a ``count()`` query
trivially (``c = 1``), a ``sum`` query whose aggregation variable every
disjunct pins to ``c``, directly (``y = c``) or through an equality chain
(``y = z, z = c``) — both sides are rewritten to their count forms (each
original returns ``c ·`` its count form on every database, so the verdict and
any witness transfer both ways).  Such pairs land in the decidable
same-function classes instead of the open fragment.  Pins to 0 and pairs with
differing multipliers are excluded: no single verdict-preserving reduction
exists there (see :func:`aggregation_pin` / :func:`pair_count_reduction`).

:func:`route_pair` is the one place that choice is made.  The normalization
is opportunistic: routing takes the caller's ``max_subsets``, and a pair
whose count forms' local BASE would not fit the budget is routed on its
originals — decided by arithmetic, before any search runs.  A local route
carries its search space (:class:`SearchSpace`) and subset count, and
:meth:`PairRoute.fits` is the one budget test.  :func:`are_equivalent`
routes a pair once and runs the chosen procedure once; the catalog sweep
planner (:func:`repro.workloads.batch.plan_catalog_sweep`) routes every cell
through :func:`route_pair` too, groups the local routes that fit by their
space and states each sweep report through :func:`local_result`, so a swept
cell carries the method, details and witness the pair path gives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..aggregates.functions import AggregationFunction, PAPER_FUNCTIONS, get_function
from ..datalog.database import Database
# The count-form helpers are query rewritings; they stay importable here.
from ..datalog.queries import Query, aggregation_pin, sum_count_reduction  # noqa: F401
from ..datalog.terms import Constant
from ..domains import Domain
from ..errors import UndecidableError, UnsupportedAggregateError
from ..obs import span as _span
from .bounded import (
    DEFAULT_MAX_SUBSETS,
    Counterexample,
    EquivalenceReport,
    base_size,
    bounded_equivalence,
    local_equivalence,
)
from .counterexample import DEFAULT_COUNTEREXAMPLE_TRIALS, find_counterexample
from .quasilinear import QuasilinearVerdict, is_quasilinear_decidable, quasilinear_equivalent


class Verdict(enum.Enum):
    """Outcome of an equivalence check."""

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not equivalent"
    UNKNOWN = "unknown"


@dataclass
class EquivalenceResult:
    """The outcome of :func:`are_equivalent`, with provenance."""

    verdict: Verdict
    method: str
    domain: Domain
    details: str = ""
    counterexample: Optional[Counterexample] = None
    report: Optional[EquivalenceReport] = None
    quasilinear: Optional[QuasilinearVerdict] = None

    @property
    def is_equivalent(self) -> bool:
        return self.verdict is Verdict.EQUIVALENT

    def __bool__(self) -> bool:
        return self.is_equivalent

    def __str__(self) -> str:
        return f"{self.verdict.value} (method: {self.method}) {self.details}".strip()


def normalization_method_suffix(multiplier: Constant) -> str:
    """The method annotation for a verdict transferred from the count forms."""
    if multiplier.value == 1:
        return " (after sum→count normalization)"
    return f" (after sum→{multiplier}·count normalization)"


def pair_count_reduction(
    first: Query, second: Query
) -> Optional[tuple[Query, Query, Constant, str]]:
    """The shared count form of a pair, when comparing count forms settles
    the original pair.

    Both queries must have a count form (:func:`sum_count_reduction`) with
    the *same* multiplier ``c``, and at least one side must actually be
    rewritten (a count/count pair has nothing to normalize).  Then
    ``q_i ≡ c · count_i`` with ``c ≠ 0``, so ``q_1 ≡ q_2`` iff
    ``count_1 ≡ count_2`` — the verdict (and any witness database) transfers
    in both directions.  Mixed multipliers (e.g. a sum pinned to 2 against a
    plain count) are left alone: ``2·count_1 ≡ count_2`` is not equivalent to
    ``count_1 ≡ count_2``, so no verdict would transfer.
    """
    if first.count_form is None or second.count_form is None:
        return None
    first_count, first_multiplier, first_note = first.count_form
    second_count, second_multiplier, second_note = second.count_form
    if first_multiplier != second_multiplier:
        return None
    if first_note is None and second_note is None:
        return None
    notes = "; ".join(note for note in (first_note, second_note) if note)
    return first_count, second_count, first_multiplier, notes


def _decidable_by_local_equivalence(function: AggregationFunction, domain: Domain) -> bool:
    """Whether Theorem 6.5 (or 6.6 for prod over Q) applies."""
    if function.is_decomposable:
        return True
    if function.decomposable_over_nonzero_only and domain.is_dense:
        # prod over the rationals: Theorem 6.6.
        return True
    return False


#: The method strings of the decision procedures, one per dispatch branch.
#: ``repro.obs.explain`` maps each back to its dispatch class, since verdicts
#: served from the verdict store carry only the method string.
SET_LOCAL_EQUIVALENCE = "local-equivalence (set semantics)"
AGGREGATE_LOCAL_EQUIVALENCE = "local-equivalence (Theorem 6.5/6.6)"
QUASILINEAR_ISOMORPHISM = "quasilinear isomorphism"
DIFFERENT_FUNCTIONS = "different aggregation functions"
UNDECIDED_FRAGMENT = "undecided fragment"
#: Every procedure :func:`route_pair` can choose.
PROCEDURES = (
    SET_LOCAL_EQUIVALENCE, AGGREGATE_LOCAL_EQUIVALENCE, QUASILINEAR_ISOMORPHISM,
    DIFFERENT_FUNCTIONS, UNDECIDED_FRAGMENT,
)
#: The procedures that run the bounded local-equivalence search: the cells
#: a catalog sweep can decide.
LOCAL_PROCEDURES = (SET_LOCAL_EQUIVALENCE, AGGREGATE_LOCAL_EQUIVALENCE)
#: The method of a NOT_EQUIVALENT verdict settled by a witness search alone.
COUNTEREXAMPLE_SEARCH = "counterexample search"


class SearchSpace(NamedTuple):
    """What a pair's local search reads: both forms' ``(predicate, arity)``
    pairs and constants, τ(q, q′) and whether either form compares.  Equal
    spaces mean the same BASE and orderings: the sweep planner's group key."""

    arities: frozenset
    constants: frozenset
    bound: int
    compares: bool


@dataclass(frozen=True)
class PairRoute:
    """How :func:`are_equivalent` decides one pair.

    ``procedure`` is one of :data:`PROCEDURES`; ``first`` and ``second`` are
    the query forms it runs on — the count forms when
    :func:`pair_count_reduction` applies, the originals otherwise.  For count
    forms ``multiplier`` is the shared ``c`` and ``notes`` describes the
    rewriting; both are ``None`` when the originals are decided directly.
    A local route (one of :data:`LOCAL_PROCEDURES`) carries its search
    ``space`` and the number of BASE ``subsets`` it enumerates; other routes
    search no BASE and carry ``None`` for both.
    """

    procedure: str
    first: Query
    second: Query
    multiplier: Optional[Constant] = None
    notes: Optional[str] = None
    space: Optional[SearchSpace] = None
    subsets: Optional[int] = None

    def fits(self, max_subsets: int) -> bool:
        """Whether the route's search, if any, enumerates ≤ ``max_subsets``."""
        return self.subsets is None or self.subsets <= max_subsets


def route_pair(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> PairRoute:
    """The strongest decision procedure the paper provides for the pair.

    Pairs that reduce to count forms with one shared multiplier are routed
    on those forms: that moves a sum/count pair out of the open fragment
    into the decidable count/count class, and the verdict transfers both
    ways.  The normalization is opportunistic: when the count forms' local
    search would exceed ``max_subsets``, the originals are routed instead
    (for a sum/count pair that is the counterexample-search/UNKNOWN path).
    A same-function sum/sum pair without a shared pin keeps its originals
    (normalizing one side would push it into the open fragment).  Both
    inputs come from the queries' cached ``count_form`` and ``vocabulary``.
    """
    if first.is_aggregate != second.is_aggregate:
        raise UnsupportedAggregateError(
            "cannot compare an aggregate query with a non-aggregate query"
        )
    reduction = pair_count_reduction(first, second)
    if reduction is not None:
        route = _route(*reduction, domain=domain)
        if route.fits(max_subsets):
            return route
    return _route(first, second, domain=domain)


def _route(
    first: Query,
    second: Query,
    multiplier: Optional[Constant] = None,
    notes: Optional[str] = None,
    *,
    domain: Domain,
) -> PairRoute:
    if not first.is_aggregate:
        procedure = SET_LOCAL_EQUIVALENCE
    elif first.aggregate.function != second.aggregate.function:
        # Differing function names do NOT imply non-equivalence (a sum of
        # values pinned to 1 is a count); the paper only settles pairs
        # sharing a function.
        procedure = DIFFERENT_FUNCTIONS
    else:
        function = get_function(first.aggregate.function)
        if is_quasilinear_decidable(first, second, function, domain):
            procedure = QUASILINEAR_ISOMORPHISM
        elif _decidable_by_local_equivalence(function, domain):
            procedure = AGGREGATE_LOCAL_EQUIVALENCE
        else:
            procedure = UNDECIDED_FRAGMENT
    if procedure not in LOCAL_PROCEDURES:
        return PairRoute(procedure, first, second, multiplier, notes)
    first_arities, first_constants, first_size, first_compares = first.vocabulary
    second_arities, second_constants, second_size, second_compares = second.vocabulary
    arities = first_arities | second_arities
    constants = first_constants | second_constants
    # τ(q, q') of the pair, as term_size_of_pair computes it.
    bound = len(constants) + max(first_size, second_size)
    space = SearchSpace(arities, constants, bound, first_compares or second_compares)
    subsets = 2 ** base_size((arity for _predicate, arity in arities), len(constants), bound)
    return PairRoute(procedure, first, second, multiplier, notes, space, subsets)


def _witness(
    first: Query, second: Query, database: Database, ordering=None, symbolic_atoms=None
) -> Counterexample:
    """A counterexample over ``database`` recording the original queries'
    results on it."""
    from ..engine.evaluator import evaluate

    return Counterexample(
        database=database,
        left_result=evaluate(first, database),
        right_result=evaluate(second, database),
        ordering=ordering,
        symbolic_atoms=symbolic_atoms,
    )


def _normalized(route: PairRoute, result: EquivalenceResult) -> EquivalenceResult:
    """Annotate a verdict reached on count forms with the normalization."""
    if route.multiplier is not None:
        result.method += normalization_method_suffix(route.multiplier)
        result.details = f"{result.details}; {route.notes}" if result.details else route.notes
    return result


def local_result(
    route: PairRoute, report: EquivalenceReport, domain: Domain, first: Query, second: Query
) -> EquivalenceResult:
    """A local-equivalence report on the route's query forms, stated as the
    result for the original pair ``first``/``second``.

    Count forms return ``c ·`` their originals' values with ``c ≠ 0``, so the
    verdict and the witness database transfer verbatim; the witness results
    are re-evaluated through the originals (for ``c ≠ 1`` the count forms
    return different *values* on the same database).
    """
    witness = report.counterexample
    if route.multiplier is not None and witness is not None and witness.database is not None:
        report.counterexample = _witness(
            first, second, witness.database, witness.ordering, witness.symbolic_atoms
        )
    return _normalized(
        route,
        EquivalenceResult(
            Verdict.EQUIVALENT if report.equivalent else Verdict.NOT_EQUIVALENT,
            method=route.procedure,
            domain=domain,
            report=report,
            counterexample=report.counterexample,
            details=f"bound τ = {report.bound}",
        ),
    )


def are_equivalent(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    counterexample_trials: int = DEFAULT_COUNTEREXAMPLE_TRIALS,
    unknown_bound: Optional[int] = None,
    *,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> EquivalenceResult:
    """Decide (when the paper's results allow it) whether ``first ≡ second``.

    The pair is routed once (:func:`route_pair`) and decided by the chosen
    procedure.  ``unknown_bound`` optionally requests a bounded-equivalence
    check with the given N before reporting UNKNOWN for the undecided
    classes; ``seed`` makes every randomized witness search reproducible;
    ``workers`` shards any bounded-equivalence search the dispatch performs.

    .. deprecated:: for repeated checks over a growing catalog prefer
       :class:`repro.session.Workspace` — each one-shot call here re-warms
       the Γ / signature caches and (with ``workers``) re-forks a pool that
       a session keeps alive, and a workspace additionally serves repeated
       cells from its verdict cache.
    """
    with _span(
        "dispatch.classify", first=first.name, second=second.name
    ) as dispatch_span:

        result = _decide(
            route_pair(first, second, domain, max_subsets), first, second, domain,
            max_subsets, counterexample_trials, unknown_bound, seed, workers,
        )
        dispatch_span.note(verdict=result.verdict.value, method=result.method)
    return result


def _decide(
    route: PairRoute,
    first: Query,
    second: Query,
    domain: Domain,
    max_subsets: int,
    counterexample_trials: int,
    unknown_bound: Optional[int],
    seed: Optional[int],
    workers: Optional[int],
) -> EquivalenceResult:
    """Run the route's procedure on its query forms and state the outcome
    for the original pair."""
    search_seed = 0 if seed is None else seed
    if route.procedure in LOCAL_PROCEDURES:
        report = local_equivalence(
            route.first,
            route.second,
            domain=domain,
            max_subsets=max_subsets,
            workers=workers,
            seed=search_seed,
        )
        return local_result(route, report, domain, first, second)

    def search() -> Optional[Counterexample]:
        witness = find_counterexample(
            route.first, route.second, domain=domain, trials=counterexample_trials, seed=seed
        )
        return None if witness is None else _witness(first, second, witness)

    if route.procedure == QUASILINEAR_ISOMORPHISM:
        verdict = quasilinear_equivalent(route.first, route.second, domain)
        return _normalized(
            route,
            EquivalenceResult(
                Verdict.EQUIVALENT if verdict.equivalent else Verdict.NOT_EQUIVALENT,
                method=QUASILINEAR_ISOMORPHISM,
                domain=domain,
                details=verdict.reason,
                quasilinear=verdict,
                # The isomorphism argument is non-constructive; attach a
                # concrete witness when a quick search finds one.
                counterexample=None if verdict.equivalent else search(),
            ),
        )

    # Different functions, or the undecided fragment (avg / cntd beyond the
    # quasilinear case, prod over Z): a witness settles NOT_EQUIVALENT.
    counterexample = search()
    if counterexample is not None:
        method = COUNTEREXAMPLE_SEARCH
        if route.procedure == DIFFERENT_FUNCTIONS:
            method += f" ({DIFFERENT_FUNCTIONS})"
        return EquivalenceResult(
            Verdict.NOT_EQUIVALENT,
            method=method,
            domain=domain,
            counterexample=counterexample,
            details="a distinguishing database was found",
        )
    if route.procedure == DIFFERENT_FUNCTIONS:
        return EquivalenceResult(
            Verdict.UNKNOWN,
            method=DIFFERENT_FUNCTIONS,
            domain=domain,
            details=(
                "the queries use different aggregation functions; the paper only "
                "settles pairs sharing a function, and no counterexample was found"
            ),
        )
    function = get_function(route.first.aggregate.function)
    details = (
        f"equivalence of {function.name}-queries outside the quasilinear fragment "
        "is not settled by the paper"
    )
    report = None
    if unknown_bound is not None:
        report = bounded_equivalence(
            route.first,
            route.second,
            unknown_bound,
            domain=domain,
            max_subsets=max_subsets,
            workers=workers,
            seed=search_seed,
        )
        if not report.equivalent:
            return EquivalenceResult(
                Verdict.NOT_EQUIVALENT,
                method=f"bounded equivalence (N={unknown_bound})",
                domain=domain,
                report=report,
                counterexample=report.counterexample,
            )
        details += f"; the queries are {unknown_bound}-equivalent"
    return EquivalenceResult(
        Verdict.UNKNOWN, method=UNDECIDED_FRAGMENT, domain=domain, details=details, report=report
    )


def decide_or_raise(first: Query, second: Query, domain: Domain = Domain.RATIONALS) -> bool:
    """A strict variant of :func:`are_equivalent` that raises
    :class:`UndecidableError` instead of returning UNKNOWN."""
    result = are_equivalent(first, second, domain=domain)
    if result.verdict is Verdict.UNKNOWN:
        raise UndecidableError(result.details)
    return result.is_equivalent


# ----------------------------------------------------------------------
# Table 2: decidability of the query classes
# ----------------------------------------------------------------------
@dataclass
class DecidabilityRow:
    """One row of Table 2."""

    function: str
    bounded_equivalence: bool
    equivalence: str
    quasilinear: str

    def cells(self) -> tuple[str, str, str]:
        return ("yes" if self.bounded_equivalence else "no", self.equivalence, self.quasilinear)


#: The paper's Table 2, transcribed for comparison.  The ``equivalence`` and
#: ``quasilinear`` cells are strings because the paper leaves some cells blank
#: and marks cntd's quasilinear cell as "special cases".
PAPER_TABLE2: dict[str, tuple[bool, str, str]] = {
    "count": (True, "yes", "yes"),
    "max": (True, "yes", "yes"),
    "sum": (True, "yes", "yes"),
    "prod": (True, "yes", "yes"),
    "top2": (True, "yes", "yes"),
    "avg": (True, "open", "yes"),
    "cntd": (True, "open", "special cases"),
    "parity": (True, "yes", "yes"),
}


def build_table2(domain: Domain = Domain.RATIONALS) -> list[DecidabilityRow]:
    """Regenerate Table 2 from the traits of the implemented functions."""
    rows = []
    for function in PAPER_FUNCTIONS:
        bounded = function.is_order_decidable_over(domain)
        if _decidable_by_local_equivalence(function, domain):
            equivalence = "yes"
        else:
            equivalence = "open"
        if function.is_singleton_determining:
            quasilinear = "yes"
        elif function.name == "cntd":
            quasilinear = "special cases"
        else:
            quasilinear = "open"
        rows.append(DecidabilityRow(function.name, bounded, equivalence, quasilinear))
    return rows


def table2_matches_paper(rows) -> bool:
    """Whether the regenerated Table 2 agrees with the paper cell by cell."""
    for row in rows:
        expected = PAPER_TABLE2.get(row.function)
        if expected is None:
            continue
        bounded, equivalence, quasilinear = expected
        if row.bounded_equivalence != bounded:
            return False
        if row.equivalence != equivalence or row.quasilinear != quasilinear:
            return False
    return True


def format_table2(rows) -> str:
    """Render Table 2 in the same layout as the paper."""
    header = (
        f"{'':10s} {'Bounded Equiv.':>15s} {'Equivalence':>12s} {'Quasilinear=Iso':>16s}"
    )
    lines = [header]
    for row in rows:
        cells = row.cells()
        lines.append(f"{row.function:10s} {cells[0]:>15s} {cells[1]:>12s} {cells[2]:>16s}")
    return "\n".join(lines)
