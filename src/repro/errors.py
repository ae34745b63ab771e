"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so that callers can
catch every failure mode of the package with a single ``except`` clause while
still being able to distinguish the individual conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class QuerySyntaxError(ReproError):
    """Raised when parsing a query (Datalog or SQL) fails."""

    def __init__(
        self, message: str, text: str | None = None, position: int | None = None
    ) -> None:
        self.text = text
        self.position = position
        if text is not None and position is not None:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class UnsafeQueryError(ReproError):
    """Raised when a query violates the safety requirement.

    A condition is safe when every variable occurring in it appears in a
    positive relational atom or is equated with such a variable (Section 3.1
    of the paper).  Unsafe queries do not have a well-defined semantics over
    infinite domains, so they are rejected at construction time.
    """


class MalformedQueryError(ReproError):
    """Raised when a query violates a structural requirement.

    Examples: a grouping variable that also occurs among the aggregation
    variables, or a disjunct that does not contain all head variables
    (Section 3.3 of the paper).
    """


class DomainError(ReproError):
    """Raised when a value does not belong to the declared domain."""


class UnsupportedAggregateError(ReproError):
    """Raised when an operation is requested for an aggregation function that
    does not support it (e.g. deciding ordered identities for a function that
    is not order-decidable over the requested domain)."""


class UndecidableError(ReproError):
    """Raised when a decision procedure is asked to solve an instance that
    falls outside the decidable fragment established by the paper."""


class EvaluationError(ReproError):
    """Raised when evaluating a query over a database fails."""


class UnsatisfiableOrderingError(ReproError):
    """Raised when an operation requires a satisfiable ordering but the given
    conjunction of comparisons is unsatisfiable over the requested domain."""


class SearchSpaceBudgetError(ReproError):
    """Raised when a bounded-equivalence (or catalog-sweep) search space
    exceeds the caller's ``max_subsets`` budget."""


class RewritingError(ReproError):
    """Raised when a view definition, a candidate rewriting, or an unfolding
    request falls outside the fragment the rewriting subsystem handles
    soundly (e.g. a negated view atom, or a duplicate-sensitive aggregate
    over a duplicating view)."""


class WorkerCrashError(ReproError):
    """Raised when a pool worker process died (or was replaced) during — or
    since — a parallel run.

    A crashed worker loses whatever task it was executing and invalidates the
    pool's accumulated per-process state (setup memos, warm caches), so the
    run that observes the crash fails as a whole rather than merging a
    half-drained generation of outcomes.  The condition is *retryable*: the
    process executor discards the dead pool immediately, and the next run
    forks a fresh one (counted by ``parallel.pool.heals``)."""

    #: Callers serving traffic map this onto a retry-after response.
    retryable = True


class KernelVerificationError(ReproError):
    """Raised when a code-generated kernel source falls outside the closed
    kernel language (:mod:`repro.analysis.kernelcheck`): an unexpected
    statement or expression form, a name outside the generated vocabulary,
    an import, or an attribute access outside the store API."""
