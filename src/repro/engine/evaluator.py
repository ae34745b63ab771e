"""Evaluation of queries over concrete databases.

This module implements the semantics of Sections 3.2 and 3.4 of the paper:

* the set of satisfying assignments ``Γ(q, D)`` (with *labels* recording which
  disjunct each assignment satisfies, so that an assignment satisfying several
  disjuncts is counted once per disjunct),
* non-aggregate evaluation under set semantics and under bag-set semantics
  (Chaudhuri–Vardi), and
* aggregate evaluation: grouping the satisfying assignments by the grouping
  variables, restricting each group to the aggregation variables and applying
  the aggregation function.

Every public entry point dispatches on the active engine mode
(:mod:`repro.engine.modes`).  ``compiled`` (the default) runs the columnar
kernels of :mod:`repro.engine.compile`, with the set / bag-set / aggregate
evaluators skipping :class:`LabeledAssignment` materialization entirely and
projecting inside the kernels; its ``Γ(q, D)`` is memoized per
``(query, database)`` pair — both are immutable — so repeated evaluations
(counterexample searches, equivalence matrices) pay for each distinct pair
once.  ``naive`` routes Γ through :func:`naive_satisfying_assignments`, the
original nested-loop engine, kept as an executable specification; the
differential tests and the scaling benchmark compare the compiled engine
against it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional

from ..aggregates.functions import AggregationFunction, get_function
from ..caches import run_registered_clears
from ..datalog.atoms import RelationalAtom
from ..datalog.conditions import Condition
from ..datalog.database import Database
from ..datalog.queries import Query
from ..datalog.terms import Constant, Term, Variable
from ..domains import NumericValue
from ..errors import EvaluationError
from ..obs import REGISTRY as _OBS
from . import compile as _compile
from .modes import ENGINE_COMPILED, ENGINE_NAIVE, active_engine
from .planner import plan_condition  # noqa: F401 -- unused; perfbench/layers.py wraps this binding


@dataclass(frozen=True)
class LabeledAssignment:
    """A satisfying assignment together with the disjunct it satisfies.

    The paper's Γ(q, D) is a set of *labeled* assignments: the same variable
    mapping appears once for every disjunct it satisfies (Section 3.4).
    """

    mapping: tuple[tuple[Variable, NumericValue], ...]
    disjunct_index: int

    def __post_init__(self) -> None:
        # Dict-backed lookup for value_of; equality and hashing still use the
        # canonical sorted tuple, so the cache is invisible to callers.
        object.__setattr__(self, "_lookup", dict(self.mapping))

    @classmethod
    def from_dict(cls, mapping: Mapping[Variable, NumericValue], disjunct_index: int):
        ordered = tuple(sorted(mapping.items(), key=lambda item: item[0].name))
        return cls(ordered, disjunct_index)

    def value_of(self, term: Term) -> NumericValue:
        if isinstance(term, Constant):
            return term.value
        try:
            return self._lookup[term]  # type: ignore[attr-defined]
        except KeyError:
            raise EvaluationError(f"assignment does not bind {term}") from None

    def values_of(self, terms: Iterable[Term]) -> tuple[NumericValue, ...]:
        return tuple(self.value_of(term) for term in terms)


def satisfying_assignments(query: Query, database: Database) -> list[LabeledAssignment]:
    """Γ(q, D): all labeled satisfying assignments of the query over the
    database, computed by the active engine."""
    if active_engine() == ENGINE_NAIVE:
        return naive_satisfying_assignments(query, database)
    return list(_satisfying_assignments_cached(query, database))


# A deliberately smaller cache than the symbolic engine's: concrete databases
# from counterexample searches are mostly one-shot (each trial generates a
# fresh random database, hit again only when it becomes a witness), so a large
# cache would mainly retain dead (query, database, assignments) triples.  Only
# the compiled engine reads it; ``naive`` recomputes every time.
@lru_cache(maxsize=4096)
def _satisfying_assignments_cached(
    query: Query, database: Database
) -> tuple[LabeledAssignment, ...]:
    return tuple(_compile.compiled_satisfying_assignments(query, database))


def clear_evaluation_caches() -> None:
    """Drop every concrete evaluation cache: the memoized Γ(q, D) results,
    the compiled kernels, the columnar stores, and the parallel worker's
    run-setup memo (used for cold-cache benchmarks and by tests that must
    observe re-compilation).

    The kernel/store/setup-memo drops run through the cache registry
    (:mod:`repro.caches`): every module-level cache registered under this
    entry resets here, which is what the ``cache-discipline`` checker of
    :mod:`repro.analysis` enforces statically.

    Reset semantics for the metrics registry (pinned by the observability
    regression tests): the counters that describe these caches reset with
    them — ``engine.kernel.*`` via ``clear_kernel_cache``, ``engine.store.*``
    via ``clear_store_cache``, ``parallel.setup.*`` via ``clear_setup_memo``,
    plus the vector-vs-loop ``engine.dispatch.*`` tallies here.  Everything
    else survives: the shared-Γ counters (``engine.gamma.*``, owned by
    ``clear_symbolic_caches``), and the ``sweep.``/``parallel.pool.``/
    ``worker.``/``session.`` scopes, which describe work performed rather
    than cache state.
    """
    _satisfying_assignments_cached.cache_clear()
    run_registered_clears("clear_evaluation_caches")
    _OBS.reset("engine.dispatch.")


def _match_atom(
    atom: RelationalAtom, row: tuple, partial: Mapping[Variable, NumericValue]
) -> Optional[dict[Variable, NumericValue]]:
    if len(row) != atom.arity:
        return None
    extended = dict(partial)
    for argument, value in zip(atom.arguments, row):
        if isinstance(argument, Constant):
            if argument.value != value:
                return None
        else:
            bound = extended.get(argument)
            if bound is None:
                extended[argument] = value
            elif bound != value:
                return None
    return extended


def _maybe_value(term: Term, assignment: Mapping[Variable, NumericValue]) -> Optional[NumericValue]:
    if isinstance(term, Constant):
        return term.value
    return assignment.get(term)


def _require_value(term: Term, assignment: Mapping[Variable, NumericValue]) -> NumericValue:
    value = _maybe_value(term, assignment)
    if value is None:
        raise EvaluationError(f"unbound term {term} during evaluation")
    return value


# ----------------------------------------------------------------------
# Naive reference engine
# ----------------------------------------------------------------------
def naive_satisfying_assignments(query: Query, database: Database) -> list[LabeledAssignment]:
    """Γ(q, D) computed by the original nested-loop engine.

    Kept as an executable specification of the semantics: it joins positive
    atoms by full relation scans (largest arity first), resolves
    equality-defined variables afterwards, and only then filters by the
    comparisons and negated atoms.  The differential property tests and
    ``benchmarks/bench_evaluator_scaling.py`` compare the compiled engine
    against this reference.
    """
    results: list[LabeledAssignment] = []
    for index, disjunct in enumerate(query.disjuncts):
        for mapping in _naive_assignments_for_condition(disjunct, database):
            results.append(LabeledAssignment.from_dict(mapping, index))
    return results


def _naive_assignments_for_condition(
    condition: Condition, database: Database
) -> Iterator[dict[Variable, NumericValue]]:
    positive = sorted(condition.positive_atoms, key=lambda atom: -atom.arity)
    partial_assignments: list[dict[Variable, NumericValue]] = [{}]
    for atom in positive:
        relation = database.relation(atom.predicate)
        extended: list[dict[Variable, NumericValue]] = []
        for partial in partial_assignments:
            for row in relation:
                match = _match_atom(atom, row, partial)
                if match is not None:
                    extended.append(match)
        partial_assignments = extended
        if not partial_assignments:
            return
    # Resolve variables bound only through equality comparisons.
    for partial in partial_assignments:
        for resolved in _resolve_equalities(condition, partial):
            if _check_residual_literals(condition, resolved, database):
                yield resolved


def _resolve_equalities(
    condition: Condition, partial: dict[Variable, NumericValue]
) -> Iterator[dict[Variable, NumericValue]]:
    """Bind variables that only occur in equality comparisons (safety allows
    a variable to be defined by equating it with a bound variable or a
    constant)."""
    resolved = dict(partial)
    pending = [c for c in condition.comparisons if c.is_equality]
    progress = True
    while progress and pending:
        progress = False
        remaining = []
        for comparison in pending:
            left_value = _maybe_value(comparison.left, resolved)
            right_value = _maybe_value(comparison.right, resolved)
            if left_value is not None and right_value is None and isinstance(comparison.right, Variable):
                resolved[comparison.right] = left_value
                progress = True
            elif right_value is not None and left_value is None and isinstance(comparison.left, Variable):
                resolved[comparison.left] = right_value
                progress = True
            else:
                remaining.append(comparison)
        pending = remaining
    missing = condition.variables() - set(resolved)
    if missing:
        # Unsafe conditions are rejected at construction time, so reaching this
        # point means an equality chain could not be resolved; no assignment.
        return
    yield resolved


def _check_residual_literals(
    condition: Condition, assignment: Mapping[Variable, NumericValue], database: Database
) -> bool:
    for atom in condition.negated_atoms:
        values = tuple(_require_value(argument, assignment) for argument in atom.arguments)
        if database.contains(atom.predicate, values):
            return False
    for comparison in condition.comparisons:
        left = _require_value(comparison.left, assignment)
        right = _require_value(comparison.right, assignment)
        if not comparison.op.holds(left, right):
            return False
    return True


# ----------------------------------------------------------------------
# Non-aggregate semantics
# ----------------------------------------------------------------------
def evaluate_set(query: Query, database: Database) -> set[tuple]:
    """Set semantics: the relation q^D of Equation (1)."""
    if active_engine() == ENGINE_COMPILED:
        # Projection happens inside the kernels — Γ is never materialized.
        return _compile.compiled_evaluate_set(query, database)
    results: set[tuple] = set()
    for assignment in satisfying_assignments(query, database):
        results.add(assignment.values_of(query.head_terms))
    return results


def evaluate_bag_set(query: Query, database: Database) -> Counter:
    """Bag-set semantics: each answer tuple with its multiplicity."""
    if active_engine() == ENGINE_COMPILED:
        return _compile.compiled_evaluate_bag_set(query, database)
    results: Counter = Counter()
    for assignment in satisfying_assignments(query, database):
        results[assignment.values_of(query.head_terms)] += 1
    return results


# ----------------------------------------------------------------------
# Aggregate semantics
# ----------------------------------------------------------------------
def group_assignments(
    query: Query, database: Database
) -> dict[tuple, list[LabeledAssignment]]:
    """Γ_d̄(q, D) for every group tuple d̄ produced by the query."""
    groups: dict[tuple, list[LabeledAssignment]] = {}
    for assignment in satisfying_assignments(query, database):
        key = assignment.values_of(query.head_terms)
        groups.setdefault(key, []).append(assignment)
    return groups


def evaluate_aggregate(
    query: Query,
    database: Database,
    function: Optional[AggregationFunction] = None,
) -> dict[tuple, object]:
    """Aggregate semantics (Section 3.4): a mapping from each group tuple d̄
    to the aggregate value α(ȳ) ↓ Γ_d̄(q, D)."""
    if query.aggregate is None:
        raise EvaluationError("evaluate_aggregate requires an aggregate query")
    if function is None:
        function = get_function(query.aggregate.function)
    if active_engine() == ENGINE_COMPILED:
        return _compile.compiled_evaluate_aggregate(query, database, function)
    aggregation_variables = query.aggregation_variables()
    results: dict[tuple, object] = {}
    for key, assignments in group_assignments(query, database).items():
        bag = [assignment.values_of(aggregation_variables) for assignment in assignments]
        results[key] = function.apply(bag)
    return results


def evaluate(query: Query, database: Database):
    """Evaluate a query with the semantics appropriate to its shape.

    Aggregate queries return a ``dict`` from group tuples to aggregate values;
    non-aggregate queries return the set of answer tuples.
    """
    if query.is_aggregate:
        return evaluate_aggregate(query, database)
    return evaluate_set(query, database)


def results_equal(query: Query, other: Query, database: Database) -> bool:
    """Whether two queries return identical results over the database."""
    if query.is_aggregate != other.is_aggregate:
        raise EvaluationError("cannot compare an aggregate query with a non-aggregate query")
    return evaluate(query, database) == evaluate(other, database)
