"""Join planning for condition evaluation.

Both evaluation engines (the concrete engine in :mod:`repro.engine.evaluator`
and the symbolic engine in :mod:`repro.engine.symbolic`) enumerate the
satisfying assignments of a condition by extending partial assignments literal
by literal.  This module computes, once per condition, the *order* in which the
literals are processed; the engines then merely execute the resulting plan.

A plan is a sequence of four kinds of steps:

* :class:`AtomStep` — join a positive relational atom.  The step records which
  argument positions are already bound when the step runs (``bound_columns``),
  so the executor can probe a per-predicate hash index on exactly those
  columns instead of scanning the full relation.
* :class:`BindStep` — bind a variable through an equality comparison whose
  other side is already bound (safety allows variables defined only by
  equalities).
* :class:`CompareStep` — filter by a comparison whose two sides are bound.
* :class:`NegationStep` — filter by a negated atom all of whose variables are
  bound (an anti-join membership test).

The planner is greedy: at every point it first emits every binding, comparison
and negation step that has become runnable (filters are always cheaper than
joins, so they run as early as their variables allow), and only then picks the
next positive atom — the one with the most already-bound argument positions,
the first in literal order among equals.  This pushes selections below the
join and turns Cartesian products into index lookups whenever the condition's
join graph allows it.

A plan is a function of its condition alone — never of the relations it runs
over — so each condition is planned once per process and the plan is cached
per condition.  Relation statistics could only break ties between equally
bound atoms, and the symbolic databases ``S_L`` that dominate evaluation hold
a handful of rows each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from ..datalog.atoms import Comparison, RelationalAtom
from ..datalog.conditions import Condition
from ..datalog.terms import Constant, Term, Variable


@dataclass(frozen=True)
class AtomStep:
    """Join a positive atom, probing an index on the bound columns."""

    atom: RelationalAtom
    #: Argument positions whose terms are bound before the step runs.  The
    #: executor probes ``index(atom.predicate, bound_columns)``; an empty tuple
    #: means a full scan of the relation (nothing bound yet).
    bound_columns: tuple[int, ...]


@dataclass(frozen=True)
class BindStep:
    """Bind ``variable`` to the value of ``source`` (an equality definition)."""

    variable: Variable
    source: Term


@dataclass(frozen=True)
class CompareStep:
    """Filter assignments by a fully bound comparison."""

    comparison: Comparison


@dataclass(frozen=True)
class NegationStep:
    """Filter assignments by a fully bound negated atom."""

    atom: RelationalAtom


Step = Union[AtomStep, BindStep, CompareStep, NegationStep]


@dataclass(frozen=True)
class Plan:
    """An ordered execution plan for one condition.

    ``resolvable`` is ``False`` when some variable can never become bound (the
    condition is unsafe); executing such a plan yields no assignments, matching
    the behaviour of the pre-planner engine.
    """

    condition: Condition
    steps: tuple[Step, ...]
    resolvable: bool = True


def plan_condition(condition: Condition) -> Plan:
    """The execution plan for ``condition``, built once per condition.

    The plan orders the condition's literals from the condition alone, so
    every database the condition is evaluated over shares it.
    """
    return _plan_condition_cached(condition)


@lru_cache(maxsize=4096)
def _plan_condition_cached(condition: Condition) -> Plan:
    steps: list[Step] = []
    bound: set[Variable] = set()

    remaining_atoms = list(condition.positive_atoms)
    remaining_negated = list(condition.negated_atoms)
    # Equalities may either filter (both sides bound) or define a variable
    # (one side bound); other comparisons only filter.
    remaining_comparisons = list(condition.comparisons)

    def is_bound(term: Term) -> bool:
        return isinstance(term, Constant) or term in bound

    def emit_runnable_filters() -> None:
        """Emit every bind / compare / negation step that has become runnable,
        iterating to a fixed point (equality chains unlock one another)."""
        progress = True
        while progress:
            progress = False
            kept_comparisons = []
            for comparison in remaining_comparisons:
                left_bound = is_bound(comparison.left)
                right_bound = is_bound(comparison.right)
                if left_bound and right_bound:
                    steps.append(CompareStep(comparison))
                    progress = True
                elif comparison.is_equality and left_bound and isinstance(comparison.right, Variable):
                    steps.append(BindStep(comparison.right, comparison.left))
                    bound.add(comparison.right)
                    progress = True
                elif comparison.is_equality and right_bound and isinstance(comparison.left, Variable):
                    steps.append(BindStep(comparison.left, comparison.right))
                    bound.add(comparison.left)
                    progress = True
                else:
                    kept_comparisons.append(comparison)
            remaining_comparisons[:] = kept_comparisons
            kept_negated = []
            for atom in remaining_negated:
                if all(is_bound(argument) for argument in atom.arguments):
                    steps.append(NegationStep(atom))
                    progress = True
                else:
                    kept_negated.append(atom)
            remaining_negated[:] = kept_negated

    emit_runnable_filters()
    while remaining_atoms:
        # The most bound positions wins; among equals, the first in literal
        # order (``max`` keeps the first maximum).
        best_index = max(
            range(len(remaining_atoms)),
            key=lambda index: sum(map(is_bound, remaining_atoms[index].arguments)),
        )
        atom = remaining_atoms.pop(best_index)
        bound_columns = tuple(
            position for position, argument in enumerate(atom.arguments) if is_bound(argument)
        )
        steps.append(AtomStep(atom, bound_columns))
        bound |= atom.variables()
        emit_runnable_filters()

    # Leftover literals mean some variable can never be bound (the condition
    # is unsafe); ``resolvable=False`` makes the executors yield nothing.
    resolvable = not remaining_comparisons and not remaining_negated
    return Plan(condition=condition, steps=tuple(steps), resolvable=resolvable)


def clear_plan_cache() -> None:
    """Drop all cached plans (used by benchmarks for cold-cache timings)."""
    _plan_condition_cached.cache_clear()


def plan_cache_stats() -> dict[str, int]:
    """``{"entries", "builds", "hits"}`` for the plan cache.

    Read straight off ``lru_cache.cache_info()`` — ``plan_condition`` sits on
    the warm compiled path, so unlike the kernel/store caches these counters
    are not mirrored into the metrics registry per call; the registry's
    hierarchical report samples this view instead (``clear_plan_cache`` resets
    it along with the cache, matching the other engine-scope counters).
    """
    info = _plan_condition_cached.cache_info()
    return {"entries": info.currsize, "builds": info.misses, "hits": info.hits}
