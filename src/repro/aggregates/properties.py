"""Abstract properties of aggregation functions, and empirical checkers.

Table 1 of the paper classifies the aggregation functions along four abstract
properties:

* **shiftable** (Section 4.1): the result of the function depends only on the
  relative order of the bag elements, not on their concrete values;
* **order-decidable** (Section 4.2): validity of ordered identities
  ``L → α(B) = α(B')`` is decidable;
* **decomposable** (Section 5): the function is an idempotent monoid or group
  aggregation function, so the decomposition principles apply;
* **singleton-determining** (Section 7): on singleton bags the function is
  injective.

This module regenerates the table from the declared traits of the implemented
functions and provides *empirical checkers* that search for counterexamples to
each property on randomized inputs.  The checkers serve two purposes: they
cross-validate the declared traits in the test suite, and they demonstrate the
*failure* of a property for the functions the paper says lack it (e.g. they
find shiftability counterexamples for ``sum`` and ``prod``, mirroring the
example after Proposition 4.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..datalog.terms import Constant, Term, Variable
from ..domains import Domain, NumericValue
from ..orderings.complete_orderings import CompleteOrdering, enumerate_complete_orderings
from .functions import PAPER_FUNCTIONS, AggregationFunction


# ----------------------------------------------------------------------
# Shiftability
# ----------------------------------------------------------------------
@dataclass
class ShiftabilityCounterexample:
    """Witness that a function is not shiftable."""

    left_bag: list
    right_bag: list
    shifting_function: dict
    before_equal: bool
    after_equal: bool

    def __str__(self) -> str:
        return (
            f"B={self.left_bag}, B'={self.right_bag}, φ={self.shifting_function}: "
            f"equality before={self.before_equal}, after={self.after_equal}"
        )


def shiftability_counterexample(
    function: AggregationFunction,
    rng: random.Random,
    trials: int = 200,
    max_size: int = 4,
) -> Optional[ShiftabilityCounterexample]:
    """Search for bags and a shifting function violating shiftability.

    Returns ``None`` when no counterexample is found in ``trials`` attempts
    (which is evidence of, not proof of, shiftability).
    """
    arity = function.input_arity if function.input_arity is not None else 1
    for _ in range(trials):
        support = sorted(rng.sample(range(-6, 12), k=rng.randint(2, 5)))
        left = _random_bag(rng, support, arity, max_size)
        right = _random_bag(rng, support, arity, max_size)
        shift = _random_shifting_function(rng, support)
        shifted_left = [_apply_shift(element, shift) for element in left]
        shifted_right = [_apply_shift(element, shift) for element in right]
        before = function.apply(left) == function.apply(right)
        after = function.apply(shifted_left) == function.apply(shifted_right)
        if before != after:
            return ShiftabilityCounterexample(left, right, shift, before, after)
    return None


def _random_bag(rng: random.Random, support: Sequence[int], arity: int, max_size: int) -> list:
    size = rng.randint(0, max_size)
    bag = []
    for _ in range(size):
        bag.append(tuple(rng.choice(support) for _ in range(max(arity, 0))))
    return bag


def _random_shifting_function(rng: random.Random, support: Sequence[int]) -> dict:
    """A random strictly monotonic function defined on ``support``."""
    image = []
    current = rng.randint(-10, 0)
    for _ in support:
        current += rng.randint(1, 5)
        image.append(current)
    return dict(zip(support, image))


def _apply_shift(element: tuple, shift: dict) -> tuple:
    return tuple(shift[value] for value in element)


# ----------------------------------------------------------------------
# Duplicate insensitivity
# ----------------------------------------------------------------------
@dataclass
class DuplicateInsensitivityCounterexample:
    """Witness that a function distinguishes duplicates: a bag on which it
    disagrees with its own value on the bag's underlying set."""

    bag: list
    deduplicated: list
    bag_value: object
    set_value: object

    def __str__(self) -> str:
        return (
            f"B={self.bag} -> {self.bag_value!r}, "
            f"set(B)={self.deduplicated} -> {self.set_value!r}"
        )


def duplicate_insensitivity_counterexample(
    function: AggregationFunction,
    rng: random.Random,
    trials: int = 200,
    max_size: int = 4,
) -> Optional[DuplicateInsensitivityCounterexample]:
    """Search for a bag whose value under the function changes when its
    duplicates are dropped.

    ``None`` is evidence of (not proof of) duplicate insensitivity — the
    trait the rewriting unfolder relies on to thread ``max``/``min``/
    ``topK``/``cntd`` through duplicating views
    (:attr:`~repro.aggregates.functions.AggregationFunction.is_duplicate_insensitive`);
    for the duplicate-sensitive functions the checker finds witnesses
    quickly (``sum([1, 1]) ≠ sum([1])``).
    """
    arity = function.input_arity if function.input_arity is not None else 1
    for _ in range(trials):
        support = rng.sample(range(-6, 12), k=rng.randint(1, 5))
        bag = _random_bag(rng, support, arity, max_size)
        if not bag:
            continue
        # Force at least one duplicate — deduplication must change something.
        bag = bag + [rng.choice(bag) for _ in range(rng.randint(1, 3))]
        deduplicated = list(dict.fromkeys(bag))
        bag_value = function.apply(bag)
        set_value = function.apply(deduplicated)
        if bag_value != set_value:
            return DuplicateInsensitivityCounterexample(
                bag, deduplicated, bag_value, set_value
            )
    return None


# ----------------------------------------------------------------------
# Singleton determination
# ----------------------------------------------------------------------
def singleton_determining_counterexample(
    function: AggregationFunction, values: Iterable[NumericValue] = range(-3, 4)
) -> Optional[tuple]:
    """Two distinct singleton bags on which the function agrees, if any."""
    arity = function.input_arity
    if arity == 0:
        # Nullary functions are vacuously singleton-determining: their domain
        # has a single element (the empty tuple).
        return None
    candidates = list(values)
    elements: list[tuple]
    if arity is None or arity == 1:
        elements = [(value,) for value in candidates]
    else:
        elements = [tuple([value] * arity) for value in candidates]
    for index, first in enumerate(elements):
        for second in elements[index + 1 :]:
            if function.apply([first]) == function.apply([second]):
                return (first, second)
    return None


# ----------------------------------------------------------------------
# Decomposition principles (Propositions 5.1 and 5.2)
# ----------------------------------------------------------------------
def idempotent_decomposition_counterexample(
    function: AggregationFunction, rng: random.Random, trials: int = 100
) -> Optional[tuple]:
    """Search for a violation of the idempotent decomposition principle:
    ``α(∪ A_i) = Σ_i α(A_i)`` in the underlying monoid."""
    if not function.is_idempotent_monoidal:
        return None
    monoid = function.monoid
    assert monoid is not None
    for _ in range(trials):
        family = _random_set_family(rng, function)
        union: set = set()
        for members in family:
            union |= members
        direct = function.apply(sorted(union))
        combined = monoid.combine(function.apply(sorted(members)) for members in family)
        if direct != combined:
            return (family, direct, combined)
    return None


def group_decomposition_counterexample(
    function: AggregationFunction, rng: random.Random, trials: int = 100
) -> Optional[tuple]:
    """Search for a violation of the inclusion–exclusion decomposition
    principle for group aggregation functions (Proposition 5.2)."""
    if not function.is_group_monoidal:
        return None
    monoid = function.monoid
    assert monoid is not None
    for _ in range(trials):
        family = _random_set_family(rng, function)
        union: set = set()
        for members in family:
            union |= members
        direct = function.apply(sorted(union))
        total = monoid.neutral()
        sign = 1
        for size in range(1, len(family) + 1):
            layer = monoid.neutral()
            for subset in _combinations(family, size):
                intersection = set(subset[0])
                for members in subset[1:]:
                    intersection &= members
                layer = monoid.operation(layer, function.apply(sorted(intersection)))
            total = monoid.operation(total, layer) if sign > 0 else monoid.subtract(total, layer)
            sign = -sign
        if direct != total:
            return (family, direct, total)
    return None


def _random_set_family(rng: random.Random, function: AggregationFunction) -> list[set]:
    arity = function.input_arity if function.input_arity is not None else 1
    def draw_value() -> int:
        value = rng.randint(-5, 9)
        if function.decomposable_over_nonzero_only:
            # prod is a group aggregation function over Q± only; keep the
            # random universe inside that carrier (Table 1's "over Q±" cell).
            while value == 0:
                value = rng.randint(-5, 9)
        return value

    universe = [tuple(draw_value() for _ in range(max(arity, 1))) for _ in range(6)]
    if arity == 0:
        # Nullary functions aggregate copies of the empty tuple; sets of
        # assignments are modelled as sets of distinct opaque markers.
        universe = [(index,) for index in range(6)]
    family = []
    for _ in range(rng.randint(1, 4)):
        family.append({element for element in universe if rng.random() < 0.5})
    return family


def _combinations(family: Sequence[set], size: int):
    import itertools

    return itertools.combinations(family, size)


# ----------------------------------------------------------------------
# Order decidability (cross-check of the ordered-identity deciders)
# ----------------------------------------------------------------------
@dataclass
class OrderedIdentityInconsistency:
    """Witness that a decider disagrees with concrete evaluation."""

    ordering: CompleteOrdering
    left_bag: list
    right_bag: list
    decided_valid: bool
    assignment: dict
    left_value: object
    right_value: object

    def __str__(self) -> str:
        return (
            f"L={self.ordering}, B={self.left_bag}, B'={self.right_bag}: decider says "
            f"valid={self.decided_valid} but under {self.assignment} values are "
            f"{self.left_value} vs {self.right_value}"
        )


def ordered_identity_inconsistency(
    function: AggregationFunction,
    domain: Domain,
    rng: random.Random,
    trials: int = 60,
    realizations: int = 8,
) -> Optional[OrderedIdentityInconsistency]:
    """Cross-check ``decide_ordered_identity`` against concrete evaluation.

    * If the decider declares the identity **valid**, every sampled satisfying
      assignment must make the two aggregates equal.
    * If it declares the identity **invalid**, the check only records an
      inconsistency when *no* sampled assignment distinguishes the bags *and*
      the exhaustive fallback below finds none either — a heuristic, but a
      strong one for the small instances generated here.
    """
    for _ in range(trials):
        terms = _random_term_set(rng, domain)
        orderings = [
            ordering
            for ordering in enumerate_complete_orderings(terms, domain)
            if ordering.is_satisfiable()
        ]
        if not orderings:
            continue
        ordering = rng.choice(orderings)
        arity = function.input_arity if function.input_arity is not None else 1
        left = _random_term_bag(rng, terms, arity)
        right = _random_term_bag(rng, terms, arity)
        decided = function.decide_ordered_identity(ordering, left, right)
        assignments = [ordering.instantiate()]
        for _ in range(realizations):
            assignments.append(random_realization(ordering, rng))
        found_difference = None
        for assignment in assignments:
            left_value = function.apply([_instantiate(element, assignment) for element in left])
            right_value = function.apply([_instantiate(element, assignment) for element in right])
            if left_value != right_value:
                found_difference = (assignment, left_value, right_value)
                break
        if decided and found_difference is not None:
            assignment, left_value, right_value = found_difference
            return OrderedIdentityInconsistency(
                ordering, list(left), list(right), decided, assignment, left_value, right_value
            )
        if not decided and found_difference is None and function.is_shiftable:
            # For shiftable functions a single assignment decides the identity
            # (Theorem 4.4), so "invalid but indistinguishable" is a real
            # inconsistency.
            assignment = assignments[0]
            left_value = function.apply([_instantiate(element, assignment) for element in left])
            right_value = function.apply([_instantiate(element, assignment) for element in right])
            return OrderedIdentityInconsistency(
                ordering, list(left), list(right), decided, assignment, left_value, right_value
            )
    return None


def _random_term_set(rng: random.Random, domain: Domain) -> list[Term]:
    variables = [Variable(name) for name in ("u", "v", "w")[: rng.randint(1, 3)]]
    constants = []
    if rng.random() < 0.7:
        constants.append(Constant(rng.randint(-2, 2)))
    if rng.random() < 0.3:
        value = rng.randint(3, 5)
        constants.append(Constant(value))
    return variables + constants


def _random_term_bag(rng: random.Random, terms: Sequence[Term], arity: int) -> list[tuple]:
    bag = []
    for _ in range(rng.randint(0, 4)):
        bag.append(tuple(rng.choice(terms) for _ in range(max(arity, 0))))
    return bag


def _instantiate(element: tuple, assignment: dict) -> tuple:
    return tuple(
        term.value if isinstance(term, Constant) else assignment[term] for term in element
    )


def random_realization(ordering: CompleteOrdering, rng: random.Random) -> dict[Term, NumericValue]:
    """A randomly chosen concrete assignment realizing a complete ordering.

    Constants (and blocks pinned by the discrete domain) keep their forced
    values; free blocks receive random values consistent with the block order.
    """
    blocks = ordering.blocks
    count = len(blocks)
    pinned = ordering.pinned_blocks()
    values: list[Optional[Fraction]] = [None] * count
    for index in range(count):
        if index in pinned:
            values[index] = Fraction(pinned[index])
            continue
        next_pinned = next((j for j in range(index + 1, count) if j in pinned), None)
        previous = values[index - 1] if index > 0 else None
        if ordering.domain.is_discrete:
            if next_pinned is None:
                low = previous + 1 if previous is not None else Fraction(rng.randint(-8, 0))
                values[index] = low + rng.randint(0, 4)
            else:
                high = Fraction(pinned[next_pinned]) - (next_pinned - index)
                low = previous + 1 if previous is not None else high - rng.randint(0, 4)
                values[index] = Fraction(rng.randint(int(low), int(high)))
        else:
            if next_pinned is None:
                low = previous if previous is not None else Fraction(rng.randint(-8, 0))
                values[index] = low + Fraction(rng.randint(1, 8), rng.randint(1, 3))
            else:
                high = Fraction(pinned[next_pinned])
                low = previous if previous is not None else high - rng.randint(1, 8)
                remaining = next_pinned - index
                fraction = Fraction(rng.randint(1, 9), 10 * remaining)
                values[index] = low + (high - low) * fraction
    assignment: dict[Term, NumericValue] = {}
    for index, block in enumerate(blocks):
        concrete = values[index]
        assert concrete is not None
        numeric: NumericValue = int(concrete) if concrete.denominator == 1 else concrete
        for term in block:
            assignment[term] = term.value if isinstance(term, Constant) else numeric
    return assignment


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@dataclass
class PropertyRow:
    """One row of Table 1."""

    function: str
    shiftable: bool
    order_decidable: bool
    decomposable: bool
    decomposable_note: str
    singleton_determining: bool

    def cells(self) -> tuple[str, str, str, str]:
        def mark(flag: bool, note: str = "") -> str:
            if note:
                return note
            return "yes" if flag else "no"

        return (
            mark(self.shiftable),
            mark(self.order_decidable),
            mark(self.decomposable, self.decomposable_note),
            mark(self.singleton_determining),
        )


#: The paper's Table 1, transcribed for comparison by :func:`table1_matches_paper`.
PAPER_TABLE1: dict[str, tuple[bool, bool, str, bool]] = {
    "count": (True, True, "yes", True),
    "max": (True, True, "yes", True),
    "sum": (False, True, "yes", True),
    "prod": (False, True, "over Q±", True),
    "top2": (True, True, "yes", True),
    "avg": (False, True, "no", True),
    "cntd": (True, True, "no", False),
    "parity": (True, True, "yes", True),
}


def build_table1(functions: Sequence[AggregationFunction] = PAPER_FUNCTIONS) -> list[PropertyRow]:
    """Regenerate Table 1 from the declared traits of the implementation."""
    rows = []
    for function in functions:
        note = ""
        if function.decomposable_over_nonzero_only:
            note = "over Q±"
        rows.append(
            PropertyRow(
                function=function.name,
                shiftable=function.is_shiftable,
                order_decidable=function.is_order_decidable_over(Domain.RATIONALS)
                and function.is_order_decidable_over(Domain.INTEGERS),
                decomposable=function.is_decomposable,
                decomposable_note=note,
                singleton_determining=function.is_singleton_determining,
            )
        )
    return rows


def table1_matches_paper(rows: Iterable[PropertyRow]) -> bool:
    """Whether the regenerated Table 1 agrees with the paper cell by cell."""
    for row in rows:
        expected = PAPER_TABLE1.get(row.function)
        if expected is None:
            continue
        shiftable, order_decidable, decomposable_cell, singleton = expected
        if row.shiftable != shiftable or row.order_decidable != order_decidable:
            return False
        if row.singleton_determining != singleton:
            return False
        if decomposable_cell == "yes" and not row.decomposable:
            return False
        if decomposable_cell == "no" and (row.decomposable or row.decomposable_note):
            return False
        if decomposable_cell == "over Q±" and row.decomposable_note != "over Q±":
            return False
    return True


def format_table1(rows: Sequence[PropertyRow]) -> str:
    """Render Table 1 in the same layout as the paper."""
    header = (
        f"{'':10s} {'Shiftable':>10s} {'Order-Dec.':>11s} {'Decomposable':>13s} "
        f"{'Singleton-Det.':>15s}"
    )
    lines = [header]
    for row in rows:
        cells = row.cells()
        lines.append(
            f"{row.function:10s} {cells[0]:>10s} {cells[1]:>11s} {cells[2]:>13s} {cells[3]:>15s}"
        )
    return "\n".join(lines)
