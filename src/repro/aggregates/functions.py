"""Aggregation functions.

This module implements the aggregation functions studied in the paper —
``count``, ``cntd`` (count distinct), ``parity``, ``sum``, ``prod``, ``avg``,
``max`` and ``top2`` — together with the natural companions the paper mentions
in passing (``min``, ``bot2`` and the generalized ``topK``/``botK``).

Each function carries

* an ``apply`` method evaluating it on a concrete bag of values,
* its structural traits (monoidal / idempotent / group, shiftable,
  singleton-determining, decomposable, order-decidable), matching Table 1 of
  the paper, and
* a ``decide_ordered_identity`` method deciding the validity of an *ordered
  identity* ``L → α(B) = α(B')`` (Section 4.2), which is the inner step of
  the bounded-equivalence procedure.

For shiftable functions the decider follows Theorem 4.4: a single satisfying
assignment of the complete ordering suffices.  For ``sum``, ``avg`` and
``prod`` the deciders implement the specialized procedures from the proofs of
Propositions 4.5 and 4.7.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..datalog.terms import Constant, Term
from ..domains import Domain, NumericValue
from ..errors import UnsupportedAggregateError
from ..orderings.complete_orderings import CompleteOrdering
from .monoids import (
    AbelianMonoid,
    BOT2_MONOID,
    INTEGER_ADDITION,
    MAX_MONOID,
    MIN_MONOID,
    NONZERO_MULTIPLICATION,
    PARITY_MONOID,
    RATIONAL_ADDITION,
    TOP2_MONOID,
    TopKMonoid,
)

#: A bag element, as produced by query evaluation: a tuple of numeric values.
ValueTuple = tuple[NumericValue, ...]
#: A bag element in symbolic form: a tuple of terms.
TermTuple = tuple[Term, ...]


class AggregationFunction(ABC):
    """Base class for aggregation functions."""

    #: Canonical name (lower case), e.g. ``"sum"``.
    name: str = "aggregate"
    #: Arity of the tuples the function aggregates: 0 (count, parity), 1
    #: (sum, max, ...), or ``None`` for "any arity" (cntd).
    input_arity: Optional[int] = 1
    #: The monoid the function is based on, when it is monoidal.
    monoid: Optional[AbelianMonoid] = None
    #: Whether the function is shiftable (Section 4.1).
    is_shiftable: bool = False
    #: Whether the function is singleton-determining (Section 7).
    is_singleton_determining: bool = True
    #: Whether the function is decomposable only over the nonzero rationals
    #: (the special situation of ``prod``, Theorem 6.6).
    decomposable_over_nonzero_only: bool = False
    #: Whether the function's value depends only on the *set* underlying the
    #: bag (``max``, ``min``, ``topK``/``botK``, ``cntd``).  Duplicate
    #: tolerance is what licenses threading the function through view
    #: unfoldings that multiply assignments without changing their projection
    #: (see :mod:`repro.rewriting.unfold`); duplicate-sensitive functions
    #: must be rejected there.  Cross-validated empirically by
    #: :func:`repro.aggregates.properties.duplicate_insensitivity_counterexample`.
    is_duplicate_insensitive: bool = False
    #: How the compiled engine folds a group of interned ids without decoding
    #: its bag, when it can: ``"count"`` (the group's row count), ``"parity"``
    #: (that count mod 2), ``"distinct"`` (the number of distinct elements),
    #: ``"max"``/``"min"`` (the extreme element in value order), ``"sum"``/
    #: ``"avg"`` (the exact sum of the elements, over the count for ``avg``).
    #: ``None`` folds every group through :meth:`apply_counted`.
    id_fold: Optional[str] = None

    # ------------------------------------------------------------------
    # Structural traits
    # ------------------------------------------------------------------
    @property
    def is_monoidal(self) -> bool:
        return self.monoid is not None

    @property
    def is_idempotent_monoidal(self) -> bool:
        return self.monoid is not None and self.monoid.is_idempotent

    @property
    def is_group_monoidal(self) -> bool:
        return self.monoid is not None and self.monoid.is_group

    @property
    def is_decomposable(self) -> bool:
        """Whether the decomposition principles of Section 5 apply."""
        if self.decomposable_over_nonzero_only:
            return False
        return self.is_idempotent_monoidal or self.is_group_monoidal

    def is_order_decidable_over(self, domain: Domain) -> bool:
        """Whether ordered identities for the function can be decided over the
        domain.  All functions shipped with the library are order-decidable
        over both Z and Q (Propositions 4.2, 4.5, 4.7)."""
        return True

    # ------------------------------------------------------------------
    # Concrete evaluation
    # ------------------------------------------------------------------
    @abstractmethod
    def apply(self, bag: Iterable) -> object:
        """Evaluate the function on a bag of values.

        Bag elements may be numeric scalars (for unary functions) or tuples of
        numeric values; nullary functions only look at the number of elements.
        """

    def apply_counted(self, items: Iterable[tuple[object, int]]) -> object:
        """Evaluate the function on a counted bag: ``(element, multiplicity)``
        pairs with distinct elements and positive multiplicities.

        Equal in value and type to :meth:`apply` on the expanded bag.  The
        fold follows the Table 1 traits: a duplicate-insensitive function
        (``max``, ``min``, ``topK``/``botK``, ``cntd``) depends only on the
        set underlying the bag, so it is applied to the distinct elements;
        the group functions ``count``, ``parity``, ``sum`` and ``avg``
        override this to fold multiplicities directly (``Σ m`` and
        ``Σ m·v``); every other function applies to the expanded bag.

        This is the compiled engine's fold on small stores.  On stores large
        enough for NumPy it is the fallback: a function with an
        :attr:`id_fold` folds on interned ids there
        (:mod:`repro.engine.compile`) unless its data rule that out, and
        every other function and bag comes here.
        """
        if self.is_duplicate_insensitive:
            return self.apply([element for element, _ in items])
        return self.apply(
            [element for element, multiplicity in items for _ in range(multiplicity)]
        )

    def normalize_element(self, element) -> ValueTuple:
        """Coerce a bag element into a value tuple of the expected arity."""
        if isinstance(element, tuple):
            values = element
        else:
            values = (element,)
        if self.input_arity is not None and len(values) != self.input_arity:
            if self.input_arity == 0:
                return ()
            raise UnsupportedAggregateError(
                f"{self.name} aggregates {self.input_arity}-tuples, got {element!r}"
            )
        return tuple(values)

    def normalize_bag(self, bag: Iterable) -> list[ValueTuple]:
        return [self.normalize_element(element) for element in bag]

    def scalars(self, bag: Iterable) -> list[NumericValue]:
        """The bag as a list of scalars (for unary functions)."""
        return [element[0] for element in self.normalize_bag(bag)]

    # ------------------------------------------------------------------
    # Ordered identities (Section 4.2)
    # ------------------------------------------------------------------
    def decide_ordered_identity(
        self,
        ordering: CompleteOrdering,
        left_bag: Sequence[TermTuple],
        right_bag: Sequence[TermTuple],
    ) -> bool:
        """Decide the validity of ``L → α(left_bag) = α(right_bag)``.

        The default implementation applies Theorem 4.4: for a shiftable
        function a single satisfying assignment of ``L`` decides the identity.
        Non-shiftable functions override this method.
        """
        if not self.is_shiftable:
            raise UnsupportedAggregateError(
                f"{self.name} has no generic ordered-identity decider; "
                "a specialized decider must be provided"
            )
        assignment = ordering.instantiate()
        left_values = [_instantiate_element(element, assignment) for element in left_bag]
        right_values = [_instantiate_element(element, assignment) for element in right_bag]
        return self.apply(left_values) == self.apply(right_values)

    def __repr__(self) -> str:
        return f"<aggregation function {self.name}>"

    def __str__(self) -> str:
        return self.name


def _instantiate_element(element: TermTuple, assignment) -> ValueTuple:
    return tuple(
        term.value if isinstance(term, Constant) else assignment[term] for term in element
    )


# ----------------------------------------------------------------------
# Group aggregation functions
# ----------------------------------------------------------------------
class Count(AggregationFunction):
    """``count`` — the number of elements of the bag (a nullary function
    based on the group (Z, +, 0) with ``f(()) = 1``)."""

    name = "count"
    input_arity = 0
    monoid = INTEGER_ADDITION
    is_shiftable = True
    is_singleton_determining = True
    id_fold = "count"

    def apply(self, bag: Iterable) -> int:
        return sum(1 for _ in bag)

    def apply_counted(self, items: Iterable[tuple[object, int]]) -> int:
        return sum(multiplicity for _, multiplicity in items)

    def decide_ordered_identity(self, ordering, left_bag, right_bag) -> bool:
        # Cardinality comparison; equivalent to (but cheaper than) the generic
        # shiftable decider.
        return len(left_bag) == len(right_bag)


class Parity(AggregationFunction):
    """``parity`` — 0 or 1 depending on whether the bag has an even or odd
    number of elements (based on the group Z2)."""

    name = "parity"
    input_arity = 0
    monoid = PARITY_MONOID
    is_shiftable = True
    is_singleton_determining = True
    id_fold = "parity"

    def apply(self, bag: Iterable) -> int:
        return sum(1 for _ in bag) % 2

    def apply_counted(self, items: Iterable[tuple[object, int]]) -> int:
        return sum(multiplicity for _, multiplicity in items) % 2

    def decide_ordered_identity(self, ordering, left_bag, right_bag) -> bool:
        return len(left_bag) % 2 == len(right_bag) % 2


class Sum(AggregationFunction):
    """``sum`` — the sum of the elements (based on the group (Q, +, 0))."""

    name = "sum"
    input_arity = 1
    monoid = RATIONAL_ADDITION
    is_shiftable = False
    is_singleton_determining = True
    id_fold = "sum"

    def apply(self, bag: Iterable) -> NumericValue:
        total = Fraction(0)
        for value in self.scalars(bag):
            total += Fraction(value)
        return int(total) if total.denominator == 1 else total

    def apply_counted(self, items: Iterable[tuple[object, int]]) -> NumericValue:
        total, _ = _weighted_total(self, items)
        return int(total) if total.denominator == 1 else total

    def decide_ordered_identity(self, ordering, left_bag, right_bag) -> bool:
        """Proposition 4.5: compare the symbolic linear forms of the two bags.

        After quotienting by the ordering (and by integer pinning over Z), the
        identity is valid iff every free block occurs with the same
        multiplicity on both sides and the constant parts coincide.
        """
        return _sum_signature(left_bag, ordering) == _sum_signature(right_bag, ordering)


class Prod(AggregationFunction):
    """``prod`` — the product of the elements.

    Over Q± the function is based on the multiplicative group (Q±, ·, 1); over
    the full rationals or integers it is not a monoid aggregation function
    (0 absorbs), which is why equivalence needs the special treatment of
    Theorem 6.6.
    """

    name = "prod"
    input_arity = 1
    monoid = NONZERO_MULTIPLICATION
    is_shiftable = False
    is_singleton_determining = True
    decomposable_over_nonzero_only = True

    def apply(self, bag: Iterable) -> NumericValue:
        total = Fraction(1)
        for value in self.scalars(bag):
            total *= Fraction(value)
        return int(total) if total.denominator == 1 else total

    def decide_ordered_identity(self, ordering, left_bag, right_bag) -> bool:
        """Proposition 4.7: check the identity under every conservative
        extension of the ordering with the constant 0."""
        zero = Constant(0)
        extensions = list(ordering.conservative_extensions(zero))
        if not extensions:
            # The ordering itself is unsatisfiable once 0 is taken into
            # account; the identity is vacuously valid.
            return True
        for extension in extensions:
            if not _prod_identity_under(extension, left_bag, right_bag):
                return False
        return True


class Average(AggregationFunction):
    """``avg`` — the average of the elements.

    Not a monoid aggregation function, but order-decidable (Proposition 4.5):
    ``avg(B) = avg(B')`` iff ``sum(|B'| ⊗ B) = sum(|B| ⊗ B')``.
    """

    name = "avg"
    input_arity = 1
    monoid = None
    is_shiftable = False
    is_singleton_determining = True
    id_fold = "avg"

    def apply(self, bag: Iterable) -> Optional[NumericValue]:
        values = self.scalars(bag)
        if not values:
            return None
        total = Fraction(0)
        for value in values:
            total += Fraction(value)
        average = total / len(values)
        return int(average) if average.denominator == 1 else average

    def apply_counted(self, items: Iterable[tuple[object, int]]) -> Optional[NumericValue]:
        total, count = _weighted_total(self, items)
        if not count:
            return None
        average = Fraction(total, count)
        return int(average) if average.denominator == 1 else average

    def decide_ordered_identity(self, ordering, left_bag, right_bag) -> bool:
        if not left_bag or not right_bag:
            return not left_bag and not right_bag
        scaled_left = list(left_bag) * len(right_bag)
        scaled_right = list(right_bag) * len(left_bag)
        return _sum_signature(scaled_left, ordering) == _sum_signature(scaled_right, ordering)


# ----------------------------------------------------------------------
# Idempotent aggregation functions
# ----------------------------------------------------------------------
class Max(AggregationFunction):
    """``max`` — the greatest element (based on the idempotent monoid Q⊥)."""

    name = "max"
    input_arity = 1
    monoid = MAX_MONOID
    is_shiftable = True
    is_singleton_determining = True
    is_duplicate_insensitive = True
    id_fold = "max"

    def apply(self, bag: Iterable) -> Optional[NumericValue]:
        values = self.scalars(bag)
        if not values:
            return None
        return max(values, key=Fraction)


class Min(AggregationFunction):
    """``min`` — the least element (the dual of ``max``; the paper notes the
    results for ``max`` carry over directly)."""

    name = "min"
    input_arity = 1
    monoid = MIN_MONOID
    is_shiftable = True
    is_singleton_determining = True
    is_duplicate_insensitive = True
    id_fold = "min"

    def apply(self, bag: Iterable) -> Optional[NumericValue]:
        values = self.scalars(bag)
        if not values:
            return None
        return min(values, key=Fraction)


class TopK(AggregationFunction):
    """``topK``/``botK`` — the K greatest (least) *distinct* elements, based
    on the idempotent monoid T_K (Example 2.1).  ``top2`` is the paper's
    headline instance.

    The result is a tuple of at most K distinct values in decreasing
    (increasing) order; missing positions — the paper's ⊥ — are simply absent.
    """

    input_arity = 1
    is_shiftable = True
    is_singleton_determining = True
    is_duplicate_insensitive = True  # "K greatest *distinct* elements"

    def __init__(self, k: int, largest: bool = True):
        self.k = k
        self.largest = largest
        self.name = f"{'top' if largest else 'bot'}{k}"
        self.monoid = TopKMonoid(k, largest=largest)

    def apply(self, bag: Iterable) -> tuple:
        values = set(self.scalars(bag))
        ordered = sorted(values, key=Fraction, reverse=self.largest)
        return tuple(ordered[: self.k])


# ----------------------------------------------------------------------
# Count distinct
# ----------------------------------------------------------------------
class CountDistinct(AggregationFunction):
    """``cntd`` — the number of distinct elements.

    Shiftable (hence order-decidable), but neither monoidal nor
    singleton-determining; unbounded equivalence for ``cntd``-queries is left
    open by the paper.
    """

    name = "cntd"
    input_arity = None
    monoid = None
    is_shiftable = True
    is_singleton_determining = False
    is_duplicate_insensitive = True
    id_fold = "distinct"

    def apply(self, bag: Iterable) -> int:
        return len({self.normalize_element(element) for element in bag})


def _weighted_total(
    function: AggregationFunction, items: Iterable[tuple[object, int]]
) -> tuple[NumericValue, int]:
    """``(Σ m·v, Σ m)`` over a counted bag of unary elements, in exact
    ``int``/``Fraction`` arithmetic (an all-``int`` bag never leaves ``int``)."""
    total: NumericValue = 0
    count = 0
    for element, multiplicity in items:
        (value,) = function.normalize_element(element)
        if not isinstance(value, int):
            value = Fraction(value)
        total += value * multiplicity
        count += multiplicity
    return total, count


# ----------------------------------------------------------------------
# Symbolic helpers for the sum / prod deciders
# ----------------------------------------------------------------------
def _sum_signature(bag: Sequence[TermTuple], ordering: CompleteOrdering):
    """The linear form of a symbolic bag: (constant part, multiplicity of each
    free block representative)."""
    constant_part = Fraction(0)
    multiplicities: Counter = Counter()
    for element in bag:
        if len(element) != 1:
            raise UnsupportedAggregateError("sum/avg aggregate single values, not tuples")
        term = ordering.canonical_term(element[0])
        if isinstance(term, Constant):
            constant_part += Fraction(term.value)
        else:
            multiplicities[term] += 1
    return constant_part, multiplicities


def _prod_identity_under(
    ordering: CompleteOrdering, left_bag: Sequence[TermTuple], right_bag: Sequence[TermTuple]
) -> bool:
    """The validity test of Proposition 4.7 under a single (already extended
    and reduced) complete ordering."""
    left_constant, left_exponents = _prod_signature(left_bag, ordering)
    right_constant, right_exponents = _prod_signature(right_bag, ordering)
    if left_constant == 0 and right_constant == 0:
        return True
    return left_constant == right_constant and left_exponents == right_exponents


def _prod_signature(bag: Sequence[TermTuple], ordering: CompleteOrdering):
    constant_part = Fraction(1)
    exponents: Counter = Counter()
    for element in bag:
        if len(element) != 1:
            raise UnsupportedAggregateError("prod aggregates single values, not tuples")
        term = ordering.canonical_term(element[0])
        if isinstance(term, Constant):
            constant_part *= Fraction(term.value)
        else:
            exponents[term] += 1
    return constant_part, exponents


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
COUNT = Count()
PARITY = Parity()
SUM = Sum()
PROD = Prod()
AVG = Average()
MAX = Max()
MIN = Min()
TOP2 = TopK(2, largest=True)
BOT2 = TopK(2, largest=False)
CNTD = CountDistinct()

#: The eight functions of Table 1, in the paper's order.
PAPER_FUNCTIONS: tuple[AggregationFunction, ...] = (
    COUNT,
    MAX,
    SUM,
    PROD,
    TOP2,
    AVG,
    CNTD,
    PARITY,
)

_REGISTRY: dict[str, AggregationFunction] = {
    "count": COUNT,
    "parity": PARITY,
    "sum": SUM,
    "prod": PROD,
    "product": PROD,
    "avg": AVG,
    "average": AVG,
    "max": MAX,
    "min": MIN,
    "top2": TOP2,
    "bot2": BOT2,
    "cntd": CNTD,
    "countd": CNTD,
    "count_distinct": CNTD,
}

for _k in (3, 4, 5):
    _REGISTRY[f"top{_k}"] = TopK(_k, largest=True)
    _REGISTRY[f"bot{_k}"] = TopK(_k, largest=False)


def get_function(name: str) -> AggregationFunction:
    """Look up an aggregation function by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise UnsupportedAggregateError(
            f"unknown aggregation function {name!r}; known functions: {known}"
        ) from exc


def registered_function_names() -> list[str]:
    """All names (including aliases) accepted by :func:`get_function`."""
    return sorted(_REGISTRY)
