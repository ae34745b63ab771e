"""Complete orderings of term sets.

A *complete ordering* ``L`` of a set of terms ``T`` determines, for every pair
of terms, exactly one of ``<``, ``=``, ``>`` (Section 4.2).  We represent a
complete ordering as an **ordered partition** of ``T``: a sequence of blocks in
strictly increasing order, where terms inside a block are equal.  A block may
contain at most one constant, and blocks containing constants must respect the
numeric order of those constants.

Complete orderings are the backbone of the bounded-equivalence procedure
(Theorem 4.8): the procedure enumerates all complete orderings of the relevant
term set and, for each, decides an *ordered identity* ``L → α(B) = α(B')``.
This module provides

* the :class:`CompleteOrdering` value object with comparison, satisfiability
  (dense vs. discrete domains), instantiation and pinning utilities,
* enumeration of all complete orderings of a term set over a domain,
* *conservative extensions* with a new constant (used by the ``prod`` decider,
  Proposition 4.7),
* *reduction* information: which blocks are forced to a unique value over the
  integers (e.g. ``3 < x < 5`` forces ``x = 4``), mirroring the paper's notion
  of a term set being *reduced* with respect to ``L`` and a domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..datalog.atoms import Comparison, ComparisonOp
from ..datalog.terms import Constant, Term, Variable
from ..domains import Domain, NumericValue
from ..errors import UnsatisfiableOrderingError


@dataclass(frozen=True)
class CompleteOrdering:
    """An ordered partition of a term set, interpreted over a domain."""

    blocks: tuple[frozenset, ...]
    domain: Domain = Domain.RATIONALS

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(frozenset(block) for block in self.blocks))
        previous_value: Optional[Fraction] = None
        for block in self.blocks:
            if not block:
                raise UnsatisfiableOrderingError("complete orderings may not contain empty blocks")
            constants = [term for term in block if isinstance(term, Constant)]
            if len(constants) > 1:
                raise UnsatisfiableOrderingError(
                    f"a block may contain at most one constant: {sorted(map(str, block))}"
                )
            if constants:
                value = Fraction(constants[0].value)
                if previous_value is not None and value <= previous_value:
                    raise UnsatisfiableOrderingError(
                        "constants must appear in strictly increasing order"
                    )
                previous_value = value

    def __hash__(self) -> int:
        # Orderings key the representative-map and Γ caches consulted on
        # every symbolic evaluation; cache the structural hash.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.blocks, self.domain))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __getstate__(self):
        # The cached structural hash must not cross process boundaries:
        # string hashing is salted per interpreter, so a pickled hash would
        # be wrong in a spawn-started worker.  Recompute lazily on first use.
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        return state

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def term_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def terms(self) -> set[Term]:
        result: set[Term] = set()
        for block in self.blocks:
            result |= block
        return result

    def block_index(self, term: Term) -> int:
        for index, block in enumerate(self.blocks):
            if term in block:
                return index
        raise KeyError(f"term {term} does not occur in this ordering")

    def __contains__(self, term: Term) -> bool:
        return any(term in block for block in self.blocks)

    def constant_of(self, index: int) -> Optional[Constant]:
        for term in self.blocks[index]:
            if isinstance(term, Constant):
                return term
        return None

    def representative(self, index: int) -> Term:
        """A canonical member of the block: its constant if it has one,
        otherwise the lexicographically smallest variable."""
        constant = self.constant_of(index)
        if constant is not None:
            return constant
        variables = sorted(
            (term for term in self.blocks[index] if isinstance(term, Variable)),
            key=lambda v: v.name,
        )
        return variables[0]

    # ------------------------------------------------------------------
    # Order relation
    # ------------------------------------------------------------------
    def compare(self, left: Term, right: Term) -> int:
        """-1, 0 or 1 according to the order the ordering imposes."""
        left_index = self.block_index(left)
        right_index = self.block_index(right)
        if left_index < right_index:
            return -1
        if left_index > right_index:
            return 1
        return 0

    def satisfies(self, comparison: Comparison) -> bool:
        """Whether the ordering makes the comparison true.

        Because the ordering is complete, "satisfies" and "entails" coincide
        for comparisons between terms of the ordering.
        """
        relation = self.compare(comparison.left, comparison.right)
        op = comparison.op
        if op is ComparisonOp.LT:
            return relation < 0
        if op is ComparisonOp.LE:
            return relation <= 0
        if op is ComparisonOp.GT:
            return relation > 0
        if op is ComparisonOp.GE:
            return relation >= 0
        if op is ComparisonOp.NE:
            return relation != 0
        return relation == 0

    entails = satisfies

    def to_comparisons(self) -> list[Comparison]:
        """A conjunction of comparisons axiomatizing the ordering: equalities
        inside blocks and strict inequalities between consecutive blocks."""
        comparisons: list[Comparison] = []
        for index, block in enumerate(self.blocks):
            members = sorted(block, key=str)
            representative = self.representative(index)
            for member in members:
                if member != representative:
                    comparisons.append(Comparison(member, ComparisonOp.EQ, representative))
        for index in range(len(self.blocks) - 1):
            comparisons.append(
                Comparison(
                    self.representative(index), ComparisonOp.LT, self.representative(index + 1)
                )
            )
        return comparisons

    # ------------------------------------------------------------------
    # Satisfiability and pinning (discrete-domain reasoning)
    # ------------------------------------------------------------------
    def _constant_positions(self) -> list[tuple[int, Fraction]]:
        positions = []
        for index in range(len(self.blocks)):
            constant = self.constant_of(index)
            if constant is not None:
                positions.append((index, Fraction(constant.value)))
        return positions

    def is_satisfiable(self) -> bool:
        """Whether some assignment of domain values realizes the ordering.

        Over a dense domain every ordering with correctly placed constants is
        satisfiable.  Over the integers the number of blocks strictly between
        two constants must not exceed the number of integers strictly between
        their values.
        """
        if self.domain.is_dense:
            return True
        positions = self._constant_positions()
        for (low_index, low_value), (high_index, high_value) in zip(positions, positions[1:]):
            if high_value.denominator != 1 or low_value.denominator != 1:
                return False
            if (high_index - low_index) > (high_value - low_value):
                return False
        return all(Fraction(value).denominator == 1 for _, value in positions)

    def forced_value(self, index: int) -> Optional[NumericValue]:
        """The unique value the block must take, when the domain forces one.

        Blocks containing a constant are forced to that constant.  Over the
        integers a block squeezed between two constants whose distance equals
        the number of blocks between them is forced as well.
        """
        constant = self.constant_of(index)
        if constant is not None:
            return constant.value
        if self.domain.is_dense:
            return None
        positions = self._constant_positions()
        below = [(i, v) for i, v in positions if i < index]
        above = [(i, v) for i, v in positions if i > index]
        if not below or not above:
            return None
        low_index, low_value = below[-1]
        high_index, high_value = above[0]
        if (high_index - low_index) == (high_value - low_value):
            return int(low_value + (index - low_index))
        return None

    def pinned_blocks(self) -> dict[int, NumericValue]:
        """All blocks with a forced value (including constant blocks)."""
        result: dict[int, NumericValue] = {}
        for index in range(len(self.blocks)):
            value = self.forced_value(index)
            if value is not None:
                result[index] = value
        return result

    def free_block_indices(self) -> list[int]:
        """Blocks that can take at least two distinct values."""
        return [index for index in range(len(self.blocks)) if self.forced_value(index) is None]

    def canonical_term(self, term: Term) -> Term:
        """Quotient map used by the ordered-identity deciders: the block's
        forced value as a constant when one exists, otherwise the block's
        representative variable.  Constants that do not occur in the ordering
        are returned unchanged (they denote themselves)."""
        if isinstance(term, Constant) and term not in self:
            return term
        index = self.block_index(term)
        forced = self.forced_value(index)
        if forced is not None:
            return Constant(forced)
        return self.representative(index)

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------
    def instantiate(self) -> dict[Term, NumericValue]:
        """A concrete satisfying assignment mapping every term to a domain
        value consistent with the ordering (distinct blocks get distinct
        values, constants map to themselves)."""
        if not self.is_satisfiable():
            raise UnsatisfiableOrderingError(f"ordering is unsatisfiable over {self.domain.value}")
        block_values = self._block_values()
        assignment: dict[Term, NumericValue] = {}
        for index, block in enumerate(self.blocks):
            for term in block:
                if isinstance(term, Constant):
                    assignment[term] = term.value
                else:
                    assignment[term] = block_values[index]
        return assignment

    def _block_values(self) -> list[NumericValue]:
        count = len(self.blocks)
        positions = self._constant_positions()
        values: list[Optional[Fraction]] = [None] * count
        for index, value in positions:
            values[index] = value
        if not positions:
            concrete = [Fraction(i) for i in range(count)]
        else:
            concrete = list(values)
            first_index, first_value = positions[0]
            for index in range(first_index - 1, -1, -1):
                concrete[index] = first_value - (first_index - index)
            last_index, last_value = positions[-1]
            for index in range(last_index + 1, count):
                concrete[index] = last_value + (index - last_index)
            for (low_index, low_value), (high_index, high_value) in zip(positions, positions[1:]):
                gap = high_index - low_index
                for offset in range(1, gap):
                    index = low_index + offset
                    if self.domain.is_dense:
                        concrete[index] = low_value + (high_value - low_value) * Fraction(offset, gap)
                    else:
                        concrete[index] = low_value + offset
        result: list[NumericValue] = []
        for value in concrete:
            fraction = Fraction(value)
            if fraction.denominator == 1:
                result.append(int(fraction))
            else:
                result.append(fraction)
        return result

    # ------------------------------------------------------------------
    # Extensions and projections
    # ------------------------------------------------------------------
    def conservative_extensions(self, constant: Constant) -> Iterator["CompleteOrdering"]:
        """All complete orderings of ``terms ∪ {constant}`` that agree with
        this ordering on the original terms (Proposition 4.7)."""
        if any(constant in block for block in self.blocks):
            yield self
            return
        value = Fraction(constant.value)
        count = len(self.blocks)
        # Option (a): merge the constant into an existing constant-free block.
        for index in range(count):
            if self.constant_of(index) is not None:
                continue
            blocks = list(self.blocks)
            blocks[index] = blocks[index] | {constant}
            candidate = self._try_build(blocks)
            if candidate is not None:
                yield candidate
        # Option (b): insert the constant as a new singleton block.
        for position in range(count + 1):
            blocks = list(self.blocks)
            blocks.insert(position, frozenset({constant}))
            candidate = self._try_build(blocks)
            if candidate is not None:
                yield candidate

    def _try_build(self, blocks: Sequence[frozenset]) -> Optional["CompleteOrdering"]:
        try:
            candidate = CompleteOrdering(tuple(blocks), self.domain)
        except UnsatisfiableOrderingError:
            return None
        if not candidate.is_satisfiable():
            return None
        return candidate

    def restricted_to(self, terms: Iterable[Term]) -> "CompleteOrdering":
        """The ordering induced on a subset of the terms."""
        wanted = set(terms)
        blocks = []
        for block in self.blocks:
            kept = block & wanted
            if kept:
                blocks.append(frozenset(kept))
        return CompleteOrdering(tuple(blocks), self.domain)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(
        cls, assignment: Mapping[Term, NumericValue], domain: Domain = Domain.RATIONALS
    ) -> "CompleteOrdering":
        """The complete ordering induced by a concrete assignment."""
        by_value: dict[Fraction, set[Term]] = {}
        for term, value in assignment.items():
            by_value.setdefault(Fraction(value), set()).add(term)
        for term in list(assignment):
            if isinstance(term, Constant) and Fraction(term.value) != Fraction(assignment[term]):
                raise UnsatisfiableOrderingError(f"constant {term} mapped to {assignment[term]}")
        blocks = [frozenset(by_value[value]) for value in sorted(by_value)]
        return cls(tuple(blocks), domain)

    def __str__(self) -> str:
        parts = []
        for block in self.blocks:
            members = " = ".join(sorted(str(term) for term in block))
            parts.append(members if len(block) == 1 else f"({members})")
        return " < ".join(parts)

    def __repr__(self) -> str:
        return f"CompleteOrdering({str(self)!r}, domain={self.domain.value})"


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
def enumerate_complete_orderings(
    terms: Iterable[Term], domain: Domain = Domain.RATIONALS
) -> Iterator[CompleteOrdering]:
    """Enumerate every complete ordering of ``terms`` over ``domain``.

    Constants are placed in the order of their values; variables are inserted
    into every existing block and every gap.  Orderings that are unsatisfiable
    over a discrete domain (too many blocks squeezed between two constants)
    are skipped.
    """
    term_set = set(terms)
    constants = sorted(
        {term for term in term_set if isinstance(term, Constant)}, key=lambda c: Fraction(c.value)
    )
    variables = sorted(
        {term for term in term_set if isinstance(term, Variable)}, key=lambda v: v.name
    )
    initial: tuple[frozenset, ...] = tuple(frozenset({constant}) for constant in constants)
    for blocks in _insert_variables(initial, variables):
        ordering = CompleteOrdering(blocks, domain)
        if ordering.is_satisfiable():
            yield ordering


def _insert_variables(
    blocks: tuple[frozenset, ...], variables: Sequence[Variable]
) -> Iterator[tuple[frozenset, ...]]:
    if not variables:
        if blocks:
            yield blocks
        return
    variable, rest = variables[0], variables[1:]
    # Join an existing block.
    for index in range(len(blocks)):
        extended = blocks[:index] + (blocks[index] | {variable},) + blocks[index + 1 :]
        yield from _insert_variables(extended, rest)
    # Start a new block in any gap.
    for position in range(len(blocks) + 1):
        extended = blocks[:position] + (frozenset({variable}),) + blocks[position:]
        yield from _insert_variables(extended, rest)


def count_complete_orderings(term_count: int) -> int:
    """The number of ordered set partitions (Fubini number) of ``term_count``
    distinct variables: how many complete orderings of them exist."""
    fubini = [1]
    for n in range(1, term_count + 1):
        total = 0
        for k in range(1, n + 1):
            total += _binomial(n, k) * fubini[n - k]
        fubini.append(total)
    return fubini[term_count]


def _binomial(n: int, k: int) -> int:
    result = 1
    for i in range(1, k + 1):
        result = result * (n - i + 1) // i
    return result
