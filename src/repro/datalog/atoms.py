"""Atoms and literals.

The paper distinguishes three kinds of literals (Section 3.1):

* a *positive relational atom* ``p(s1, ..., sk)``,
* a *negated relational atom* ``¬p(s1, ..., sk)``,
* an *ordering atom* (comparison) ``s1 ρ s2`` with ρ one of ``<, ≤, >, ≥, ≠``.

We additionally support equality comparisons ``s1 = s2`` because the safety
definition allows variables to be "equated with" variables from positive atoms;
equalities are eliminated during query reduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Union

from ..errors import QuerySyntaxError
from .terms import Constant, Term, Variable, substitute_terms, variables_of, constants_of


class ComparisonOp(enum.Enum):
    """Ordering predicates on terms."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    NE = "!="
    EQ = "="

    @property
    def symbol(self) -> str:
        return self.value

    def flip(self) -> "ComparisonOp":
        """The operator obtained by swapping the two operands."""
        return _FLIPPED[self]

    def negate(self) -> "ComparisonOp":
        """The operator expressing the negation of this comparison."""
        return _NEGATED[self]

    def holds(self, left, right) -> bool:
        """Evaluate the comparison on two concrete numeric values."""
        if self is ComparisonOp.LT:
            return left < right
        if self is ComparisonOp.LE:
            return left <= right
        if self is ComparisonOp.GT:
            return left > right
        if self is ComparisonOp.GE:
            return left >= right
        if self is ComparisonOp.NE:
            return left != right
        return left == right

    @classmethod
    def from_symbol(cls, symbol: str) -> "ComparisonOp":
        try:
            return _BY_SYMBOL[symbol]
        except KeyError as exc:
            raise QuerySyntaxError(f"unknown comparison operator {symbol!r}") from exc


_FLIPPED = {
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.EQ: ComparisonOp.EQ,
}

_NEGATED = {
    ComparisonOp.LT: ComparisonOp.GE,
    ComparisonOp.LE: ComparisonOp.GT,
    ComparisonOp.GT: ComparisonOp.LE,
    ComparisonOp.GE: ComparisonOp.LT,
    ComparisonOp.NE: ComparisonOp.EQ,
    ComparisonOp.EQ: ComparisonOp.NE,
}

_BY_SYMBOL = {
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    "=<": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
    "=>": ComparisonOp.GE,
    "!=": ComparisonOp.NE,
    "<>": ComparisonOp.NE,
    "=": ComparisonOp.EQ,
    "==": ComparisonOp.EQ,
}


@dataclass(frozen=True)
class RelationalAtom:
    """A (possibly negated) relational atom ``p(s1, ..., sk)``."""

    predicate: str
    arguments: tuple[Term, ...]
    negated: bool = False

    def __post_init__(self) -> None:
        if not self.predicate:
            raise QuerySyntaxError("predicate names must be non-empty")
        object.__setattr__(self, "arguments", tuple(self.arguments))

    def __hash__(self) -> int:
        # Atoms populate the frozensets and dict keys of every symbolic
        # database; cache the structural hash instead of re-deriving it.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.predicate, self.arguments, self.negated))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __getstate__(self):
        # The cached structural hash must not cross process boundaries:
        # string hashing is salted per interpreter, so a pickled hash would
        # be wrong in a spawn-started worker.  Recompute lazily on first use.
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        return state

    @property
    def arity(self) -> int:
        return len(self.arguments)

    @property
    def is_positive(self) -> bool:
        return not self.negated

    @property
    def is_ground(self) -> bool:
        return all(isinstance(arg, Constant) for arg in self.arguments)

    def variables(self) -> set[Variable]:
        return variables_of(self.arguments)

    def constants(self) -> set[Constant]:
        return constants_of(self.arguments)

    def positive(self) -> "RelationalAtom":
        """The positive version of this atom (drop the negation, if any)."""
        if self.is_positive:
            return self
        return RelationalAtom(self.predicate, self.arguments, negated=False)

    def negate(self) -> "RelationalAtom":
        return RelationalAtom(self.predicate, self.arguments, negated=not self.negated)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "RelationalAtom":
        return RelationalAtom(self.predicate, substitute_terms(self.arguments, mapping), self.negated)

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.arguments)
        body = f"{self.predicate}({args})"
        return f"not {body}" if self.negated else body

    def __repr__(self) -> str:
        return f"RelationalAtom({str(self)!r})"


@dataclass(frozen=True)
class Comparison:
    """An ordering atom ``left ρ right``."""

    left: Term
    op: ComparisonOp
    right: Term

    def variables(self) -> set[Variable]:
        return variables_of((self.left, self.right))

    def constants(self) -> set[Constant]:
        return constants_of((self.left, self.right))

    @property
    def is_equality(self) -> bool:
        return self.op is ComparisonOp.EQ

    def flip(self) -> "Comparison":
        """The same constraint written with the operands swapped."""
        return Comparison(self.right, self.op.flip(), self.left)

    def negate(self) -> "Comparison":
        """The comparison expressing the negation of this one."""
        return Comparison(self.left, self.op.negate(), self.right)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Comparison":
        left, right = substitute_terms((self.left, self.right), mapping)
        return Comparison(left, self.op, right)

    def evaluate_ground(self) -> bool:
        """Evaluate the comparison when both operands are constants."""
        if not (isinstance(self.left, Constant) and isinstance(self.right, Constant)):
            raise QuerySyntaxError(f"comparison {self} is not ground")
        return self.op.holds(self.left.as_fraction, self.right.as_fraction)

    def __str__(self) -> str:
        return f"{self.left} {self.op.symbol} {self.right}"

    def __repr__(self) -> str:
        return f"Comparison({str(self)!r})"


#: A literal is a relational atom (positive or negated) or a comparison.
Literal = Union[RelationalAtom, Comparison]


@dataclass(frozen=True)
class GroundAtom:
    """A ground relational fact ``p(c1, ..., ck)`` as stored in a database."""

    predicate: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def arity(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        args = ", ".join(str(value) for value in self.values)
        return f"{self.predicate}({args})"

    def __repr__(self) -> str:
        return f"GroundAtom({str(self)!r})"
