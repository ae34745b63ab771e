"""Conditions: conjunctions of literals.

A *condition* is a conjunction of literals (positive relational atoms, negated
relational atoms and comparisons).  A condition is *safe* when every variable
appearing in it either appears in a positive relational atom or is equated with
such a variable (Section 3.1); all conditions handled by the library are
required to be safe.

Conditions are *hash-consed* (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", 2006): :func:`intern_condition` maps every condition to the
one live object with its literals, and :class:`~repro.datalog.queries.Query`
interns its disjuncts on construction.  Equal disjuncts of a process are
then one object, so the plan and kernel caches keyed by conditions hit on
identity instead of walking the AST.  Equality itself stays structural;
interning only makes equal conditions identical.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..caches import register_cache
from ..errors import UnsafeQueryError
from .atoms import Comparison, ComparisonOp, Literal, RelationalAtom
from .terms import Constant, Term, Variable


@dataclass(frozen=True)
class Condition:
    """A conjunction of literals, kept in the order they were given.

    The class exposes the three syntactic components the paper manipulates
    separately: the positive relational atoms ``P``, the negated relational
    atoms ``N`` and the comparisons ``C`` (Section 6 uses the decomposition
    ``A = P ∧ N ∧ C``).
    """

    literals: tuple[Literal, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(self.literals))

    def __hash__(self) -> int:
        # Conditions key the plan and kernel caches on every symbolic
        # evaluation; cache the structural hash.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash(self.literals)
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
    # Syntactic components
    # ------------------------------------------------------------------
    @property
    def positive_atoms(self) -> tuple[RelationalAtom, ...]:
        # Planning touches this on every evaluation; cache like the hash.
        cached = self.__dict__.get("_cached_positive_atoms")
        if cached is None:
            cached = tuple(
                literal
                for literal in self.literals
                if isinstance(literal, RelationalAtom) and literal.is_positive
            )
            object.__setattr__(self, "_cached_positive_atoms", cached)
        return cached

    @property
    def negated_atoms(self) -> tuple[RelationalAtom, ...]:
        cached = self.__dict__.get("_cached_negated_atoms")
        if cached is None:
            cached = tuple(
                literal
                for literal in self.literals
                if isinstance(literal, RelationalAtom) and literal.negated
            )
            object.__setattr__(self, "_cached_negated_atoms", cached)
        return cached

    @property
    def relational_atoms(self) -> tuple[RelationalAtom, ...]:
        return tuple(literal for literal in self.literals if isinstance(literal, RelationalAtom))

    @property
    def comparisons(self) -> tuple[Comparison, ...]:
        return tuple(literal for literal in self.literals if isinstance(literal, Comparison))

    @property
    def is_positive(self) -> bool:
        """Whether the condition contains no negated relational atoms."""
        return not self.negated_atoms

    # ------------------------------------------------------------------
    # Variables, constants, predicates
    # ------------------------------------------------------------------
    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for literal in self.literals:
            result |= literal.variables()
        return result

    def constants(self) -> set[Constant]:
        result: set[Constant] = set()
        for literal in self.literals:
            result |= literal.constants()
        return result

    def terms(self) -> set[Term]:
        result: set[Term] = set()
        result |= self.variables()
        result |= self.constants()
        return result

    def predicates(self) -> set[str]:
        return {atom.predicate for atom in self.relational_atoms}

    def positive_predicates(self) -> set[str]:
        return {atom.predicate for atom in self.positive_atoms}

    def negated_predicates(self) -> set[str]:
        return {atom.predicate for atom in self.negated_atoms}

    @property
    def variable_size(self) -> int:
        """The number of variables in the condition (Section 4)."""
        return len(self.variables())

    # ------------------------------------------------------------------
    # Safety
    # ------------------------------------------------------------------
    def safe_variables(self) -> set[Variable]:
        """Variables that appear in a positive atom or are (transitively)
        equated with such a variable via equality comparisons."""
        safe: set[Variable] = set()
        for atom in self.positive_atoms:
            safe |= atom.variables()
        # Propagate through equalities until a fixed point.
        equalities = [
            comparison for comparison in self.comparisons if comparison.op is ComparisonOp.EQ
        ]
        changed = True
        while changed:
            changed = False
            for comparison in equalities:
                left, right = comparison.left, comparison.right
                left_safe = isinstance(left, Constant) or left in safe
                right_safe = isinstance(right, Constant) or right in safe
                if left_safe and isinstance(right, Variable) and right not in safe:
                    safe.add(right)
                    changed = True
                if right_safe and isinstance(left, Variable) and left not in safe:
                    safe.add(left)
                    changed = True
        return safe

    def is_safe(self) -> bool:
        """Whether every variable of the condition is safe."""
        return self.variables() <= self.safe_variables()

    def check_safe(self) -> None:
        unsafe = self.variables() - self.safe_variables()
        if unsafe:
            names = ", ".join(sorted(variable.name for variable in unsafe))
            raise UnsafeQueryError(f"unsafe variables in condition: {names}")

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Variable, Term]) -> "Condition":
        return Condition(tuple(literal.substitute(mapping) for literal in self.literals))

    def without_trivial_comparisons(self) -> "Condition":
        """Drop ground comparisons that are trivially true and reflexive
        equalities / non-strict self-comparisons (``t = t``, ``t <= t``)."""
        kept: list[Literal] = []
        for literal in self.literals:
            if isinstance(literal, Comparison):
                if literal.left == literal.right and literal.op in (
                    ComparisonOp.EQ,
                    ComparisonOp.LE,
                    ComparisonOp.GE,
                ):
                    continue
                if (
                    isinstance(literal.left, Constant)
                    and isinstance(literal.right, Constant)
                    and literal.evaluate_ground()
                ):
                    continue
            kept.append(literal)
        return Condition(tuple(kept))

    def __iter__(self):
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "true"
        return " , ".join(str(literal) for literal in self.literals)

    def __repr__(self) -> str:
        return f"Condition({str(self)!r})"


def make_condition(literals: Sequence[Literal]) -> Condition:
    """Build a condition and verify that it is safe."""
    condition = Condition(tuple(literals))
    condition.check_safe()
    return condition


# ----------------------------------------------------------------------
# Hash-consing
# ----------------------------------------------------------------------
#: The canonical condition per literal tuple.  Values are held weakly, so a
#: condition no query owns any more drops out by itself; clearing the table
#: only loses sharing (caches keyed by conditions still compare
#: structurally), never correctness.
_INTERNED: weakref.WeakValueDictionary[tuple[Literal, ...], Condition] = (
    weakref.WeakValueDictionary()
)

register_cache("datalog/conditions.py:_INTERNED", "clear_evaluation_caches", _INTERNED.clear)


def intern_condition(condition: Condition) -> Condition:
    """The canonical live condition equal to ``condition`` (``condition``
    itself when it is the first of its literals)."""
    return _INTERNED.setdefault(condition.literals, condition)
