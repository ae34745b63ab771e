"""Random query and database generators.

These generators drive the property-based tests and the benchmark harness.
They produce queries in the exact fragment the paper studies — disjunctive
queries with negated subgoals, constants and comparisons, carrying a single
aggregate term — with knobs for every structural dimension (number of
disjuncts, negation and comparison density, predicate arities, whether the
query must be quasilinear, which aggregation function to use).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..aggregates.functions import get_function
from ..datalog.atoms import Comparison, ComparisonOp, RelationalAtom
from ..datalog.conditions import Condition
from ..datalog.database import Database
from ..datalog.queries import AggregateTerm, Query
from ..datalog.terms import Constant, Term, Variable
from ..domains import Domain, NumericValue


@dataclass
class QueryProfile:
    """Structural knobs for the random query generator."""

    predicates: dict[str, int] = field(default_factory=lambda: {"p": 2, "r": 1, "s": 2})
    grouping_variables: int = 1
    aggregation_function: Optional[str] = "sum"
    max_disjuncts: int = 2
    max_positive_atoms: int = 3
    max_negated_atoms: int = 1
    max_comparisons: int = 2
    constants: Sequence[NumericValue] = (0, 1, 5)
    allow_negation: bool = True
    quasilinear_only: bool = False
    comparison_operators: Sequence[str] = ("<", "<=", ">", ">=", "!=")


class QueryGenerator:
    """Generate random queries according to a :class:`QueryProfile`."""

    def __init__(self, profile: Optional[QueryProfile] = None, seed: int = 2001):
        self.profile = profile or QueryProfile()
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, name: str = "q") -> Query:
        profile = self.profile
        grouping = [Variable(f"x{i}") for i in range(profile.grouping_variables)]
        aggregate = None
        aggregation_variables: list[Variable] = []
        if profile.aggregation_function is not None:
            function = get_function(profile.aggregation_function)
            arity = function.input_arity if function.input_arity is not None else 1
            aggregation_variables = [Variable(f"y{i}") for i in range(arity)]
            aggregate = AggregateTerm(function.name, tuple(aggregation_variables))
        disjunct_count = 1 if profile.quasilinear_only else self.rng.randint(1, profile.max_disjuncts)
        disjuncts = []
        for _ in range(disjunct_count):
            disjuncts.append(self._condition(grouping, aggregation_variables))
        return Query(name, tuple(grouping), tuple(disjuncts), aggregate)

    def _condition(self, grouping: list[Variable], aggregation: list[Variable]) -> Condition:
        profile = self.profile
        rng = self.rng
        required = list(grouping) + list(aggregation)
        extra_variables = [Variable(f"z{i}") for i in range(rng.randint(0, 2))]
        variable_pool = required + extra_variables

        literals: list = []
        used_predicates: set[str] = set()
        covered: set[Variable] = set()

        predicate_names = sorted(profile.predicates)
        atom_count = max(1, rng.randint(1, profile.max_positive_atoms))
        attempts = 0
        while (covered < set(required) or len([l for l in literals if isinstance(l, RelationalAtom)]) < atom_count) and attempts < 20:
            attempts += 1
            candidates = (
                [name for name in predicate_names if name not in used_predicates]
                if profile.quasilinear_only
                else predicate_names
            )
            if not candidates:
                break
            predicate = rng.choice(candidates)
            arity = profile.predicates[predicate]
            uncovered = [v for v in required if v not in covered]
            arguments: list[Term] = []
            for position in range(arity):
                if uncovered and (position < len(uncovered) or rng.random() < 0.6):
                    choice = uncovered.pop(0) if uncovered else rng.choice(variable_pool)
                elif rng.random() < 0.15 and profile.constants:
                    choice = Constant(rng.choice(list(profile.constants)))
                else:
                    choice = rng.choice(variable_pool)
                arguments.append(choice)
            atom = RelationalAtom(predicate, tuple(arguments))
            literals.append(atom)
            used_predicates.add(predicate)
            covered |= atom.variables()

        # Ensure every required variable is covered by widening the last atom.
        missing = [v for v in required if v not in covered]
        if missing:
            predicate = predicate_names[0]
            arity = profile.predicates[predicate]
            arguments = list(missing[:arity])
            while len(arguments) < arity:
                arguments.append(rng.choice(variable_pool))
            literals.append(RelationalAtom(predicate, tuple(arguments)))
            covered |= set(arguments) & set(variable_pool)

        bound_variables = sorted(covered, key=lambda v: v.name)
        if profile.allow_negation and not profile.quasilinear_only:
            for _ in range(rng.randint(0, profile.max_negated_atoms)):
                predicate = rng.choice(predicate_names)
                arity = profile.predicates[predicate]
                arguments = tuple(rng.choice(bound_variables) for _ in range(arity))
                literals.append(RelationalAtom(predicate, arguments, negated=True))
        elif profile.allow_negation and profile.quasilinear_only:
            unused = [name for name in predicate_names if name not in used_predicates]
            for _ in range(rng.randint(0, profile.max_negated_atoms)):
                if not unused:
                    break
                predicate = unused.pop()
                arity = profile.predicates[predicate]
                arguments = tuple(rng.choice(bound_variables) for _ in range(arity))
                literals.append(RelationalAtom(predicate, arguments, negated=True))

        for _ in range(rng.randint(0, profile.max_comparisons)):
            left = rng.choice(bound_variables)
            if rng.random() < 0.5 and profile.constants:
                right: Term = Constant(rng.choice(list(profile.constants)))
            else:
                right = rng.choice(bound_variables)
            operator = ComparisonOp.from_symbol(rng.choice(list(profile.comparison_operators)))
            if left != right or operator not in (ComparisonOp.LT, ComparisonOp.GT, ComparisonOp.NE):
                literals.append(Comparison(left, operator, right))

        return Condition(tuple(literals))

    def query_pair(self, name: str = "q") -> tuple[Query, Query]:
        """A pair of queries over the same head, useful for equivalence
        workloads.  With probability one half the second query is a variable
        renaming of the first (hence equivalent); otherwise it is generated
        independently."""
        first = self.query(name)
        if self.rng.random() < 0.5:
            renaming = {
                variable: Variable(variable.name + "_r")
                for variable in sorted(first.variables(), key=lambda v: v.name)
                if variable not in first.grouping_variables()
                and variable not in first.aggregation_variables()
            }
            return first, first.rename_variables(renaming)
        return first, self.query(name)

    # ------------------------------------------------------------------
    # Databases
    # ------------------------------------------------------------------
    def database(
        self,
        domain: Domain = Domain.RATIONALS,
        max_facts: int = 12,
        values: Optional[Sequence[NumericValue]] = None,
    ) -> Database:
        profile = self.profile
        rng = self.rng
        pool: list[NumericValue] = list(values) if values is not None else list(profile.constants)
        pool.extend(range(-2, 4))
        if domain.is_dense:
            pool.append(Fraction(1, 2))
        facts = []
        predicate_names = sorted(profile.predicates)
        for _ in range(rng.randint(0, max_facts)):
            predicate = rng.choice(predicate_names)
            arity = profile.predicates[predicate]
            row = tuple(rng.choice(pool) for _ in range(arity))
            facts.append((predicate, row))
        return Database(facts)


def linear_chain_query(
    length: int, function: str = "sum", name: str = "q", with_comparisons: bool = True
) -> Query:
    """A linear query joining a chain of ``length`` distinct binary predicates:
    ``q(x0, α(y)) ← e0(x0, x1), e1(x1, x2), …, e_{n-1}(x_{n-1}, y)``.

    Used by the quasilinear tests (Corollary 7.5): the query is linear, so
    equivalence with a renamed copy must be decided in polynomial time
    however large ``length`` grows.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    variables = [Variable(f"x{i}") for i in range(length)] + [Variable("y")]
    literals: list = []
    for index in range(length):
        literals.append(RelationalAtom(f"e{index}", (variables[index], variables[index + 1])))
    if with_comparisons:
        literals.append(Comparison(variables[-1], ComparisonOp.GE, Constant(0)))
    aggregate = AggregateTerm(function, (Variable("y"),)) if function not in ("count", "parity") else AggregateTerm(function, ())
    return Query(name, (variables[0],), (Condition(tuple(literals)),), aggregate)


def random_warehouse_database(
    seed: int,
    max_stores: int = 4,
    max_products: int = 5,
    max_sales: int = 24,
) -> Database:
    """A random instance over the warehouse schema, for differential tests of
    the view-rewriting subsystem.

    Unlike :func:`repro.workloads.scenarios.build_warehouse` this generator
    aims for adversarial shape rather than realism: relations may be empty,
    returns may reference sales that never happened, amounts repeat (so
    duplicate-sensitivity bugs surface), and negative amounts appear (so
    ``sum`` cannot be confused with ``count`` scaling).
    """
    rng = random.Random(seed)
    facts: list[tuple[str, tuple]] = []
    stores = rng.randint(0, max_stores)
    products = rng.randint(1, max_products)
    for _ in range(rng.randint(0, max_sales)):
        facts.append(
            (
                "sales",
                (rng.randint(1, max(1, stores)), rng.randint(1, products), rng.choice(
                    (-3, -1, 0, 1, 1, 2, 5, 10)
                )),
            )
        )
    for _ in range(rng.randint(0, 6)):
        facts.append(("returns", (rng.randint(1, max(1, stores)), rng.randint(1, products))))
    for product in range(1, products + 1):
        if rng.random() < 0.25:
            facts.append(("discontinued", (product,)))
    for store in range(1, max(1, stores) + 1):
        if rng.random() < 0.5:
            facts.append(("premium_store", (store,)))
    return Database(facts)


def renamed_copy(query: Query, suffix: str = "_c") -> Query:
    """A copy of the query with every non-head variable renamed — equivalent to
    the original by construction."""
    head_variables = query.grouping_variables() | set(query.aggregation_variables())
    renaming = {
        variable: Variable(variable.name + suffix)
        for variable in sorted(query.variables(), key=lambda v: v.name)
        if variable not in head_variables
    }
    return query.rename_variables(renaming)
