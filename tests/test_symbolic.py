"""Tests for symbolic evaluation over S_L databases (Theorem 4.8 machinery)."""

import itertools
from collections import Counter

import pytest

from repro.core.bounded import build_base, canonical_base_order
from repro.datalog import Constant, RelationalAtom, Variable, parse_query
from repro.domains import Domain
from repro.engine import (
    SymbolicAssignment,
    SymbolicDatabase,
    naive_satisfying_assignments,
    symbolic_answer_multiset,
    symbolic_groups,
    symbolic_satisfying_assignments,
)
from repro.engine.symbolic import symbolic_group_index
from repro.errors import EvaluationError
from repro.orderings import CompleteOrdering
from repro.orderings.complete_orderings import enumerate_complete_orderings

U0, U1, U2 = Variable("_u0"), Variable("_u1"), Variable("_u2")


def make_ordering(blocks, domain=Domain.RATIONALS):
    return CompleteOrdering(tuple(frozenset(b) for b in blocks), domain)


def sdb(atoms, blocks, domain=Domain.RATIONALS):
    return SymbolicDatabase(frozenset(atoms), make_ordering(blocks, domain))


class TestSymbolicDatabase:
    def test_rejects_negated_atoms(self):
        with pytest.raises(EvaluationError):
            sdb([RelationalAtom("p", (U0,), negated=True)], [{U0}])

    def test_canonical_relations_collapse_equal_terms(self):
        database = sdb(
            [RelationalAtom("p", (U0,)), RelationalAtom("p", (U1,))],
            [{U0, U1}],
        )
        assert len(database.relation("p")) == 1
        assert database.carrier_terms == frozenset({U0})

    def test_constants_are_their_own_representatives(self):
        database = sdb([RelationalAtom("p", (Constant(3), U0))], [{Constant(3)}, {U0}])
        assert database.contains("p", (Constant(3), U0))

    def test_instantiate_produces_concrete_database(self):
        database = sdb(
            [RelationalAtom("p", (U0, U1)), RelationalAtom("p", (U1, U1))],
            [{U0}, {U1}],
        )
        concrete = database.instantiate()
        assert len(concrete) == 2
        assert concrete.carrier_size == 2

    def test_instantiate_collapses_equal_blocks(self):
        database = sdb(
            [RelationalAtom("p", (U0,)), RelationalAtom("p", (U1,))],
            [{U0, U1}],
        )
        assert len(database.instantiate()) == 1

    def test_relation_arities_equal_a_scan_of_the_rows(self):
        """The pass that groups the canonical relations records each
        predicate's row lengths, read before or after the relations."""
        atoms = [
            RelationalAtom("p", (U0, U1)),
            RelationalAtom("p", (U2,)),
            RelationalAtom("r", (U1,)),
            RelationalAtom("s", ()),
        ]
        blocks = [{U0}, {U1, U2}]
        for read_relations_first in (True, False):
            database = sdb(atoms, blocks)
            if read_relations_first:
                database.canonical_relations
            assert database.relation_arities == {
                predicate: frozenset(map(len, rows))
                for predicate, rows in database.canonical_relations.items()
            }
            assert database.relation_arities["p"] == {1, 2}
        assert sdb([], [{U0}]).relation_arities == {}


class TestSymbolicEvaluation:
    def test_positive_matching(self):
        query = parse_query("q(x, count()) :- p(x, y)")
        database = sdb(
            [RelationalAtom("p", (U0, U1)), RelationalAtom("p", (U0, U0))],
            [{U0}, {U1}],
        )
        assignments = symbolic_satisfying_assignments(query, database)
        assert len(assignments) == 2

    def test_negation_respects_ordering_equalities(self):
        query = parse_query("q(x, count()) :- p(x), not r(x)")
        # r(u1) is present and u0 = u1, so the negated atom blocks u0.
        database = sdb(
            [RelationalAtom("p", (U0,)), RelationalAtom("r", (U1,))],
            [{U0, U1}],
        )
        assert symbolic_satisfying_assignments(query, database) == []
        # With distinct blocks the assignment survives.
        database2 = sdb(
            [RelationalAtom("p", (U0,)), RelationalAtom("r", (U1,))],
            [{U0}, {U1}],
        )
        assert len(symbolic_satisfying_assignments(query, database2)) == 1

    def test_comparisons_evaluated_via_ordering(self):
        query = parse_query("q(count()) :- p(y), y > 0")
        zero = Constant(0)
        above = sdb([RelationalAtom("p", (U0,))], [{zero}, {U0}])
        below = sdb([RelationalAtom("p", (U0,))], [{U0}, {zero}])
        assert len(symbolic_satisfying_assignments(query, above)) == 1
        assert symbolic_satisfying_assignments(query, below) == []

    def test_query_constant_must_match_database_term(self):
        query = parse_query("q(count()) :- p(3, y)")
        three = Constant(3)
        database = sdb([RelationalAtom("p", (three, U0))], [{three}, {U0}])
        assert len(symbolic_satisfying_assignments(query, database)) == 1
        database2 = sdb([RelationalAtom("p", (U1, U0))], [{three}, {U0}, {U1}])
        assert symbolic_satisfying_assignments(query, database2) == []

    def test_query_constant_equated_with_variable_block(self):
        query = parse_query("q(count()) :- p(3, y)")
        three = Constant(3)
        database = sdb([RelationalAtom("p", (U1, U0))], [{three, U1}, {U0}])
        assert len(symbolic_satisfying_assignments(query, database)) == 1

    def test_groups_collect_term_bags(self):
        query = parse_query("q(x, sum(y)) :- p(x, y)")
        database = sdb(
            [
                RelationalAtom("p", (U0, U1)),
                RelationalAtom("p", (U0, U2)),
                RelationalAtom("p", (U1, U2)),
            ],
            [{U0}, {U1}, {U2}],
        )
        groups = symbolic_groups(query, database)
        assert set(groups) == {(U0,), (U1,)}
        assert sorted(groups[(U0,)]) == sorted([(U1,), (U2,)])

    def test_answer_multiset_counts_disjuncts(self):
        query = parse_query("q(x) :- p(x) ; p(x)")
        database = sdb([RelationalAtom("p", (U0,))], [{U0}])
        assert symbolic_answer_multiset(query, database) == {(U0,): 2}

    def test_disjunctive_symbolic_groups(self):
        query = parse_query("q(x, count()) :- p(x, y) ; r(x, y)")
        database = sdb(
            [RelationalAtom("p", (U0, U1)), RelationalAtom("r", (U0, U1))],
            [{U0}, {U1}],
        )
        groups = symbolic_groups(query, database)
        assert len(groups[(U0,)]) == 2

    def test_symbolic_agrees_with_concrete_on_instantiation(self):
        """Γ(q, S_L) against its definition: naive Γ(q, δ(S)) with every value
        mapped back to the representative of its block, over every complete
        ordering L of T (two fresh terms and the constant 0 beside the
        queries' own) and the subsets S of BASE with at most two atoms or
        all of them."""
        evaluations = 0
        for first, second in ORACLE_PAIRS:
            first, second = parse_query(first), parse_query(second)
            terms, base, _fresh = build_base(first, second, 2, (Constant(0),))
            subsets = [
                frozenset(subset)
                for size in range(3)
                for subset in itertools.combinations(canonical_base_order(base), size)
            ] + [frozenset(base)]
            for ordering in enumerate_complete_orderings(terms, Domain.RATIONALS):
                for atoms in subsets:
                    database = SymbolicDatabase(atoms, ordering)
                    for query in (first, second):
                        _assert_matches_definition(query, database)
                        evaluations += 1
        assert evaluations > 10000


#: Query pairs the symbolic oracle runs over: negation, ``<``, ``>``, ``!=``,
#: constant equalities, and a non-aggregate disjunction.
ORACLE_PAIRS = (
    ("q(x, count()) :- p(x, y), not r(y), y > 0", "q(x, count()) :- p(x, y), not r(y), 0 < y"),
    ("q(x, sum(y)) :- p(x, y), x < y", "q(x, sum(y)) :- p(x, y), not r(x), y > x"),
    ("q(x, max(y)) :- p(x, y), x != y", "q(x, max(y)) :- p(x, y), p(y, x)"),
    ("q(x, count()) :- p(x, y), y = 1", "q(x, count()) :- p(x, 1), not r(x)"),
    ("q(x) :- p(x, y), not p(y, x)", "q(x) :- p(x, y), x != y ; r(x), x > 0"),
)


def _assert_matches_definition(query, database):
    """Compare the engine's Γ(q, S_L), group index and answer multiset with
    the ones derived from naive Γ(q, δ(S)).  Distinct blocks get distinct values
    under δ, so mapping a value back to its block is well defined."""
    values = database.ordering.instantiate()
    block_of = {value: database.canonical(term) for term, value in values.items()}
    expected = Counter()
    for assignment in naive_satisfying_assignments(query, database.instantiate()):
        mapping = tuple((variable, block_of[value]) for variable, value in assignment.mapping)
        expected[SymbolicAssignment(mapping, assignment.disjunct_index)] += 1
    assert Counter(symbolic_satisfying_assignments(query, database)) == expected, (
        query,
        database,
    )

    if query.is_aggregate:
        groups: dict = {}
        for assignment in expected.elements():
            key = assignment.terms_of(query.head_terms, database)
            bag_element = assignment.terms_of(query.aggregation_variables(), database)
            groups.setdefault(key, Counter())[bag_element] += 1
        assert symbolic_group_index(query, database) == groups, (query, database)
    else:
        answers = Counter(
            assignment.terms_of(query.head_terms, database) for assignment in expected.elements()
        )
        assert symbolic_answer_multiset(query, database) == dict(answers), (query, database)
        assert symbolic_group_index(query, database) == {
            answer: Counter({(): count}) for answer, count in answers.items()
        }, (query, database)
