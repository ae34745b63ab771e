"""Tests for the Datalog parser, the query builder and databases."""

from fractions import Fraction

import pytest

from repro.aggregates import registered_function_names
from repro.datalog import (
    Comparison,
    ComparisonOp,
    Constant,
    Database,
    QueryBuilder,
    Variable,
    parse_database,
    parse_query,
)
from repro.domains import Domain
from repro.errors import DomainError, MalformedQueryError, QuerySyntaxError


class TestParser:
    def test_simple_aggregate_query(self):
        query = parse_query("q(x, sum(y)) :- p(x, y)")
        assert query.name == "q"
        assert query.head_terms == (Variable("x"),)
        assert query.aggregate_function == "sum"

    def test_nullary_count_with_and_without_parens(self):
        assert parse_query("q(x, count()) :- p(x, y)").aggregate_function == "count"
        assert parse_query("q(x, count) :- p(x, y)").aggregate_function == "count"
        assert parse_query("q(x, parity) :- p(x, y)").aggregate_function == "parity"

    @pytest.mark.parametrize("name", registered_function_names())
    def test_every_registered_function_parses_in_a_head(self, name):
        query = parse_query(f"q(s, {name}(a)) :- sales(s, p, a)")
        assert query.aggregate_function == name

    def test_negation_forms(self):
        for negation in ("not r(x)", "!r(x)", "~r(x)"):
            query = parse_query(f"q(x, count()) :- p(x), {negation}")
            assert len(query.disjuncts[0].negated_atoms) == 1

    def test_disjunction(self):
        query = parse_query("q(x) :- p(x) ; r(x), x > 0 | s(x, x)")
        assert len(query.disjuncts) == 3

    def test_comparisons_and_constants(self):
        query = parse_query("q(x, max(y)) :- p(x, y), y >= 3, x != 1/2")
        comparisons = query.disjuncts[0].comparisons
        assert Comparison(Variable("y"), ComparisonOp.GE, Constant(3)) in comparisons
        assert Comparison(Variable("x"), ComparisonOp.NE, Constant(Fraction(1, 2))) in comparisons

    def test_negative_and_decimal_constants(self):
        query = parse_query("q(x) :- p(x), x > -2, x < 2.5")
        constants = {c.value for c in query.constants()}
        assert -2 in constants and Fraction(5, 2) in constants

    def test_alternate_rule_arrow(self):
        assert parse_query("q(x) <- p(x)").name == "q"

    def test_non_aggregate_query(self):
        query = parse_query("q(x, y) :- p(x, y)")
        assert not query.is_aggregate
        assert len(query.head_terms) == 2

    def test_top2_query(self):
        assert parse_query("q(top2(y)) :- p(y)").aggregate_function == "top2"

    def test_two_aggregates_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("q(sum(y), max(y)) :- p(y)")

    def test_unsafe_query_rejected(self):
        with pytest.raises(Exception):
            parse_query("q(x) :- p(y)")

    def test_syntax_error_reports_position(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("q(x) :- p(x) @ r(x)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("q(x) :- p(x) extra(y)")

    def test_negated_comparison_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("q(x) :- p(x), not x > 1")

    def test_parse_database(self):
        database = parse_database("p(1, 2). p(2, 3). r(1).")
        assert len(database) == 3
        assert database.contains("p", (1, 2))
        assert database.contains("r", (1,))

    def test_parse_database_requires_ground_facts(self):
        with pytest.raises(QuerySyntaxError):
            parse_database("p(x).")


class TestBuilder:
    def test_builder_matches_parser(self):
        built = (
            QueryBuilder("q", head=["x"], aggregate=("sum", ["y"]))
            .atom("p", "x", "y")
            .negated("r", "x")
            .compare("y", ">", 0)
            .build()
        )
        parsed = parse_query("q(x, sum(y)) :- p(x, y), not r(x), y > 0")
        assert built.head_terms == parsed.head_terms
        assert built.aggregate == parsed.aggregate
        assert set(built.disjuncts[0].literals) == set(parsed.disjuncts[0].literals)

    def test_builder_disjuncts(self):
        query = (
            QueryBuilder("q", head=["x"])
            .atom("p", "x")
            .disjunct()
            .atom("r", "x")
            .build()
        )
        assert len(query.disjuncts) == 2

    def test_builder_empty_disjunct_rejected(self):
        with pytest.raises(MalformedQueryError):
            QueryBuilder("q", head=["x"]).disjunct()

    def test_builder_aggregate_arguments_must_be_variables(self):
        with pytest.raises(MalformedQueryError):
            QueryBuilder("q", head=["x"], aggregate=("sum", [1]))

    def test_builder_equal_shortcut(self):
        query = QueryBuilder("q", head=["x"]).atom("p", "x", "y").equal("y", 3).build()
        assert Comparison(Variable("y"), ComparisonOp.EQ, Constant(3)) in query.disjuncts[0].comparisons


class TestDatabase:
    def test_carrier(self):
        database = parse_database("p(1, 2). r(3).")
        assert database.carrier() == frozenset({1, 2, 3})
        assert database.carrier_size == 3

    def test_relation_lookup(self):
        database = parse_database("p(1, 2). p(3, 4).")
        assert database.relation("p") == frozenset({(1, 2), (3, 4)})
        assert database.relation("missing") == frozenset()

    def test_set_algebra(self):
        first = parse_database("p(1). p(2).")
        second = parse_database("p(2). p(3).")
        assert len(first.union(second)) == 3
        assert first.intersection(second) == parse_database("p(2).")
        assert first.difference(second) == parse_database("p(1).")
        assert parse_database("p(1).").issubset(first)

    def test_equality_and_hash(self):
        assert parse_database("p(1). p(2).") == parse_database("p(2). p(1).")
        assert hash(parse_database("p(1).")) == hash(parse_database("p(1)."))

    def test_from_relations(self):
        database = Database.from_relations({"p": [(1, 2), (3, 4)], "r": [(5,)]})
        assert len(database) == 3
        assert database.to_relations()["p"] == {(1, 2), (3, 4)}

    def test_add_facts_and_restrict(self):
        database = parse_database("p(1). r(2).")
        extended = database.add_facts([("p", (9,))])
        assert extended.contains("p", (9,))
        assert extended.restrict_to_predicates(["p"]).predicates() == frozenset({"p"})

    def test_set_algebra_matches_the_normalizing_constructor(self):
        """Set algebra builds its results from already normalized atoms;
        they must equal, accessor for accessor, what the public
        constructor builds from the same facts."""
        first = Database([("p", (1, Fraction(1, 2))), ("r", (2.0,)), ("s", ())])
        second = Database([("p", (1, 0.5)), ("r", (3,))])
        new_facts = [("r", (2.5,)), ("p", (4.0, 1)), ("q", (Fraction(6, 2),)), ("r", (2,))]
        cases = {
            "union": (first.union(second), first.facts | second.facts),
            "intersection": (first.intersection(second), first.facts & second.facts),
            "difference": (first.difference(second), first.facts - second.facts),
            "add_facts": (first.add_facts(new_facts), list(first.facts) + new_facts),
            "restrict": (
                first.restrict_to_predicates(["p", "s"]),
                [fact for fact in first.facts if fact.predicate in {"p", "s"}],
            ),
        }
        for name, (result, facts) in cases.items():
            expected = Database(facts)
            assert result == expected, name
            assert hash(result) == hash(expected), name
            assert result.carrier() == expected.carrier(), name
            assert result.sorted_carrier() == expected.sorted_carrier(), name
            assert result.to_relations() == expected.to_relations(), name
            for predicate in expected.predicates() | {"missing"}:
                assert result.relation(predicate) == expected.relation(predicate), name
        extended = first.add_facts(new_facts)
        # Float and int inputs normalize to exact numbers, as in __init__.
        assert extended.contains("r", (Fraction(5, 2),))
        assert extended.contains("p", (4, 1))
        assert extended.contains("q", (3,))
        assert all(
            type(value) in (int, Fraction) for fact in extended.facts for value in fact.values
        )

    def test_add_facts_indexes_only_the_new_facts(self):
        """add_facts reuses this database's relations and carrier and unions
        in only the new rows; the result must equal the constructor's on
        facts, every relation, carrier, sorted carrier and hash."""
        base = Database([("p", (1, 2)), ("p", (3, 4)), ("r", (Fraction(1, 2),))])
        base.sorted_carrier()
        cases = {
            "already present": [("p", (1, 2)), ("r", (0.5,))],
            "new predicate": [("q", (2,)), ("q", (7, 8))],
            "existing predicate": [("p", (3, 4)), ("p", (5, 1)), ("r", (2,))],
        }
        for name, new_facts in cases.items():
            result = base.add_facts(new_facts)
            expected = Database(list(base.facts) + new_facts)
            assert result.facts == expected.facts, name
            assert hash(result) == hash(expected), name
            assert result.predicates() == expected.predicates(), name
            for predicate in expected.predicates() | {"missing"}:
                assert result.relation(predicate) == expected.relation(predicate), name
            assert result.carrier() == expected.carrier(), name
            assert result.sorted_carrier() == expected.sorted_carrier(), name
            for predicate in base.predicates():
                if all(fact[0] != predicate for fact in new_facts):
                    # Relations the new facts do not touch are shared.
                    assert result.relation(predicate) is base.relation(predicate), name
        assert base.add_facts(cases["already present"]) == base

    def test_relation_arities_equal_a_scan_of_the_rows(self):
        """Every way to build a database records, per predicate, the set of
        its row lengths; the record must equal a scan of the rows, also for
        a predicate stored at two arities and a nullary fact."""
        first = Database([("p", (1, 2)), ("p", (3,)), ("r", (2.0,)), ("s", ())])
        second = Database.from_relations({"p": [(1, 2), (4, 5, 6)], "r": [(3,)]})
        cases = {
            "init": first,
            "from_relations": second,
            "union": first.union(second),
            "intersection": first.intersection(second),
            "difference": first.difference(second),
            "restrict": first.restrict_to_predicates(["p"]),
            "add_facts new arity": first.add_facts([("p", (7, 8, 9)), ("q", (1,))]),
            "add_facts same arity": first.add_facts([("p", (7, 8)), ("r", (4,))]),
            "add_facts nothing new": first.add_facts([("p", (1, 2))]),
            "empty": Database(),
        }
        for name, database in cases.items():
            scanned = {
                predicate: frozenset(map(len, rows))
                for predicate, rows in database.to_relations().items()
            }
            assert dict(database.relation_arities) == scanned, name
        assert cases["union"].relation_arities["p"] == {1, 2, 3}

    def test_duplicate_facts_collapse(self):
        assert len(Database([("p", (1,)), ("p", (1,))])) == 1

    def test_check_domain(self):
        database = Database([("p", (Fraction(1, 2),))])
        database.check_domain(Domain.RATIONALS)
        with pytest.raises(DomainError):
            database.check_domain(Domain.INTEGERS)

    def test_values_normalized(self):
        database = Database([("p", (2.0,))])
        assert database.contains("p", (2,))
