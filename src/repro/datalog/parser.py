"""A parser for the Datalog-style query syntax used throughout the library.

The concrete syntax mirrors the paper's notation as closely as plain text
allows::

    q(x, sum(y)) :- p(x, y), not r(x, y), x < 5 ; p(x, y), y >= 0

* The head is ``name(term, ..., term)`` with at most one *aggregate term*
  (an application of a known aggregation-function name, e.g. ``sum(y)``,
  ``count()``, ``top2(y)``).  The bare names ``count`` and ``parity`` are also
  accepted for the nullary functions.
* Disjuncts in the body are separated by ``;`` (or ``|``).
* Literals in a disjunct are separated by ``,`` (or ``&``).
* Negated atoms are written ``not p(...)``, ``!p(...)`` or ``~p(...)``.
* Comparisons use ``<``, ``<=``, ``>``, ``>=``, ``!=``/``<>`` and ``=``.
* Variables are identifiers; numeric literals (including fractions such as
  ``3/4`` and decimals) are constants.

Facts for databases can be parsed with :func:`parse_database`::

    p(1, 2). p(2, 3). r(1, 2).
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Optional

from ..errors import QuerySyntaxError
from .atoms import Comparison, ComparisonOp, GroundAtom, RelationalAtom
from .conditions import Condition
from .database import Database
from .queries import AggregateTerm, Query
from .terms import Constant, Term, Variable, _parse_numeric

#: Names recognized as aggregation functions in a query head: every name the
#: aggregation registry accepts.  :mod:`repro.aggregates.functions` sets it
#: once, when it builds the registry, because aggregates import datalog and
#: not the reverse; ``import repro`` loads the registry before any parse.
AGGREGATE_NAMES: frozenset[str] = frozenset()

_TOKEN_REGEX = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<rule>:-|<-)
  | (?P<op><=|>=|=<|=>|!=|<>|==|<|>|=)
  | (?P<number>[+-]?\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9']*)
  | (?P<punct>[(),;|&.!~])
    """,
    re.VERBOSE,
)

_NEGATION_WORDS = {"not", "neg"}


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    match_at = _TOKEN_REGEX.match
    position = 0
    end = len(text)
    while position < end:
        match = match_at(text, position)
        if match is None:
            raise QuerySyntaxError("unexpected character", text, position)
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of input", self.text, len(self.text))
        self.index += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise QuerySyntaxError(f"expected {text!r}, found {token.text!r}", self.text, token.position)
        return token

    def accept(self, text: str) -> bool:
        token = self.peek()
        if token is not None and token.text == text:
            self.index += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)


def parse_query(text: str, name: Optional[str] = None) -> Query:
    """Parse a complete query definition.

    ``name`` optionally overrides the head predicate name found in the text.
    """
    stream = _TokenStream(text)
    head_name, head_terms, aggregate = _parse_head(stream)
    stream.next() if stream.peek() and stream.peek().kind == "rule" else stream.expect(":-")
    disjuncts = _parse_body(stream)
    if not stream.at_end():
        token = stream.peek()
        raise QuerySyntaxError("trailing input after query body", stream.text, token.position)
    return Query(name or head_name, head_terms, disjuncts, aggregate)


def _parse_head(stream: _TokenStream) -> tuple[str, tuple[Term, ...], Optional[AggregateTerm]]:
    name_token = stream.next()
    if name_token.kind != "name":
        raise QuerySyntaxError("query head must start with a predicate name", stream.text, name_token.position)
    stream.expect("(")
    head_terms: list[Term] = []
    aggregate: Optional[AggregateTerm] = None
    if not stream.accept(")"):
        while True:
            token = stream.peek()
            if token is None:
                raise QuerySyntaxError("unterminated query head", stream.text, len(stream.text))
            if token.kind == "name" and token.text.lower() in AGGREGATE_NAMES:
                candidate = _try_parse_aggregate(stream)
                if candidate is not None:
                    if aggregate is not None:
                        raise QuerySyntaxError(
                            "a query may contain only one aggregate term", stream.text, token.position
                        )
                    aggregate = candidate
                else:
                    head_terms.append(_parse_term(stream))
            else:
                head_terms.append(_parse_term(stream))
            if stream.accept(")"):
                break
            stream.expect(",")
    return name_token.text, tuple(head_terms), aggregate


def _try_parse_aggregate(stream: _TokenStream) -> Optional[AggregateTerm]:
    """Parse an aggregate term at the current position, if one is present."""
    start = stream.index
    name_token = stream.next()
    function = name_token.text.lower()
    next_token = stream.peek()
    if next_token is not None and next_token.text == "(":
        stream.next()
        arguments: list[Variable] = []
        if not stream.accept(")"):
            while True:
                term = _parse_term(stream)
                if not isinstance(term, Variable):
                    raise QuerySyntaxError(
                        "aggregation arguments must be variables", stream.text, name_token.position
                    )
                arguments.append(term)
                if stream.accept(")"):
                    break
                stream.expect(",")
        return AggregateTerm(function, tuple(arguments))
    if function in ("count", "parity"):
        return AggregateTerm(function, ())
    # Not an application and not a nullary aggregate: treat as an ordinary term.
    stream.index = start
    return None


def _parse_body(stream: _TokenStream) -> tuple[Condition, ...]:
    disjuncts = [_parse_condition(stream)]
    while True:
        token = stream.peek()
        if token is not None and token.text in (";", "|"):
            stream.next()
            disjuncts.append(_parse_condition(stream))
        else:
            break
    return tuple(disjuncts)


def _parse_condition(stream: _TokenStream) -> Condition:
    literals = [_parse_literal(stream)]
    while True:
        token = stream.peek()
        if token is not None and token.text in (",", "&"):
            stream.next()
            literals.append(_parse_literal(stream))
        else:
            break
    return Condition(tuple(literals))


def _parse_literal(stream: _TokenStream):
    token = stream.peek()
    if token is None:
        raise QuerySyntaxError("expected a literal", stream.text, len(stream.text))
    negated = False
    if token.text in ("!", "~"):
        stream.next()
        negated = True
    elif token.kind == "name" and token.text.lower() in _NEGATION_WORDS:
        stream.next()
        negated = True
    token = stream.peek()
    if token is None:
        raise QuerySyntaxError("dangling negation", stream.text, len(stream.text))
    if token.kind == "name":
        following = stream.tokens[stream.index + 1] if stream.index + 1 < len(stream.tokens) else None
        if following is not None and following.text == "(":
            return _parse_relational_atom(stream, negated)
    if negated:
        raise QuerySyntaxError("negation may only be applied to relational atoms", stream.text, token.position)
    return _parse_comparison(stream)


def _parse_relational_atom(stream: _TokenStream, negated: bool) -> RelationalAtom:
    name_token = stream.next()
    stream.expect("(")
    arguments: list[Term] = []
    if not stream.accept(")"):
        while True:
            arguments.append(_parse_term(stream))
            if stream.accept(")"):
                break
            stream.expect(",")
    return RelationalAtom(name_token.text, tuple(arguments), negated)


def _parse_comparison(stream: _TokenStream) -> Comparison:
    left = _parse_term(stream)
    op_token = stream.next()
    if op_token.kind != "op":
        raise QuerySyntaxError("expected a comparison operator", stream.text, op_token.position)
    right = _parse_term(stream)
    return Comparison(left, ComparisonOp.from_symbol(op_token.text), right)


def _parse_term(stream: _TokenStream) -> Term:
    token = stream.next()
    if token.kind == "number":
        return Constant(_parse_numeric(token.text))
    if token.kind == "name":
        return Variable(token.text)
    raise QuerySyntaxError(f"expected a term, found {token.text!r}", stream.text, token.position)


def parse_database(text: str) -> Database:
    """Parse a whitespace/period separated list of ground facts."""
    stream = _TokenStream(text)
    facts: list[GroundAtom] = []
    while not stream.at_end():
        if stream.accept("."):
            continue
        atom = _parse_relational_atom(stream, negated=False)
        values = []
        for argument in atom.arguments:
            if not isinstance(argument, Constant):
                raise QuerySyntaxError(
                    f"database facts must be ground, found variable {argument}", stream.text, 0
                )
            values.append(argument.value)
        facts.append(GroundAtom(atom.predicate, tuple(values)))
    return Database(facts)
