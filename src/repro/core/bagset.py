"""Bag-set and set semantics for non-aggregate queries (Section 8).

Two non-aggregate queries are equivalent under *bag-set semantics* iff the
``count``-queries obtained by adding a ``count`` aggregate term to their heads
are equivalent.  Since ``count`` is a group aggregation function, equivalence
of ``count``-queries reduces to local equivalence (Theorem 6.5), so bag-set
equivalence of non-aggregate disjunctive queries with negation is decidable —
one of the corollaries the paper highlights.  That reduction is the only
bag-set route: the symbolic search itself always compares answer sets.

For *set* semantics the reduction to small databases follows the Levy–Sagiv
argument recalled at the start of Section 5: an answer of a non-aggregate
query depends on a single assignment, so disagreement on any database implies
disagreement on a database with at most τ(q, q') constants.
"""

from __future__ import annotations

from ..datalog.queries import AggregateTerm, Query
from ..domains import Domain
from ..errors import MalformedQueryError
from .bounded import EquivalenceReport, local_equivalence


def as_count_query(query: Query, name_suffix: str = "_count") -> Query:
    """The ``count``-query q(x̄, count) associated with a non-aggregate query."""
    if query.is_aggregate:
        raise MalformedQueryError("as_count_query expects a non-aggregate query")
    return Query(
        query.name + name_suffix,
        query.head_terms,
        query.disjuncts,
        AggregateTerm("count", ()),
    )


def bag_set_equivalent(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    **kwargs,
) -> EquivalenceReport:
    """Decide equivalence of two non-aggregate queries under bag-set semantics:
    local equivalence of their ``count``-queries (Section 8).  A
    NOT_EQUIVALENT report's witness database gives the two original queries
    different answer multiplicities."""
    if first.is_aggregate or second.is_aggregate:
        raise MalformedQueryError("bag-set equivalence is defined for non-aggregate queries")
    return local_equivalence(
        as_count_query(first), as_count_query(second), domain=domain, **kwargs
    )


def set_equivalent(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    **kwargs,
) -> EquivalenceReport:
    """Decide equivalence of two non-aggregate queries under set semantics by
    checking agreement over all databases with at most τ(q, q') constants."""
    if first.is_aggregate or second.is_aggregate:
        raise MalformedQueryError("set_equivalent is defined for non-aggregate queries")
    return local_equivalence(first, second, domain=domain, **kwargs)
