"""Canonical, rename-insensitive serialization of queries.

Two queries are *isomorphic* when one turns into the other by renaming its
variables, reordering or deduplicating the literals of a disjunct,
reordering its disjuncts, or flipping a comparison (``x > y`` is ``y < x``).
Isomorphic queries have the same satisfying assignments up to the renaming,
so they have the same group index over every symbolic database ``S_L`` and
are equivalent for every aggregation function (Section 7 of the paper).

This module maps a query to a string that is equal exactly for isomorphic
queries (up to the tie budget below):

* **alpha-renaming** — variables are renamed into a deterministic canonical
  order found by color refinement over the query's term/literal incidence
  structure, with a bounded minimal-serialization search breaking the
  remaining symmetric ties;
* **literal/disjunct reordering** — literals are serialized sorted within
  each disjunct (and deduplicated: a conjunction is a set of literals) and
  disjuncts are serialized sorted (*not* deduplicated — a duplicated
  disjunct changes multiplicities under bag semantics);
* **comparison orientation** — ``x > y`` flips to ``y < x``; symmetric
  operators (``=``, ``!=``) order their operands.

The serialization is complete: it spells out every literal of every
disjunct, the head and the aggregate under one variable naming, so equal
strings always mean isomorphic queries.  When the tie search exceeds its
budget the naming falls back to variable-name order; the string is then
still complete, only a renamed copy may serialize differently.

:attr:`repro.datalog.queries.Query.evaluation_key` is :func:`evaluation_key`
cached on the query; :mod:`repro.store.canon` applies the same naming and
serialization to reduced queries.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Optional

from ..obs import REGISTRY as _OBS
from .atoms import Comparison, ComparisonOp, RelationalAtom
from .conditions import Condition
from .terms import Constant, Term, Variable

if TYPE_CHECKING:
    from .queries import Query

#: Permutation budget for the symmetric-tie search: the product of the tied
#: variable groups' factorials must stay under this before the search runs.
#: Queries in this system carry a handful of variables, so the budget is
#: effectively never hit; beyond it the order falls back to variable names
#: (deterministic, so at worst a renamed duplicate serializes differently).
_PERMUTATION_BUDGET = 720


def evaluation_key(query: "Query") -> str:
    """The canonical serialization of ``query`` without its name: equal for
    isomorphic queries, and equal only for them.  No reduction runs, so the
    key preserves the group index itself, not only equivalence."""
    naming, bailed_out = canonical_naming(query)
    if bailed_out:
        _OBS.inc("datalog.key.tie_bailouts")
    return serialize_body(query, naming)


# ----------------------------------------------------------------------
# Canonical variable naming: color refinement + bounded tie-breaking
# ----------------------------------------------------------------------
def canonical_naming(query: "Query") -> tuple[dict[Variable, str], bool]:
    """A canonical name ``v<rank>`` for every variable of ``query``, and
    whether the tie search exceeded its budget and fell back to name order."""
    variables = sorted(query.variables())
    if not variables:
        return {}, False
    colors: dict[Variable, int] = {variable: 0 for variable in variables}
    # The name-free structure the signatures read, built once: every
    # literal with the argument positions of its variables, and every
    # variable's head and aggregation positions.
    literals = [
        [(literal, _variable_positions(literal)) for literal in disjunct.literals]
        for disjunct in query.disjuncts
    ]
    aggregation_variables = query.aggregation_variables()
    prefixes = {
        variable: "h{}|a{}|".format(
            tuple(index for index, term in enumerate(query.head_terms) if term == variable),
            tuple(
                index
                for index, argument in enumerate(aggregation_variables)
                if argument == variable
            ),
        )
        for variable in variables
    }
    # Iterative refinement: a variable's color becomes the rank of its
    # occurrence signature (head positions, aggregation positions, and the
    # multiset of colored literal skeletons it occurs in).  The signature is
    # computed from colors only — never from names — so isomorphic queries
    # refine identically.  |variables| rounds suffice: each strictly refining
    # round splits at least one color class.
    for _ in range(len(variables)):
        signatures = _occurrence_signatures(literals, prefixes, colors)
        ranked = {
            signature: rank
            for rank, signature in enumerate(sorted(set(signatures.values())))
        }
        refined = {variable: ranked[signatures[variable]] for variable in variables}
        if refined == colors:
            break
        colors = refined
    groups: dict[int, list[Variable]] = {}
    for variable in variables:
        groups.setdefault(colors[variable], []).append(variable)
    ordered_groups = [groups[color] for color in sorted(groups)]
    if all(len(group) == 1 for group in ordered_groups):
        ordering = [group[0] for group in ordered_groups]
        return {variable: f"v{rank}" for rank, variable in enumerate(ordering)}, False
    return _break_ties(query, ordered_groups)


def _break_ties(
    query: "Query", groups: list[list[Variable]]
) -> tuple[dict[Variable, str], bool]:
    """Choose, among the orderings consistent with the refined partition,
    the one whose serialization is lexicographically smallest.

    The groups hold symmetric (or refinement-indistinguishable) variables;
    trying their permutations and keeping the minimal serialization makes
    the result independent of the input variable names.  Past the budget the
    search degrades to name order — deterministic, merely rename-sensitive.
    """
    budget = 1
    for group in groups:
        for size in range(2, len(group) + 1):
            budget *= size
        if budget > _PERMUTATION_BUDGET:
            ordering = [variable for group in groups for variable in group]
            return {variable: f"v{rank}" for rank, variable in enumerate(ordering)}, True
    best_text: Optional[str] = None
    best_naming: dict[Variable, str] = {}
    for candidate in itertools.product(*(itertools.permutations(g) for g in groups)):
        ordering = [variable for group in candidate for variable in group]
        naming = {variable: f"v{rank}" for rank, variable in enumerate(ordering)}
        text = serialize_body(query, naming)
        if best_text is None or text < best_text:
            best_text = text
            best_naming = naming
    return best_naming, False


def _occurrence_signatures(
    literals: list[list[tuple[object, dict[Variable, tuple[int, ...]]]]],
    prefixes: Mapping[Variable, str],
    colors: Mapping[Variable, int],
) -> dict[Variable, str]:
    """Every variable's occurrence signature under ``colors``: its head and
    aggregation positions (``prefixes``), and the sorted
    ``disjunct@literal@positions`` skeletons of the literals it occurs in.
    Each skeleton is built once per round and shared by the variables of
    its literal."""
    occurrences: dict[Variable, list[str]] = {variable: [] for variable in prefixes}
    for disjunct in literals:
        skeletons = [
            (_literal_skeleton(literal, colors), positions) for literal, positions in disjunct
        ]
        disjunct_skeleton = "&".join(sorted(skeleton for skeleton, _positions in skeletons))
        for skeleton, positions in skeletons:
            for variable, indexes in positions.items():
                occurrences[variable].append(f"{disjunct_skeleton}@{skeleton}@{indexes}")
    return {
        variable: prefix + ";".join(sorted(occurrences[variable]))
        for variable, prefix in prefixes.items()
    }


def _variable_positions(literal: object) -> dict[Variable, tuple[int, ...]]:
    """The argument positions of each variable of a literal (a comparison's
    positions are those of its oriented form)."""
    if isinstance(literal, RelationalAtom):
        operands: tuple = literal.arguments
    elif isinstance(literal, Comparison):
        oriented = _orient(literal)
        operands = (oriented.left, oriented.right)
    else:
        return {}
    positions: dict[Variable, list[int]] = {}
    for index, operand in enumerate(operands):
        if isinstance(operand, Variable):
            positions.setdefault(operand, []).append(index)
    return {variable: tuple(indexes) for variable, indexes in positions.items()}


def _orient(comparison: Comparison) -> Comparison:
    """Flip ``>`` / ``>=`` so every comparison reads left-to-right small."""
    if comparison.op in (ComparisonOp.GT, ComparisonOp.GE):
        return comparison.flip()
    return comparison


def _term_color_token(term: Term, colors: Mapping[Variable, int]) -> str:
    if isinstance(term, Constant):
        return f"c:{term.value}"
    return f"v:{colors.get(term, 0):06d}"


def _literal_skeleton(literal: object, colors: Mapping[Variable, int]) -> str:
    if isinstance(literal, Comparison):
        oriented = _orient(literal)
        left = _term_color_token(oriented.left, colors)
        right = _term_color_token(oriented.right, colors)
        if oriented.op in (ComparisonOp.EQ, ComparisonOp.NE) and right < left:
            left, right = right, left
        return f"C|{oriented.op.value}|{left}|{right}"
    if isinstance(literal, RelationalAtom):
        sign = "!" if literal.negated else ""
        arguments = ",".join(
            _term_color_token(argument, colors) for argument in literal.arguments
        )
        return f"R|{sign}{literal.predicate}|{arguments}"
    return f"?|{literal!r}"


# ----------------------------------------------------------------------
# Serialization under a fixed naming
# ----------------------------------------------------------------------
def _term_token(term: Term, naming: Mapping[Variable, str]) -> str:
    if isinstance(term, Constant):
        return f"c:{term.value}"
    return naming[term]


def _literal_text(literal: object, naming: Mapping[Variable, str]) -> str:
    if isinstance(literal, Comparison):
        oriented = _orient(literal)
        left = _term_token(oriented.left, naming)
        right = _term_token(oriented.right, naming)
        if oriented.op in (ComparisonOp.EQ, ComparisonOp.NE) and right < left:
            left, right = right, left
        return f"{left}{oriented.op.value}{right}"
    if isinstance(literal, RelationalAtom):
        sign = "!" if literal.negated else ""
        arguments = ",".join(
            _term_token(argument, naming) for argument in literal.arguments
        )
        return f"{sign}{literal.predicate}({arguments})"
    return repr(literal)


def _disjunct_text(disjunct: Condition, naming: Mapping[Variable, str]) -> str:
    # A conjunction is a *set* of literals: duplicates are dropped (they
    # change no satisfying assignment, hence no Γ multiplicity).  Duplicate
    # *disjuncts* are preserved by serialize_body — under bag semantics a
    # repeated disjunct doubles its contribution.
    return "&".join(sorted({_literal_text(literal, naming) for literal in disjunct.literals}))


def serialize_body(query: "Query", naming: Mapping[Variable, str]) -> str:
    """The query's head, aggregate and disjuncts under ``naming``, literals
    and disjuncts sorted; the query name is not part of it."""
    head = ",".join(_term_token(term, naming) for term in query.head_terms)
    if query.aggregate is not None:
        arguments = ",".join(naming[a] for a in query.aggregate.arguments)
        aggregate = f"{query.aggregate.function}({arguments})"
    else:
        aggregate = "-"
    disjuncts = sorted(_disjunct_text(disjunct, naming) for disjunct in query.disjuncts)
    return f"h:{head}|a:{aggregate}|" + "|".join(f"d:{text}" for text in disjuncts)
