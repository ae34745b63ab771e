"""repro — equivalence of disjunctive aggregate queries with negation.

A faithful, executable reproduction of

    Sara Cohen, Werner Nutt, Yehoshua Sagiv.
    "Equivalences Among Aggregate Queries with Negation." PODS 2001.

The package provides a Datalog-style query language with negation, constants
and comparisons (:mod:`repro.datalog`), the monoidal aggregation-function
framework of the paper (:mod:`repro.aggregates`), evaluation over concrete and
symbolic databases (:mod:`repro.engine`), order-constraint reasoning
(:mod:`repro.orderings`), and the decision procedures for bounded, local and
unrestricted equivalence, including the polynomial-time quasilinear case
(:mod:`repro.core`).

Quick start::

    from repro import parse_query, are_equivalent

    q1 = parse_query("q(x, sum(y)) :- p(x, y), y > 0")
    q2 = parse_query("q(x, sum(y)) :- p(x, y), y > 0, not r(x)")
    print(are_equivalent(q1, q2))

For anything session-shaped — a growing catalog, repeated rewrites — use
the stateful :class:`repro.Workspace` (:mod:`repro.session`), which keeps
the symbolic caches, verdict caches, and worker pool alive across calls and
decides only the delta cells of each ``equivalences()`` re-query::

    from repro import Workspace

    with Workspace(workers=4) as ws:
        ws.add("q(x, sum(y)) :- p(x, y)", name="a")
        ws.add("q(x, sum(z)) :- p(x, z)", name="b")
        print(ws.equivalences())
"""

from .aggregates import (
    PAPER_FUNCTIONS,
    AggregationFunction,
    build_table1,
    format_table1,
    get_function,
)
from .core import (
    EquivalenceResult,
    Verdict,
    are_equivalent,
    are_isomorphic,
    bag_set_equivalent,
    bounded_equivalence,
    build_table2,
    find_counterexample,
    format_table2,
    local_equivalence,
    quasilinear_equivalent,
    reduce_query,
    set_equivalent,
)
from .datalog import (
    Comparison,
    ComparisonOp,
    Condition,
    Constant,
    Database,
    Query,
    QueryBuilder,
    RelationalAtom,
    Variable,
    parse_database,
    parse_query,
)
from .domains import Domain
from .engine import evaluate, evaluate_aggregate, evaluate_bag_set, evaluate_set
from .errors import (
    DomainError,
    EvaluationError,
    MalformedQueryError,
    QuerySyntaxError,
    ReproError,
    RewritingError,
    SearchSpaceBudgetError,
    UndecidableError,
    UnsafeQueryError,
    UnsupportedAggregateError,
)
from . import obs
from .obs import CellExplanation
from .orderings import CompleteOrdering, ComparisonSystem, enumerate_complete_orderings
from .rewriting import (
    RewritingEngine,
    RewritingReport,
    View,
    ViewCatalog,
    rewrite,
    unfold_query,
)
from .session import Workspace, WorkspaceStats

__version__ = "1.0.0"

__all__ = [
    "AggregationFunction",
    "CellExplanation",
    "Comparison",
    "ComparisonOp",
    "ComparisonSystem",
    "CompleteOrdering",
    "Condition",
    "Constant",
    "Database",
    "Domain",
    "DomainError",
    "EquivalenceResult",
    "EvaluationError",
    "MalformedQueryError",
    "PAPER_FUNCTIONS",
    "Query",
    "QueryBuilder",
    "QuerySyntaxError",
    "RelationalAtom",
    "ReproError",
    "RewritingEngine",
    "RewritingError",
    "RewritingReport",
    "SearchSpaceBudgetError",
    "UndecidableError",
    "UnsafeQueryError",
    "UnsupportedAggregateError",
    "Variable",
    "Verdict",
    "View",
    "ViewCatalog",
    "Workspace",
    "WorkspaceStats",
    "are_equivalent",
    "are_isomorphic",
    "bag_set_equivalent",
    "bounded_equivalence",
    "build_table1",
    "build_table2",
    "enumerate_complete_orderings",
    "evaluate",
    "evaluate_aggregate",
    "evaluate_bag_set",
    "evaluate_set",
    "find_counterexample",
    "format_table1",
    "format_table2",
    "get_function",
    "local_equivalence",
    "obs",
    "parse_database",
    "parse_query",
    "quasilinear_equivalent",
    "reduce_query",
    "rewrite",
    "set_equivalent",
    "unfold_query",
    "__version__",
]
