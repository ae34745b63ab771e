"""Query evaluation: concrete databases and symbolic databases S_L.

Architecture
============

Evaluation is served by three engines sharing one pipeline, selected by the
process-global mode of :mod:`repro.engine.modes` (``REPRO_ENGINE`` env var;
``naive`` | ``planned`` | ``compiled``, default ``compiled``):

1. **Planning** (:mod:`repro.engine.planner`).  Each condition (disjunct) is
   compiled once into a :class:`~repro.engine.planner.Plan`: positive atoms
   ordered greedily by the number of already-bound argument positions (ties
   broken towards the smallest *estimated* probe result — join selectivity
   ``rows / distinct`` when column statistics are available, raw size
   otherwise), with every equality-definition (``BindStep``), comparison
   filter (``CompareStep``) and negated-atom anti-join (``NegationStep``)
   placed at the earliest point all its variables are bound.  Plans depend
   only on the condition and the relations' size/distinct *statistics*, so
   they are cached per ``(condition, statistics signature)``.

2. **Execution** — three interchangeable back ends:

   * ``naive`` — the original nested-loop engine
     (``naive_satisfying_assignments``), kept verbatim as the executable
     specification and differential oracle.
   * ``planned`` — the step interpreters (``execute_plan`` for concrete
     databases, ``execute_symbolic_plan`` for symbolic ones) extending
     dict-shaped partial assignments step by step, probing lazy
     per-``(predicate, columns)`` hash indexes supplied by the database.
   * ``compiled`` — the columnar engine.  :mod:`repro.engine.columnar`
     interns each database once into integer id columns whose order mirrors
     the value order (sorted-carrier rank concretely, block position
     symbolically), and :mod:`repro.engine.compile` code-generates each plan
     into a specialized Python function over those ids — no per-tuple
     interpretation, projection inside the kernel, one kernel shared by
     every database the plan runs over.  Large relations route through a
     NumPy ``searchsorted`` join executor when NumPy is importable
     (``REPRO_NO_NUMPY=1`` forces the pure-python kernels).

   Index invariants (planned and compiled alike): databases are immutable, so
   an index never goes stale; an index maps each projection of a row onto the
   indexed columns to the rows sharing that projection; a key absent from the
   index means no row matches; the empty column tuple is never indexed (it
   denotes a full scan).  Symbolic indexes hold block representatives — rows
   are canonicalized through the ordering before indexing.

3. **Memoization**.  ``Γ(q, D)`` (and its symbolic counterpart ``Γ(q, S_L)``)
   is cached per ``(query, database, engine)``; the compiled engine
   additionally caches the columnar store per database and the kernel per
   ``(plan, output terms)``.  ``clear_evaluation_caches`` /
   ``clear_symbolic_caches`` reset the caches (benchmarks use them for
   cold-cache timings; the kernel/store caches are dropped by the former).
"""

from .columnar import (
    ColumnarStore,
    clear_store_cache,
    execute_plan_vector,
    store_cache_stats,
    store_for,
)
from .compile import (
    clear_kernel_cache,
    get_kernel,
    kernel_cache_stats,
)
from .evaluator import (
    LabeledAssignment,
    clear_evaluation_caches,
    evaluate,
    evaluate_aggregate,
    evaluate_bag_set,
    evaluate_set,
    execute_plan,
    group_assignments,
    naive_satisfying_assignments,
    results_equal,
    satisfying_assignments,
)
from .modes import (
    DEFAULT_ENGINE,
    ENGINE_COMPILED,
    ENGINE_MODES,
    ENGINE_NAIVE,
    ENGINE_PLANNED,
    active_engine,
    engine_scope,
    set_engine,
)
from .planner import (
    AtomStep,
    BindStep,
    CompareStep,
    NegationStep,
    Plan,
    clear_plan_cache,
    plan_cache_stats,
    plan_condition,
)
from .symbolic import (
    GroupComparison,
    SymbolicAssignment,
    SymbolicDatabase,
    catalog_symbolic_groups,
    compare_symbolic_answers,
    compare_symbolic_groups,
    clear_symbolic_caches,
    execute_symbolic_plan,
    relation_signature,
    symbolic_answer_multiset,
    symbolic_cache_stats,
    symbolic_groups,
    symbolic_satisfying_assignments,
)

__all__ = [
    "AtomStep",
    "BindStep",
    "ColumnarStore",
    "CompareStep",
    "DEFAULT_ENGINE",
    "ENGINE_COMPILED",
    "ENGINE_MODES",
    "ENGINE_NAIVE",
    "ENGINE_PLANNED",
    "GroupComparison",
    "LabeledAssignment",
    "NegationStep",
    "Plan",
    "SymbolicAssignment",
    "SymbolicDatabase",
    "active_engine",
    "catalog_symbolic_groups",
    "clear_evaluation_caches",
    "clear_kernel_cache",
    "clear_plan_cache",
    "plan_cache_stats",
    "clear_store_cache",
    "clear_symbolic_caches",
    "compare_symbolic_answers",
    "compare_symbolic_groups",
    "engine_scope",
    "evaluate",
    "evaluate_aggregate",
    "evaluate_bag_set",
    "evaluate_set",
    "execute_plan",
    "execute_plan_vector",
    "execute_symbolic_plan",
    "get_kernel",
    "group_assignments",
    "kernel_cache_stats",
    "naive_satisfying_assignments",
    "plan_condition",
    "relation_signature",
    "results_equal",
    "satisfying_assignments",
    "set_engine",
    "store_cache_stats",
    "store_for",
    "symbolic_answer_multiset",
    "symbolic_cache_stats",
    "symbolic_groups",
    "symbolic_satisfying_assignments",
]
