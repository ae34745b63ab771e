"""Query evaluation: concrete databases and symbolic databases S_L.

Architecture
============

Evaluation is served by one engine, the compiled columnar pipeline below;
beside it sits a reference oracle that no production path calls.

1. **Planning** (:mod:`repro.engine.planner`).  Each condition (disjunct) is
   compiled once into a :class:`~repro.engine.planner.Plan`: positive atoms
   ordered greedily by the number of already-bound argument positions (ties
   go to the first in literal order), with every equality-definition
   (``BindStep``), comparison filter (``CompareStep``) and negated-atom
   anti-join (``NegationStep``) placed at the earliest point all its
   variables are bound.  Plans depend on the condition alone, so they are
   cached per condition.

2. **Execution**.  :mod:`repro.engine.columnar` interns each database
   once into integer id columns whose order mirrors the value order
   (sorted-carrier rank concretely, block position symbolically), and
   :mod:`repro.engine.compile` code-generates each plan into a specialized
   Python function over those ids — no per-tuple interpretation,
   projection inside the kernel, one kernel shared by every database the
   plan runs over.  Large relations route through a NumPy
   ``searchsorted`` join executor when NumPy is importable
   (``REPRO_NO_NUMPY=1`` forces the pure-python kernels).

   Index invariants: databases are immutable, so a store's index never goes
   stale; an index maps each projection of a row onto the indexed columns to
   the rows sharing that projection; a key absent from the index means no
   row matches; the empty column tuple is never indexed (it denotes a full
   scan).  Symbolic stores hold block representatives — rows are
   canonicalized through the ordering before interning.

3. **Memoization**.  ``Γ(q, D)`` (and its symbolic counterpart ``Γ(q, S_L)``)
   is cached per ``(query, database)``, along with the columnar store per
   database and the kernel per ``(condition, output terms)``.  Conditions
   are interned when a query is built
   (:func:`repro.datalog.conditions.intern_condition`), so equal
   disjuncts are one object and every plan and kernel cache hit is an
   identity hit.  ``clear_evaluation_caches`` /
   ``clear_symbolic_caches`` reset the caches (benchmarks use them for
   cold-cache timings; the kernel/store caches are dropped by the former).

**Reference oracle.**  The original nested-loop engine is the paper's
Section 3 semantics, kept verbatim as an executable specification:
``naive_satisfying_assignments`` (Γ(q, D)) and ``naive_evaluate`` (set,
bag-set and aggregate answers folded from it).  It evaluates concrete
databases only and is reached only by those names; the differential tests
and benchmarks call it beside the compiled entry points.
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
    group_assignments,
    naive_evaluate,
    naive_satisfying_assignments,
    results_equal,
    satisfying_assignments,
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
    SymbolicAssignment,
    SymbolicDatabase,
    clear_symbolic_caches,
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
    "LabeledAssignment",
    "NegationStep",
    "Plan",
    "SymbolicAssignment",
    "SymbolicDatabase",
    "clear_evaluation_caches",
    "clear_kernel_cache",
    "clear_plan_cache",
    "plan_cache_stats",
    "clear_store_cache",
    "clear_symbolic_caches",
    "evaluate",
    "evaluate_aggregate",
    "evaluate_bag_set",
    "evaluate_set",
    "execute_plan_vector",
    "get_kernel",
    "group_assignments",
    "kernel_cache_stats",
    "naive_evaluate",
    "naive_satisfying_assignments",
    "plan_condition",
    "relation_signature",
    "results_equal",
    "satisfying_assignments",
    "store_cache_stats",
    "store_for",
    "symbolic_answer_multiset",
    "symbolic_cache_stats",
    "symbolic_groups",
    "symbolic_satisfying_assignments",
]
