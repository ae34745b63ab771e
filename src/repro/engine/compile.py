"""Per-plan compiled kernels: plans code-generated into Python closures.

Interpreting a :class:`~repro.engine.planner.Plan` step by step, carrying
dict-shaped partial assignments, pays step dispatch, dict copying and
per-tuple term resolution again for *every* database the plan is executed
over, and a bounded-equivalence sweep executes the same few plans over
thousands of ``(subset, ordering)`` pairs.

This module pays the cost once: :func:`get_kernel` turns a plan (plus the
output terms the caller wants projected) into a specialized Python function by
generating its source — one nested ``for`` loop per atom join, index probes on
the bound columns, comparisons emitted as plain integer comparisons on
interned ids — and ``exec``-ing it.  The kernel has no per-tuple
interpretation left: no step objects, no dicts, no term dispatch.  Its
contract is

    ``kernel(store) -> list[tuple[int, ...]]``

one id row per satisfying assignment (multiplicities preserved), over any
:class:`~repro.engine.columnar.ColumnarStore` — concrete or symbolic — since
both intern into order-isomorphic integer ids.  Store-dependent values
(constant bounds, indexes, negation sets, constant-vs-constant guards) are
fetched in a per-call prologue, so one compiled kernel serves every database
the plan is ever executed over.  A plan is a function of its condition alone,
so kernels are cached by ``(condition, output_terms)``.

The drivers at the bottom are the compiled engine's entry points, mirroring
the public evaluation API: concrete set / bag-set / aggregate evaluation and
Γ(q, D), plus symbolic Γ and the symbolic group index.  They decode
id rows back to values (or block representatives) only at the projection
boundary — group keys once per distinct group, never per tuple — which is
where much of the engine's end-to-end speed comes from.  Both aggregate
drivers (concrete aggregation and the symbolic group index) share one
grouping loop that counts id rows into ``{key ids: {element ids:
multiplicity}}``; the concrete driver decodes each distinct key and element
once and folds the counted bag through
:meth:`~repro.aggregates.functions.AggregationFunction.apply_counted`, so a
``sum`` over a thousand-row group is one ``Σ m·v``, not a thousand
normalized ``Fraction`` additions.  Each
driver routes through :func:`repro.engine.columnar.execute_plan_vector` first
when the store's relations are large enough to clear the NumPy threshold.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from ..caches import put_bounded, register_cache
from ..datalog.atoms import ComparisonOp
from ..datalog.conditions import Condition
from ..datalog.queries import Query
from ..datalog.terms import Constant, Term, Variable
from ..errors import EvaluationError
from ..obs import REGISTRY as _OBS
from ..obs import span as _span
from .planner import AtomStep, BindStep, CompareStep, NegationStep, Plan, plan_condition
from .columnar import ColumnarStore, execute_plan_vector, store_for

#: Python source operators per comparison op (``EQ.symbol`` is ``"="``, which
#: is not valid Python — hence an explicit table rather than ``op.symbol``).
_OP_TEXT = {
    ComparisonOp.LT: "<",
    ComparisonOp.LE: "<=",
    ComparisonOp.GT: ">",
    ComparisonOp.GE: ">=",
    ComparisonOp.EQ: "==",
    ComparisonOp.NE: "!=",
}

#: Variable-vs-constant comparisons compile against the constant's
#: ``(lo, hi, eq)`` bounds; this table picks the bound and the id comparison
#: (correct even for constants absent from the carrier, where ``eq`` is -1).
_CONST_COMPARE = {
    ComparisonOp.LT: ("<", "_lo"),
    ComparisonOp.LE: ("<", "_hi"),
    ComparisonOp.GT: (">=", "_hi"),
    ComparisonOp.GE: (">=", "_lo"),
    ComparisonOp.EQ: ("==", "_eq"),
    ComparisonOp.NE: ("!=", "_eq"),
}


def kernel_verification_enabled() -> bool:
    """Whether ``REPRO_VERIFY_KERNELS`` asks for pre-``exec`` verification of
    every generated kernel.  Read per compile (compiles are rare and cached),
    so tests can toggle the variable without reloading the module."""
    return os.environ.get("REPRO_VERIFY_KERNELS", "").strip() not in ("", "0")


def _empty_kernel(store: ColumnarStore) -> list:
    return []


def _compile_kernel(plan: Plan, output_terms: tuple[Term, ...]) -> Callable:
    """Generate and ``exec`` the specialized function for one plan."""
    if not plan.resolvable:
        return _empty_kernel

    namespace: dict[str, object] = {}
    prologue: list[str] = []
    body: list[str] = []
    depth = 0

    constants: dict[Constant, int] = {}
    decoded: set[int] = set()
    #: Variables defined by equating them with a constant: every use compiles
    #: as a use of the constant itself (its value may lie outside the carrier,
    #: so it cannot be given an id without breaking the order isomorphism).
    const_slot: dict[Variable, Constant] = {}
    local_of: dict[Variable, str] = {}
    op_count = 0

    def intern(constant: Constant) -> int:
        index = constants.get(constant)
        if index is None:
            index = len(constants)
            constants[constant] = index
            namespace[f"_c{index}"] = constant
            prologue.append(f"    _lo{index}, _hi{index}, _eq{index} = store.bounds(_c{index})")
        return index

    def decode(constant: Constant) -> str:
        index = intern(constant)
        if index not in decoded:
            decoded.add(index)
            prologue.append(f"    _d{index} = store.decode_id(_c{index})")
        return f"_d{index}"

    def as_constant(term: Term):
        if isinstance(term, Constant):
            return term
        return const_slot.get(term)

    def eq_expr(term: Term) -> str:
        """The id expression of a bound term, for probe keys and row checks."""
        constant = as_constant(term)
        if constant is not None:
            return f"_eq{intern(constant)}"
        return local_of[term]

    def emit_guard(fail_condition: str) -> None:
        escape = "return out" if depth == 0 else "continue"
        body.append(f"{'    ' * (depth + 1)}if {fail_condition}: {escape}")

    def tuple_expr(parts: list[str]) -> str:
        if not parts:
            return "()"
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    for step_index, step in enumerate(plan.steps):
        pad = "    " * (depth + 1)
        if isinstance(step, AtomStep):
            atom = step.atom
            if step.bound_columns:
                prologue.append(
                    f"    _idx{step_index} = store.index("
                    f"{atom.predicate!r}, {step.bound_columns!r}, {atom.arity})"
                )
                keys = [eq_expr(atom.arguments[column]) for column in step.bound_columns]
                key_expr = keys[0] if len(keys) == 1 else tuple_expr(keys)
                body.append(
                    f"{pad}for _row{step_index} in _idx{step_index}.get({key_expr}, ()):"
                )
            else:
                prologue.append(
                    f"    _rows{step_index} = store.rows({atom.predicate!r}, {atom.arity})"
                )
                body.append(f"{pad}for _row{step_index} in _rows{step_index}:")
            depth += 1
            pad = "    " * (depth + 1)
            bound_positions = set(step.bound_columns)
            for position, argument in enumerate(atom.arguments):
                if position in bound_positions:
                    continue
                # Unbound positions are variables: fresh, or a same-atom
                # repeat of a variable bound at an earlier position.
                if argument in local_of:
                    body.append(
                        f"{pad}if _row{step_index}[{position}] != {local_of[argument]}: continue"
                    )
                else:
                    name = f"_v{len(local_of)}"
                    local_of[argument] = name
                    body.append(f"{pad}{name} = _row{step_index}[{position}]")
        elif isinstance(step, BindStep):
            # Binds emit no code: constant sources route later uses to the
            # constant's bounds, variable sources alias the source's local.
            source = step.source
            source_constant = as_constant(source)
            if source_constant is not None:
                const_slot[step.variable] = source_constant
            else:
                local_of[step.variable] = local_of[source]
        elif isinstance(step, CompareStep):
            comparison = step.comparison
            op = comparison.op
            left, right = comparison.left, comparison.right
            left_constant = as_constant(left)
            right_constant = as_constant(right)
            if left_constant is not None and right_constant is not None:
                # Store-dependent (symbolic ids follow the ordering), but
                # loop-independent: resolve once per call, in the prologue.
                first, second = intern(left_constant), intern(right_constant)
                namespace[f"_op{op_count}"] = op
                prologue.append(
                    f"    if not store.const_holds(_c{first}, _op{op_count}, _c{second}):"
                    " return out"
                )
                op_count += 1
            elif left_constant is None and right_constant is None:
                emit_guard(
                    f"not ({local_of[left]} {_OP_TEXT[op]} {local_of[right]})"
                )
            else:
                if left_constant is not None:
                    op = op.flip()
                    variable, constant = right, left_constant
                else:
                    variable, constant = left, right_constant
                symbol, bound = _CONST_COMPARE[op]
                emit_guard(
                    f"not ({local_of[variable]} {symbol} {bound}{intern(constant)})"
                )
        else:  # NegationStep
            atom = step.atom
            prologue.append(f"    _neg{step_index} = store.row_set({atom.predicate!r})")
            parts = [eq_expr(argument) for argument in atom.arguments]
            emit_guard(f"{tuple_expr(parts)} in _neg{step_index}")

    output_parts: list[str] = []
    for term in output_terms:
        constant = as_constant(term)
        if constant is not None:
            output_parts.append(decode(constant))
        elif term in local_of:
            output_parts.append(local_of[term])
        else:
            raise EvaluationError(f"unbound term {term} in compiled projection")
    body.append(f"{'    ' * (depth + 1)}_append({tuple_expr(output_parts)})")

    source = "\n".join(
        ["def _kernel(store):", "    out = []", "    _append = out.append"]
        + prologue
        + body
        + ["    return out"]
    )
    if kernel_verification_enabled():
        # Imported lazily: the verifier only loads when the gate is on, so
        # the default path never pays the analysis-package import.
        from ..analysis.kernelcheck import verify_kernel_source

        verify_kernel_source(source, namespace)
        _OBS.inc("engine.kernel.verified")
    exec(compile(source, "<plan-kernel>", "exec"), namespace)  # noqa: S102
    kernel = namespace["_kernel"]
    kernel._source = source  # debugging / tests
    return kernel


# ----------------------------------------------------------------------
# The kernel cache
# ----------------------------------------------------------------------
_KERNEL_CACHE: dict = {}
_KERNEL_CACHE_LIMIT = 4096


def get_kernel(plan: Plan, output_terms: tuple[Term, ...]) -> Callable:
    """The compiled kernel for ``(plan, output_terms)``, compiled at most once.

    The plan is a function of its condition, so the key is
    ``(plan.condition, output_terms)``: the thousands of ``S_L`` a sweep
    evaluates share one kernel per disjunct and projection.
    """
    key = (plan.condition, output_terms)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        _OBS.inc("engine.kernel.compiles")
        with _span("kernel.compile", steps=len(plan.steps)):
            kernel = _compile_kernel(plan, output_terms)
        put_bounded(_KERNEL_CACHE, key, kernel, _KERNEL_CACHE_LIMIT)
    else:
        _OBS.inc("engine.kernel.hits")
    return kernel


def clear_kernel_cache() -> None:
    """Drop every compiled kernel and reset the compile/hit (and, under
    ``REPRO_VERIFY_KERNELS``, verified) counters."""
    _KERNEL_CACHE.clear()
    _OBS.reset("engine.kernel.")


register_cache("engine/compile.py:_KERNEL_CACHE", "clear_evaluation_caches", clear_kernel_cache)


def kernel_cache_stats() -> dict[str, int]:
    """``{"entries", "compiles", "hits"}`` — the leak test asserts that a
    steady-state workload stops growing ``compiles``.  The counters live in
    the metrics registry (``engine.kernel.*``); this view keeps the
    historical shape."""
    return {
        "entries": len(_KERNEL_CACHE),
        "compiles": _OBS.get("engine.kernel.compiles"),
        "hits": _OBS.get("engine.kernel.hits"),
    }


# ----------------------------------------------------------------------
# Shared row production
# ----------------------------------------------------------------------
def condition_rows(
    condition: Condition, store: ColumnarStore, output_terms: tuple[Term, ...]
) -> list[tuple[int, ...]]:
    """All id rows (one per satisfying assignment, projected onto
    ``output_terms``) of one condition over one store, via the vectorized
    executor when profitable, the compiled loop kernel otherwise."""
    plan = plan_condition(condition)
    if store.vector_candidate(plan):
        rows = execute_plan_vector(plan, store, output_terms)
        if rows is not None:
            _OBS.inc("engine.dispatch.vector")
            return rows
        _OBS.inc("engine.dispatch.vector_fallback")
    _OBS.inc("engine.dispatch.loop")
    with _span("kernel.execute"):
        return get_kernel(plan, output_terms)(store)


def _decoded_rows(
    query: Query, store: ColumnarStore, output_terms: tuple[Term, ...]
) -> Iterable[tuple]:
    value_of = store.decode_values.__getitem__
    for disjunct in query.disjuncts:
        for row in condition_rows(disjunct, store, output_terms):
            yield tuple(map(value_of, row))


# ----------------------------------------------------------------------
# Concrete drivers
# ----------------------------------------------------------------------
def compiled_evaluate_set(query: Query, database) -> set:  # noqa: ANN001
    store = store_for(database)
    return set(_decoded_rows(query, store, tuple(query.head_terms)))


def compiled_evaluate_bag_set(query: Query, database):  # noqa: ANN001
    from collections import Counter

    store = store_for(database)
    return Counter(_decoded_rows(query, store, tuple(query.head_terms)))


def compiled_evaluate_aggregate(query: Query, database, function):  # noqa: ANN001
    """Aggregate semantics over the id rows: each group's bag is counted
    (:func:`_counted_groups`), its key and distinct elements are decoded
    once, and the function folds the counted bag
    (:meth:`~repro.aggregates.functions.AggregationFunction.apply_counted`)."""
    store = store_for(database)
    value_of = store.decode_values.__getitem__
    return {
        tuple(map(value_of, key)): function.apply_counted(
            [(tuple(map(value_of, element)), count) for element, count in bag.items()]
        )
        for key, bag in _counted_groups(query, store).items()
    }


def compiled_satisfying_assignments(query: Query, database) -> list:  # noqa: ANN001
    """Γ(q, D) through the compiled kernels: full labeled assignments, for
    callers (grouping, witness inspection) that need every variable."""
    from .evaluator import LabeledAssignment

    store = store_for(database)
    decode = store.decode_values
    results: list = []
    for index, disjunct in enumerate(query.disjuncts):
        variables = tuple(sorted(disjunct.variables(), key=lambda v: v.name))
        for row in condition_rows(disjunct, store, variables):
            mapping = tuple(
                (variable, decode[identifier])
                for variable, identifier in zip(variables, row)
            )
            results.append(LabeledAssignment(mapping, index))
    return results


# ----------------------------------------------------------------------
# Symbolic drivers
# ----------------------------------------------------------------------
def compiled_symbolic_assignments(query: Query, database) -> tuple:  # noqa: ANN001
    """Symbolic Γ(q, S_L): the same kernels, decoding ids to block
    representatives instead of numeric values."""
    from .symbolic import SymbolicAssignment

    store = store_for(database)
    decode = store.decode_values
    results: list = []
    for index, disjunct in enumerate(query.disjuncts):
        variables = tuple(sorted(disjunct.variables(), key=lambda v: v.name))
        for row in condition_rows(disjunct, store, variables):
            mapping = tuple(
                (variable, decode[identifier])
                for variable, identifier in zip(variables, row)
            )
            results.append(SymbolicAssignment(mapping, index))
    return tuple(results)


def compiled_symbolic_group_index(query: Query, database) -> dict:  # noqa: ANN001
    """``{group key: Counter(bag)}`` of symbolic Γ(q, S_L), counted on id
    rows and decoded once per distinct key and bag element (decoding is a
    bijection on a symbolic store's block representatives).  A non-aggregate
    query projects no aggregation variables, so its bags count ``()``."""
    from collections import Counter

    store = store_for(database)
    value_of = store.decode_values.__getitem__
    return {
        tuple(map(value_of, key)): Counter(
            {tuple(map(value_of, element)): count for element, count in bag.items()}
        )
        for key, bag in _counted_groups(query, store).items()
    }


# ----------------------------------------------------------------------
# Shared grouping
# ----------------------------------------------------------------------
def _counted_groups(query: Query, store: ColumnarStore) -> dict:
    """``{key ids: {element ids: multiplicity}}`` over every disjunct's id
    rows: the group key is the head projection, the element the aggregation
    variables.  The one grouping loop of both aggregate drivers; plain dicts
    rather than ``Counter`` keep it cheap on the tiny bags of witness search."""
    key_width = len(query.head_terms)
    output_terms = tuple(query.head_terms) + tuple(query.aggregation_variables())
    groups: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for disjunct in query.disjuncts:
        for row in condition_rows(disjunct, store, output_terms):
            key = row[:key_width]
            bag = groups.get(key)
            if bag is None:
                bag = groups[key] = {}
            element = row[key_width:]
            bag[element] = bag.get(element, 0) + 1
    return groups
