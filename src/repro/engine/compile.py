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
boundary — each distinct answer row or group key once, never per tuple —
which is where much of the engine's end-to-end speed comes from.  Each entry
point routes through :func:`repro.engine.columnar.execute_plan_vector` first
when the store's relations are large enough to clear the NumPy threshold.

Set and bag-set semantics count the head's id rows and decode only the
distinct ones (:func:`_distinct_head_rows`).  On a store with a relation of
at least ``VECTOR_THRESHOLD`` rows (and NumPy on) every disjunct's id matrix
is stacked, each row packs into one int64 key
(:func:`~repro.engine.columnar.pack_rows`, base the decode table's length
plus one, so decode-extension ids fit), and one ``np.unique`` finds the
distinct keys and their multiplicities; the keys unpack into the distinct
id rows.  Every other store, an empty head,
and a head whose key would not fit int64 count the rows in a loop.

Aggregation takes one of two paths, by store:

* On such a vectorized store, a function with an ``id_fold``
  (:attr:`~repro.aggregates.functions.AggregationFunction.id_fold`) stays in
  id space from relation to fold (:func:`_fold_id_matrix`): every
  disjunct's id matrix is stacked, one ``np.argsort`` over one packed key
  per row (the key columns; the whole row for ``cntd``) sorts it, group
  starts are where the sorted key changes, and each group folds on ids —
  ``count``/``parity`` from the counts, ``cntd`` from the distinct ``(key,
  element)`` rows, ``max``/``min`` by ``np.maximum``/``np.minimum.reduceat``
  over carrier ids (id order is value order there; ids of the decode
  extension region are not, so a bag holding one falls back), ``sum``/``avg``
  by an exact int64 ``np.add.reduceat`` when every value is an ``int`` and
  ``max|v| · rows < 2**62``.  Only each distinct key and each folded value
  is decoded.  A fallback (``Fraction`` data, a possible overflow, a sort
  key too wide to pack) counts the stacked rows like the loop path below.
* Every other store and function (``prod``, ``topK``/``botK``) — and the
  symbolic group index, whose stores are small — counts id rows in one
  grouping loop (:func:`_counted_groups`) into ``{key ids: {element ids:
  multiplicity}}``; concrete aggregation decodes each distinct key and
  element once and folds the counted bag through
  :meth:`~repro.aggregates.functions.AggregationFunction.apply_counted`, so a
  ``sum`` over a thousand-row group is one ``Σ m·v``, not a thousand
  normalized ``Fraction`` additions.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator

from ..caches import put_bounded, register_cache
from ..datalog.atoms import ComparisonOp
from ..datalog.conditions import Condition
from ..datalog.queries import Query
from ..datalog.terms import Constant, Term, Variable
from ..errors import EvaluationError
from ..obs import REGISTRY as _OBS
from ..obs import span as _span
from .planner import AtomStep, BindStep, CompareStep, NegationStep, Plan, plan_condition
from .columnar import (
    INT64_HEADROOM,
    ColumnarStore,
    execute_plan_vector,
    pack_rows,
    store_for,
    unpack_rows,
)

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
    condition: Condition,
    store: ColumnarStore,
    output_terms: tuple[Term, ...],
    as_matrix: bool = False,
):
    """All id rows (one per satisfying assignment, projected onto
    ``output_terms``) of one condition over one store, via the vectorized
    executor when profitable, the compiled loop kernel otherwise.

    The loop kernel returns a list of id tuples; the vectorized executor an
    id matrix, which becomes the same list unless ``as_matrix`` asks for
    the matrix itself (for the id-space fold of concrete aggregation)."""
    plan = plan_condition(condition)
    if store.vector_candidate(plan):
        rows = execute_plan_vector(plan, store, output_terms)
        if rows is not None:
            _OBS.inc("engine.dispatch.vector")
            return rows if as_matrix else list(map(tuple, rows.tolist()))
        _OBS.inc("engine.dispatch.vector_fallback")
    _OBS.inc("engine.dispatch.loop")
    with _span("kernel.execute"):
        return get_kernel(plan, output_terms)(store)


def _distinct_head_rows(query: Query, store: ColumnarStore) -> tuple[list[tuple], list[int]]:
    """The distinct rows of the head projection over every disjunct,
    decoded, and the multiplicity of each.

    On a vectorized store the disjuncts' id matrices are stacked and one
    ``np.unique`` over packed row keys finds the distinct rows; an empty
    head, or one too wide to pack into int64, counts the rows in a loop, as
    every smaller store does."""
    head = tuple(query.head_terms)
    if head and store.vectorized():
        np = store.numpy
        matrix = _stacked_matrix(query, store, head)
        # Packed after execution: head constants absent from the carrier
        # have appended their decode-extension ids by now.
        base = len(store.decode_values) + 1
        keys = pack_rows(np, matrix, base)
        if keys is not None:
            distinct, counts = np.unique(keys, return_counts=True)
            return _decoded(store, unpack_rows(np, distinct, base, len(head))), counts.tolist()
        rows: Iterable[tuple] = map(tuple, matrix.tolist())
    else:
        rows = chain.from_iterable(
            condition_rows(disjunct, store, head) for disjunct in query.disjuncts
        )
    counted = Counter(rows)
    value_of = store.decode_values.__getitem__
    return [tuple(map(value_of, row)) for row in counted], list(counted.values())


def _decoded(store: ColumnarStore, matrix) -> list[tuple]:  # noqa: ANN001
    """The rows of an id matrix with at least one column as value tuples,
    decoded a column at a time."""
    value_of = store.decode_values.__getitem__
    return list(zip(*[map(value_of, column) for column in matrix.T.tolist()]))


# ----------------------------------------------------------------------
# Concrete drivers
# ----------------------------------------------------------------------
def compiled_evaluate_set(query: Query, database) -> set:  # noqa: ANN001
    """Set semantics: each distinct head row decoded once."""
    rows, _counts = _distinct_head_rows(query, store_for(database))
    return set(rows)


def compiled_evaluate_bag_set(query: Query, database) -> Counter:  # noqa: ANN001
    """Bag-set semantics: each distinct head row decoded once, with its
    multiplicity."""
    rows, counts = _distinct_head_rows(query, store_for(database))
    return Counter(dict(zip(rows, counts)))


def compiled_evaluate_aggregate(query: Query, database, function):  # noqa: ANN001
    """Aggregate semantics over the id rows.  On a vectorized store a
    function with an id fold folds its groups in id space
    (:func:`_fold_id_matrix`).  Otherwise each group's bag is counted
    (:func:`_counted_groups`), its key and distinct elements are decoded
    once, and the function folds the counted bag
    (:meth:`~repro.aggregates.functions.AggregationFunction.apply_counted`)."""
    store = store_for(database)
    if function.id_fold is not None and store.vectorized():
        key_width = len(query.head_terms)
        matrix = _stacked_matrix(
            query, store, tuple(query.head_terms) + tuple(query.aggregation_variables())
        )
        folded = _fold_id_matrix(matrix, key_width, store, function)
        if folded is not None:
            return folded
        groups = _count_rows({}, map(tuple, matrix.tolist()), key_width)
    else:
        groups = _counted_groups(query, store)
    value_of = store.decode_values.__getitem__
    return {
        tuple(map(value_of, key)): function.apply_counted(
            [(tuple(map(value_of, element)), count) for element, count in bag.items()]
        )
        for key, bag in groups.items()
    }


def _decoded_assignments(query: Query, database, assignment) -> Iterator:  # noqa: ANN001
    """Γ(q, D) through the compiled kernels, one ``assignment(mapping,
    disjunct index)`` per satisfying assignment: each disjunct's variables,
    sorted by name, paired with their decoded values."""
    store = store_for(database)
    decode = store.decode_values
    for index, disjunct in enumerate(query.disjuncts):
        variables = tuple(sorted(disjunct.variables(), key=lambda v: v.name))
        for row in condition_rows(disjunct, store, variables):
            mapping = tuple(
                (variable, decode[identifier])
                for variable, identifier in zip(variables, row)
            )
            yield assignment(mapping, index)


def compiled_satisfying_assignments(query: Query, database) -> list:  # noqa: ANN001
    """Γ(q, D) through the compiled kernels: full labeled assignments, for
    callers (grouping, witness inspection) that need every variable."""
    from .evaluator import LabeledAssignment

    return list(_decoded_assignments(query, database, LabeledAssignment))


# ----------------------------------------------------------------------
# Symbolic drivers
# ----------------------------------------------------------------------
def compiled_symbolic_assignments(query: Query, database) -> tuple:  # noqa: ANN001
    """Symbolic Γ(q, S_L): the same kernels, decoding ids to block
    representatives instead of numeric values."""
    from .symbolic import SymbolicAssignment

    return tuple(_decoded_assignments(query, database, SymbolicAssignment))


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
    variables.  The grouping of both aggregate drivers."""
    key_width = len(query.head_terms)
    output_terms = tuple(query.head_terms) + tuple(query.aggregation_variables())
    groups: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for disjunct in query.disjuncts:
        _count_rows(groups, condition_rows(disjunct, store, output_terms), key_width)
    return groups


def _count_rows(groups: dict, rows: Iterable[tuple[int, ...]], key_width: int) -> dict:
    """Count id rows into ``groups``; plain dicts rather than ``Counter``
    keep it cheap on the tiny bags of witness search."""
    for row in rows:
        key = row[:key_width]
        bag = groups.get(key)
        if bag is None:
            bag = groups[key] = {}
        element = row[key_width:]
        bag[element] = bag.get(element, 0) + 1
    return groups


# ----------------------------------------------------------------------
# Id-space aggregation (vectorized stores)
# ----------------------------------------------------------------------
def _stacked_matrix(
    query: Query, store: ColumnarStore, output_terms: tuple[Term, ...]
):  # noqa: ANN202
    """Every disjunct's id rows, projected onto ``output_terms``, stacked
    into one unsorted int64 matrix."""
    np = store.numpy
    parts = []
    for disjunct in query.disjuncts:
        rows = condition_rows(disjunct, store, output_terms, as_matrix=True)
        if isinstance(rows, list):
            rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(output_terms))
        parts.append(rows)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _fold_id_matrix(matrix, key_width: int, store: ColumnarStore, function):  # noqa: ANN001, ANN202
    """Aggregate semantics without leaving id space, or ``None`` when the
    data rule the function's id fold out (:func:`_id_fold`) or the sort key
    cannot be packed into int64.

    One ``np.argsort`` over one packed int64 key per row groups the matrix:
    the key columns, or the whole row for ``cntd``, which then keeps one row
    per distinct ``(key, element)`` and counts them.  Group starts are where
    the sorted key part changes.  Only each distinct key and each folded
    value is decoded.
    """
    if not len(matrix):
        return {}
    np = store.numpy
    fold = _id_fold(np, store, function, matrix[:, key_width:])
    if fold is None:
        return None
    distinct = function.id_fold == "distinct"
    starts = np.zeros(1, dtype=np.intp)
    if key_width or distinct:
        width = matrix.shape[1] if distinct else key_width
        base = len(store.decode_values) + 1
        packed = pack_rows(np, matrix[:, :width], base)
        if packed is None:
            return None
        order = np.argsort(packed)
        matrix, packed = matrix[order], packed[order]
        if distinct:
            fresh = _run_starts(np, packed)
            # Key columns are the high digits of the whole-row key.
            matrix, packed = matrix[fresh], packed[fresh] // base ** (width - key_width)
        if key_width:
            starts = np.flatnonzero(_run_starts(np, packed))
    counts = np.diff(np.append(starts, len(matrix)))
    keys = _decoded(store, matrix[starts, :key_width]) if key_width else [()]
    return dict(zip(keys, fold(matrix[:, key_width:], starts, counts)))


def _run_starts(np, keys):  # noqa: ANN001, ANN202
    """Per entry of a sorted key array: whether it differs from the entry
    before (the first always does)."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def _id_fold(np, store: ColumnarStore, function, elements):  # noqa: ANN001, ANN202
    """``fold(sorted elements, group starts, group counts) -> values`` for
    the function's :attr:`~repro.aggregates.functions.AggregationFunction.id_fold`
    over these (unsorted) element columns, or ``None`` when the groups must
    fold through ``apply_counted``: a ``max``/``min`` over an id outside the
    carrier, and a ``sum``/``avg`` over a non-``int`` value or one the int64
    guard rejects.  ``cntd`` counts the groups of the deduplicated rows
    :func:`_fold_id_matrix` hands it.  Each fold equals ``apply_counted`` in
    value and type."""
    kind = function.id_fold
    if kind in ("count", "distinct"):
        return lambda elements, starts, counts: counts.tolist()
    if kind == "parity":
        return lambda elements, starts, counts: (counts % 2).tolist()
    if elements.shape[1] != 1:
        return None
    column = elements[:, 0]
    if kind in ("max", "min"):
        # Carrier ids are ranks, so the extreme id decodes to the extreme
        # value; decode-extension ids (head constants absent from the
        # carrier) come after the carrier whatever their value.
        if int(column.max()) >= store.carrier_len:
            return None
        reduce = (np.maximum if kind == "max" else np.minimum).reduceat
        value_of = store.decode_values.__getitem__
        return lambda elements, starts, counts: list(
            map(value_of, reduce(elements[:, 0], starts).tolist())
        )
    table = _int64_values(np, store, column) if kind in ("sum", "avg") else None
    if table is None:
        return None

    def fold(elements, starts, counts):  # noqa: ANN001, ANN202
        sums = np.add.reduceat(table[elements[:, 0]], starts).tolist()
        if kind == "sum":
            return sums
        averages = [Fraction(s, c) for s, c in zip(sums, counts.tolist())]
        return [int(a) if a.denominator == 1 else a for a in averages]

    return fold


def _int64_values(np, store: ColumnarStore, column):  # noqa: ANN001, ANN202
    """An id → value lookup array over the ids in ``column``, when every
    value they decode to is an ``int`` and ``max|v| · rows`` stays below
    :data:`~repro.engine.columnar.INT64_HEADROOM` (so every group sum is
    exact in int64); ``None`` otherwise."""
    used = np.flatnonzero(np.bincount(column))
    values = list(map(store.decode_values.__getitem__, used.tolist()))
    if not all(isinstance(value, int) for value in values):
        return None
    if max(map(abs, values)) * len(column) >= INT64_HEADROOM:
        return None
    table = np.zeros(int(used[-1]) + 1, dtype=np.int64)
    table[used] = values
    return table
