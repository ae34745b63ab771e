"""Columnar relation storage: interned id columns and vectorized join probes.

The compiled engine (:mod:`repro.engine.compile`) does not evaluate over the
value-shaped relations of :class:`~repro.datalog.database.Database` /
:class:`~repro.engine.symbolic.SymbolicDatabase`.  It evaluates over a
:class:`ColumnarStore` — an interned, column-oriented image of the database in
which every constant is replaced by a small integer id chosen so that **id
order equals value order**:

* concrete databases intern by *rank in the sorted carrier* — ``id(a) < id(b)``
  iff ``a < b`` — so every comparison the query performs becomes a plain
  integer comparison;
* symbolic databases ``S_L`` intern a block representative by its *block
  position in the ordering L* — so comparisons decided by ``L`` become the
  same integer comparisons, and one compiled kernel serves both engines.

Constants that a query mentions but the carrier lacks cannot be given a rank
without breaking the order isomorphism; they are resolved per store into
*comparison bounds* ``(lo, hi, eq)`` (bisection ranks plus a ``-1`` equality
sentinel), which make every operator against an absent constant correct
without special cases — an absent key simply probes an index miss, and
``x < c`` compiles to ``id(x) < bisect_left(carrier, c)``.

On top of the id rows the store maintains the lazy per-``(predicate,
columns)`` hash indexes the kernels probe, NumPy ``int64`` id matrices
when NumPy is importable (``REPRO_NO_NUMPY=1`` forces the pure-python
fallback), and :func:`execute_plan_vector` — a column-at-a-time plan executor
whose joins run as packed-key ``argsort``/``searchsorted`` probes instead of
per-tuple loops, and which returns its result as one id matrix.  The
vectorized path is only selected for plans over relations of at least
:data:`VECTOR_THRESHOLD` rows: below that the NumPy per-call overhead loses
to the generated loop kernels, which share the exact same store.  A store
whose relations all stay below the threshold never touches NumPy.

Building a store interns only the carrier (the id of every value or block
representative); each relation is interned on its first read, so evaluating
a query over a large database interns the relations the query reads and no
others.  The loop path reads ``rows``, ``index`` and ``row_set``, built from
the relation's id rows in sorted order; the vectorized path reads
``matrix``, which interns the relation straight into an ``(n, arity)``
int64 matrix with ``np.fromiter`` over the id map.  Id matrices are
unsorted — their rows follow the value rows' iteration order — and no
result depends on row order: every consumer treats rows as a bag.
Relation sizes come from the value rows, which interning maps one-to-one,
and row arities from the set each database records per relation while it
groups the rows (a predicate may be stored at several arities; an atom
reads only the rows of its own), so no read scans row lengths.

Past the join, :func:`pack_rows` packs each row of a result matrix into one
int64 key that sorts like the row: the compiled drivers
(:mod:`repro.engine.compile`) deduplicate set and bag-set answers with one
``np.unique`` and group aggregates with one ``np.argsort`` over those keys,
and decode only the distinct rows and group keys.

Ids of the decode-only extension region (:meth:`ColumnarStore.decode_id`)
come after the carrier whatever their value, so only carrier ids are
order-isomorphic to values: an id-space ``max``/``min`` must not fold them.

Stores are built once per database through :func:`store_for` (a capped global
cache — both database classes hash by value, so sweeps re-creating equal
``S_L`` objects still share one store) and are dropped by
:func:`clear_store_cache`, which ``clear_evaluation_caches`` calls.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from itertools import chain
from operator import itemgetter

from ..caches import put_bounded, register_cache
from ..datalog.terms import Constant, Term, Variable
from ..errors import EvaluationError
from ..obs import REGISTRY as _OBS
from .planner import AtomStep, BindStep, CompareStep, NegationStep, Plan

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None


def numpy_module():
    """The NumPy module the stores use, or ``None`` (not importable, or
    disabled via ``REPRO_NO_NUMPY``).  Read per store build, so tests can
    toggle the fallback without reloading modules."""
    if os.environ.get("REPRO_NO_NUMPY", "").strip().lower() in ("1", "true", "yes"):
        return None
    return _numpy


#: Minimum relation size for the vectorized join path.
VECTOR_THRESHOLD = 512


#: Int64 headroom: packed join keys, and the ``max|v| · rows`` bound of an
#: exact int64 sum (:mod:`repro.engine.compile`), stay below it.
INT64_HEADROOM = 2**62


class _VectorFallback(Exception):
    """Raised when the vectorized executor cannot represent the plan (packed
    keys would overflow int64, mixed-arity relations, ...); the caller falls
    back to the generated loop kernel, which has no such limits."""


class ColumnarStore:
    """The interned, column-oriented image of one (immutable) database."""

    __slots__ = (
        "symbolic",
        "decode_values",
        "carrier_len",
        "numpy",
        "_id_of",
        "_canonical",
        "_relations",
        "_arities",
        "_interned",
        "_rows",
        "_indexes",
        "_row_sets",
        "_matrices",
        "_packed",
        "_bounds",
        "_decode_ids",
        "_sizes",
        "_largest",
    )

    def __init__(self, database):  # noqa: ANN001 - Database | SymbolicDatabase
        # Deferred import: symbolic.py imports the engine package lazily too,
        # and the store only needs the class for the isinstance split.
        from .symbolic import SymbolicDatabase

        self.symbolic = isinstance(database, SymbolicDatabase)
        if self.symbolic:
            ordering = database.ordering
            representatives = [
                ordering.representative(index) for index in range(len(ordering.blocks))
            ]
            self.decode_values: list = representatives
            self._id_of: dict = {term: index for index, term in enumerate(representatives)}
            self._canonical = database.canonical
            relations = database.canonical_relations
        else:
            carrier = database.sorted_carrier()
            self.decode_values = list(carrier)
            self._id_of = {value: index for index, value in enumerate(carrier)}
            self._canonical = None
            relations = database._by_predicate
        self.carrier_len = len(self.decode_values)
        self.numpy = numpy_module()
        self._relations = relations
        self._arities = database.relation_arities
        self._interned: dict[str, tuple[tuple[int, ...], ...]] = {}
        self._rows: dict[tuple[str, int], tuple[tuple[int, ...], ...]] = {}
        self._indexes: dict[tuple[str, tuple[int, ...], int], dict] = {}
        self._row_sets: dict[str, frozenset] = {}
        self._matrices: dict[tuple[str, int], object] = {}
        self._packed: dict[tuple[str, int], object] = {}
        self._bounds: dict[Constant, tuple[int, int, int]] = {}
        self._decode_ids: dict[Constant, int] = {}
        # Interning is a bijection on rows, so the value-row counts are the
        # id-row counts of relations not interned yet.
        self._sizes = {predicate: len(rows) for predicate, rows in relations.items()}
        self._largest = max(self._sizes.values(), default=0)

    # ------------------------------------------------------------------
    # Relation access (id space)
    # ------------------------------------------------------------------
    def size(self, predicate: str) -> int:
        return self._sizes.get(predicate, 0)

    def _single_arity(self, predicate: str, arity: int) -> bool:
        """Whether every row of the relation has ``arity`` columns."""
        return self._arities.get(predicate, frozenset()) <= {arity}

    def _id_rows(self, predicate: str) -> tuple[tuple[int, ...], ...]:
        """The relation's id rows, sorted; interned on the first read."""
        cached = self._interned.get(predicate)
        if cached is None:
            id_of = self._id_of.__getitem__
            cached = tuple(
                sorted(tuple(map(id_of, row)) for row in self._relations.get(predicate, ()))
            )
            self._interned[predicate] = cached
        return cached

    def rows(self, predicate: str, arity: int) -> tuple[tuple[int, ...], ...]:
        """The id rows of the relation that can match an ``arity``-ary atom."""
        key = (predicate, arity)
        cached = self._rows.get(key)
        if cached is None:
            everything = self._id_rows(predicate)
            if self._single_arity(predicate, arity):
                cached = everything
            else:
                cached = tuple(row for row in everything if len(row) == arity)
            self._rows[key] = cached
        return cached

    def index(self, predicate: str, columns: tuple[int, ...], arity: int) -> dict:
        """A hash index over id rows on the given columns, keyed by the bare
        id for a single column and by the id tuple otherwise (single-column
        probes are by far the most common; skipping the tuple allocation on
        every probe is measurable)."""
        key = (predicate, columns, arity)
        cached = self._indexes.get(key)
        if cached is None:
            buckets: dict = {}
            if len(columns) == 1:
                column = columns[0]
                for row in self.rows(predicate, arity):
                    buckets.setdefault(row[column], []).append(row)
            else:
                project = itemgetter(*columns)
                for row in self.rows(predicate, arity):
                    buckets.setdefault(project(row), []).append(row)
            cached = {projection: tuple(bucket) for projection, bucket in buckets.items()}
            self._indexes[key] = cached
        return cached

    def row_set(self, predicate: str) -> frozenset:
        """All id rows of the relation as a set — the anti-join membership
        structure for negated atoms (arity mismatches miss naturally)."""
        cached = self._row_sets.get(predicate)
        if cached is None:
            cached = frozenset(self._id_rows(predicate))
            self._row_sets[predicate] = cached
        return cached

    # ------------------------------------------------------------------
    # Constant resolution (per store, per kernel invocation)
    # ------------------------------------------------------------------
    def bounds(self, constant: Constant) -> tuple[int, int, int]:
        """``(lo, hi, eq)`` for a query constant: ``lo``/``hi`` are the
        bisection ranks of the constant in the sorted carrier and ``eq`` its
        id (``-1`` when absent).  Every comparison operator against the
        constant reduces to one integer comparison against one of the three;
        ``eq`` also serves as the probe key for positive and negated atoms
        (the ``-1`` sentinel can never match an interned row)."""
        cached = self._bounds.get(constant)
        if cached is None:
            if self.symbolic:
                identifier = self._id_of[self._canonical(constant)]
                cached = (identifier, identifier + 1, identifier)
            else:
                value = constant.value
                identifier = self._id_of.get(value, -1)
                lo = bisect_left(self.decode_values, value, 0, self.carrier_len)
                hi = lo + 1 if identifier >= 0 else lo
                cached = (lo, hi, identifier)
            self._bounds[constant] = cached
        return cached

    def decode_id(self, constant: Constant) -> int:
        """An id whose :attr:`decode_values` entry is the constant's value
        (its block representative for symbolic stores).  Absent concrete
        constants — which can still reach query heads through equality
        definitions like ``x = 5`` — are appended to a decode-only extension
        region that comparisons and probes never see."""
        cached = self._decode_ids.get(constant)
        if cached is None:
            cached = self.bounds(constant)[2]
            if cached < 0:
                cached = len(self.decode_values)
                self.decode_values.append(constant.value)
            self._decode_ids[constant] = cached
        return cached

    def const_holds(self, left: Constant, op, right: Constant) -> bool:  # noqa: ANN001
        """Decide a comparison between two query constants: numerically for
        concrete stores, by block position (the ordering ``L``) for symbolic
        ones."""
        if self.symbolic:
            return op.holds(self.bounds(left)[2], self.bounds(right)[2])
        return op.holds(left.value, right.value)

    # ------------------------------------------------------------------
    # Vectorized structures (NumPy only)
    # ------------------------------------------------------------------
    def matrix(self, predicate: str, arity: int):
        """The relation's ``arity``-ary id rows as an ``(n, arity)`` int64
        matrix, in no particular row order: interned straight from the value
        rows through the id map, with no tuple rows in between."""
        key = (predicate, arity)
        cached = self._matrices.get(key)
        if cached is None:
            np = self.numpy
            rows = self._relations.get(predicate, ())
            if not self._single_arity(predicate, arity):
                rows = [row for row in rows if len(row) == arity]
            cached = np.fromiter(
                map(self._id_of.__getitem__, chain.from_iterable(rows)),
                dtype=np.int64,
                count=len(rows) * arity,
            ).reshape(len(rows), arity)
            self._matrices[key] = cached
        return cached

    def packed_rows(self, predicate: str, arity: int):
        """The relation's ``arity``-ary id rows packed into sorted int64 keys
        (for vectorized anti-join membership)."""
        key = (predicate, arity)
        cached = self._packed.get(key)
        if cached is None:
            np = self.numpy
            matrix = self.matrix(predicate, arity)
            packed = _pack(np, self.carrier_len + 2, [matrix[:, c] for c in range(arity)])
            packed = np.sort(packed)
            cached = packed
            self._packed[key] = cached
        return cached

    def vectorized(self) -> bool:
        """Whether NumPy is on and some relation clears
        :data:`VECTOR_THRESHOLD` — the store-level gate of the id-space
        dedup of set and bag-set answers and of concrete aggregation's
        id-space fold (a store that fails it never touches NumPy)."""
        return self.numpy is not None and self._largest >= VECTOR_THRESHOLD

    def vector_candidate(self, plan: Plan) -> bool:
        """Whether the vectorized executor should even be attempted for this
        plan on this store: NumPy available and at least one joined relation
        large enough that columnar arithmetic beats the loop kernel."""
        # The threshold is read per call (tests lower it to force the
        # vectorized path); a store whose largest relation is below it
        # answers without walking the plan.
        if not self.vectorized():
            return False
        largest = 0
        for step in plan.steps:
            if isinstance(step, AtomStep):
                largest = max(largest, self.size(step.atom.predicate))
        return largest >= VECTOR_THRESHOLD


# ----------------------------------------------------------------------
# The store cache
# ----------------------------------------------------------------------
_STORE_CACHE: dict = {}
_STORE_CACHE_LIMIT = 8192


def store_for(database) -> ColumnarStore:  # noqa: ANN001
    """The columnar image of a database, built once and cached.

    Both :class:`~repro.datalog.database.Database` and
    :class:`~repro.engine.symbolic.SymbolicDatabase` hash by value, so a sweep
    reconstructing an equal ``S_L`` (e.g. in a worker re-deriving its subset
    stream) lands on the same store.  The cache is capped by ``put_bounded``,
    which evicts the oldest quarter on overflow.
    """
    store = _STORE_CACHE.get(database)
    if store is None:
        _OBS.inc("engine.store.builds")
        store = ColumnarStore(database)
        put_bounded(_STORE_CACHE, database, store, _STORE_CACHE_LIMIT)
    else:
        _OBS.inc("engine.store.hits")
    return store


def clear_store_cache() -> None:
    """Drop every cached store (and with them the column indexes, matrices,
    and packed keys they hold)."""
    _STORE_CACHE.clear()
    _OBS.reset("engine.store.")


register_cache("engine/columnar.py:_STORE_CACHE", "clear_evaluation_caches", clear_store_cache)


def store_cache_stats() -> dict[str, int]:
    return {
        "entries": len(_STORE_CACHE),
        "builds": _OBS.get("engine.store.builds"),
        "hits": _OBS.get("engine.store.hits"),
    }


# ----------------------------------------------------------------------
# Vectorized plan execution
# ----------------------------------------------------------------------
def _pack(np, base: int, columns: list):  # noqa: ANN001
    """Pack parallel id columns into one int64 key per row.

    Components range over ``[-1, base - 3]`` (ids plus the absent-constant
    sentinel), so each is shifted by one and packed base-``base`` — the
    sentinel packs to digit 0, which no interned id produces, keeping absent
    keys collision-free.  Raises :class:`_VectorFallback` when the packed
    range would overflow int64.
    """
    width = len(columns)
    if width == 0:
        raise _VectorFallback
    if base < 2 or base**width > INT64_HEADROOM:
        raise _VectorFallback
    packed = columns[0].astype(np.int64) + 1
    for column in columns[1:]:
        packed = packed * base + (column.astype(np.int64) + 1)
    return packed


def pack_rows(np, matrix, base: int):  # noqa: ANN001, ANN201
    """One int64 key per row of an id matrix whose ids lie in
    ``[0, base - 2]``; keys sort like the rows do lexicographically, so
    equal rows are equal keys and the leading columns are the high digits.
    ``None`` when the matrix has no column or ``base ** width`` exceeds
    :data:`INT64_HEADROOM`."""
    try:
        return _pack(np, base, [matrix[:, column] for column in range(matrix.shape[1])])
    except _VectorFallback:
        return None


def unpack_rows(np, keys, base: int, width: int):  # noqa: ANN001, ANN201
    """The ``(len(keys), width)`` id matrix whose rows :func:`pack_rows`
    packed into ``keys`` with this ``base``."""
    columns = []
    for _ in range(width):
        keys, digit = np.divmod(keys, base)
        columns.append(digit - 1)
    return np.stack(columns[::-1], axis=1)


def _constant_map(plan: Plan) -> dict[Variable, Constant]:
    """Variables the plan defines by equating them with a constant.

    Such a variable may hold a value outside the carrier, so it cannot live
    in the id space; both executors treat every later use of it as a use of
    the constant itself (comparison bounds, probe sentinel, decode id).
    """
    mapping: dict[Variable, Constant] = {}
    for step in plan.steps:
        if isinstance(step, BindStep):
            source = step.source
            if isinstance(source, Constant):
                mapping[step.variable] = source
            elif source in mapping:
                mapping[step.variable] = mapping[source]
    return mapping


def execute_plan_vector(plan: Plan, store: ColumnarStore, output_terms: tuple[Term, ...]):
    """Execute a plan column-at-a-time over the store's NumPy matrices.

    Returns the id rows the generated loop kernel produces (one per
    satisfying assignment, one column per output term) as an
    ``(n, len(output_terms))`` int64 matrix — row *order* may differ, which
    is fine: every consumer treats the rows as a bag — or ``None`` when the
    plan cannot be vectorized, in which case the caller runs the loop kernel
    instead.
    """
    np = store.numpy
    if np is None:
        return None
    if not plan.resolvable:
        return _no_rows(np, output_terms)
    try:
        return _run_vector(np, plan, store, output_terms)
    except _VectorFallback:
        return None


def _run_vector(np, plan: Plan, store: ColumnarStore, output_terms):  # noqa: ANN001
    constant_of = _constant_map(plan)
    columns: dict[Variable, object] = {}
    count = 1

    def apply_mask(mask) -> None:  # noqa: ANN001
        nonlocal count
        count = int(mask.sum())
        for variable in list(columns):
            columns[variable] = columns[variable][mask]

    def probe_id(argument) -> int:  # noqa: ANN001 - Constant | const-bound Variable
        constant = argument if isinstance(argument, Constant) else constant_of[argument]
        return store.bounds(constant)[2]

    for step in plan.steps:
        if count == 0:
            return _no_rows(np, output_terms)
        if isinstance(step, AtomStep):
            atom = step.atom
            matrix = store.matrix(atom.predicate, atom.arity)
            bound = set(step.bound_columns)
            selection = None
            key_columns: list[tuple[int, object]] = []
            fresh: dict[Variable, int] = {}
            for position, argument in enumerate(atom.arguments):
                if position in bound:
                    if isinstance(argument, Constant) or argument in constant_of:
                        mask = matrix[:, position] == probe_id(argument)
                        selection = mask if selection is None else selection & mask
                    else:
                        key_columns.append((position, columns[argument]))
                else:
                    first = fresh.get(argument)
                    if first is None:
                        fresh[argument] = position
                    else:
                        mask = matrix[:, position] == matrix[:, first]
                        selection = mask if selection is None else selection & mask
            sub = matrix if selection is None else matrix[selection]
            if key_columns:
                base = store.carrier_len + 2
                relation_keys = _pack(np, base, [sub[:, p] for p, _ in key_columns])
                probe_keys = _pack(np, base, [arr for _, arr in key_columns])
                order = np.argsort(relation_keys, kind="stable")
                sorted_keys = relation_keys[order]
                left = np.searchsorted(sorted_keys, probe_keys, side="left")
                right = np.searchsorted(sorted_keys, probe_keys, side="right")
                matches = right - left
                total = int(matches.sum())
                partial_idx = np.repeat(np.arange(count), matches)
                offsets = np.arange(total) - np.repeat(
                    np.cumsum(matches) - matches, matches
                )
                row_idx = order[np.repeat(left, matches) + offsets]
            else:
                relation_rows = sub.shape[0]
                partial_idx = np.repeat(np.arange(count), relation_rows)
                row_idx = np.tile(np.arange(relation_rows), count)
                total = count * relation_rows
            for variable in list(columns):
                columns[variable] = columns[variable][partial_idx]
            for variable, position in fresh.items():
                columns[variable] = sub[row_idx, position]
            count = total
        elif isinstance(step, BindStep):
            # Constant definitions live in constant_of; variable-to-variable
            # definitions alias the source column (rebinding, never mutation).
            if step.variable not in constant_of:
                columns[step.variable] = columns[step.source]
        elif isinstance(step, CompareStep):
            comparison = step.comparison
            op = comparison.op
            left, right = comparison.left, comparison.right
            left_const = isinstance(left, Constant) or left in constant_of
            right_const = isinstance(right, Constant) or right in constant_of
            if left_const and right_const:
                first = left if isinstance(left, Constant) else constant_of[left]
                second = right if isinstance(right, Constant) else constant_of[right]
                if not store.const_holds(first, op, second):
                    return _no_rows(np, output_terms)
            elif not left_const and not right_const:
                apply_mask(_VECTOR_OPS[op](columns[left], columns[right]))
            else:
                if left_const:
                    op = op.flip()
                    variable, constant = right, left
                else:
                    variable, constant = left, right
                constant = constant if isinstance(constant, Constant) else constant_of[constant]
                lo, hi, eq = store.bounds(constant)
                apply_mask(_VECTOR_CONST_OPS[op](columns[variable], lo, hi, eq))
        else:  # NegationStep
            atom = step.atom
            packed = store.packed_rows(atom.predicate, atom.arity)
            base = store.carrier_len + 2
            parts = []
            for argument in atom.arguments:
                if isinstance(argument, Constant) or argument in constant_of:
                    parts.append(np.full(count, probe_id(argument), dtype=np.int64))
                else:
                    parts.append(columns[argument])
            if packed.size:
                query_keys = _pack(np, base, parts)
                positions = np.searchsorted(packed, query_keys)
                clipped = np.minimum(positions, packed.size - 1)
                found = (positions < packed.size) & (packed[clipped] == query_keys)
                apply_mask(~found)
    if count == 0:
        return _no_rows(np, output_terms)
    output: list = []
    for term in output_terms:
        if isinstance(term, Constant) or term in constant_of:
            constant = term if isinstance(term, Constant) else constant_of[term]
            output.append(np.full(count, store.decode_id(constant), dtype=np.int64))
        else:
            column = columns.get(term)
            if column is None:
                raise EvaluationError(f"unbound term {term} during vectorized evaluation")
            output.append(column)
    if not output:
        return np.empty((count, 0), dtype=np.int64)
    return np.stack(output, axis=1)


def _no_rows(np, output_terms):  # noqa: ANN001, ANN202
    return np.empty((0, len(output_terms)), dtype=np.int64)


def _vector_ops():
    from ..datalog.atoms import ComparisonOp

    return {
        ComparisonOp.LT: lambda a, b: a < b,
        ComparisonOp.LE: lambda a, b: a <= b,
        ComparisonOp.GT: lambda a, b: a > b,
        ComparisonOp.GE: lambda a, b: a >= b,
        ComparisonOp.EQ: lambda a, b: a == b,
        ComparisonOp.NE: lambda a, b: a != b,
    }


def _vector_const_ops():
    from ..datalog.atoms import ComparisonOp

    return {
        # value(x) op c, rewritten over ranks: lo/hi are the bisection bounds
        # of c in the sorted carrier, eq its id (or the -1 sentinel).
        ComparisonOp.LT: lambda a, lo, hi, eq: a < lo,
        ComparisonOp.LE: lambda a, lo, hi, eq: a < hi,
        ComparisonOp.GT: lambda a, lo, hi, eq: a >= hi,
        ComparisonOp.GE: lambda a, lo, hi, eq: a >= lo,
        ComparisonOp.EQ: lambda a, lo, hi, eq: a == eq,
        ComparisonOp.NE: lambda a, lo, hi, eq: a != eq,
    }


_VECTOR_OPS = _vector_ops()
_VECTOR_CONST_OPS = _vector_const_ops()
