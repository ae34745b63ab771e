"""Bounded and local equivalence (Section 4 of the paper).

Two queries are *N-equivalent* when they return identical results over every
database whose carrier has at most N constants; they are *locally equivalent*
when they are τ(q, q')-equivalent, where τ is the term size of the pair
(Section 4).  Theorem 4.8 shows that bounded equivalence of α-queries is
decidable exactly when α is order-decidable, and its proof is a procedure:

1. Let ``T`` be the constants of both queries plus ``N`` fresh variables, and
   ``BASE`` the set of all atoms over ``T`` built from the queries' predicates.
2. For every subset ``S ⊆ BASE`` and every complete ordering ``L`` of ``T``,
   evaluate both queries symbolically over ``S_L``.
3. The queries agree on all instantiations of ``S`` by assignments satisfying
   ``L`` iff they produce the same group keys and, for every group, the
   ordered identity ``L → α(B) = α(B')`` is valid.

This module implements that procedure, plus the bounded-equivalence variants
for non-aggregate queries under set and bag-set semantics that the other
decision procedures build on.  There is one search loop: the catalog sweep
(:func:`sweep_equivalence`) decides every assigned pair of a sub-catalog in a
single enumeration, and :func:`bounded_equivalence` is its one-pair case —
for two queries the catalog BASE is the pair BASE.

Two search-space reductions keep the double-exponential procedure tractable:

* **Orbit-canonical subset enumeration.**  The symmetric group on the fresh
  variables acts on BASE; only one representative per orbit of subsets needs
  to be checked.  :class:`CanonicalSubsetEnumerator` generates exactly the
  canonical representatives by orderly generation (grow subsets by appending
  larger atoms, prune non-canonical prefixes), so no subset pays a
  ``|fresh|!`` canonicalization scan.
* **Ordering classes.**  When neither query contains a comparison, the
  symbolic evaluation of ``S_L`` depends only on the *blocks* of ``L`` (which
  terms are equal), not on the order of the blocks; orderings are grouped by
  their block partition and each class is evaluated once.

The per-(subset, ordering) checks are independent, so the whole search can be
sharded across processes; ``workers=N`` on either entry point routes the
sweep through :mod:`repro.parallel`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..aggregates.functions import AggregationFunction, get_function
from ..aggregates.properties import random_realization
from ..datalog.atoms import RelationalAtom
from ..datalog.database import Database
from ..datalog.queries import (
    Query,
    catalog_predicate_arities,
    term_size_of_pair,
)
from ..datalog.terms import Constant, Term, Variable
from ..domains import Domain
from ..engine.evaluator import evaluate_aggregate, evaluate_bag_set, evaluate_set
from ..engine.symbolic import SymbolicDatabase, symbolic_group_index
from ..errors import ReproError, SearchSpaceBudgetError, UnsupportedAggregateError
from ..obs import REGISTRY as _OBS
from ..obs import span as _span
from ..orderings.complete_orderings import CompleteOrdering, enumerate_complete_orderings

#: Semantics under which non-aggregate queries are compared.
SET_SEMANTICS = "set"
BAG_SET_SEMANTICS = "bag-set"

#: Below this many subsets a parallel run is not worth the process overhead.
DEFAULT_PARALLEL_THRESHOLD = 64


@dataclass
class Counterexample:
    """A witness of non-equivalence.

    ``database`` is a concrete database on which the two queries differ when
    one could be constructed; the symbolic context (subset and ordering) is
    always recorded so the situation can be reproduced.
    """

    database: Optional[Database]
    left_result: object
    right_result: object
    ordering: Optional[CompleteOrdering] = None
    symbolic_atoms: Optional[frozenset] = None

    def __str__(self) -> str:
        parts = [f"left={self.left_result!r}", f"right={self.right_result!r}"]
        if self.database is not None:
            parts.insert(0, f"D={self.database}")
        if self.ordering is not None:
            parts.append(f"L=({self.ordering})")
        return "counterexample: " + ", ".join(parts)


@dataclass
class EquivalenceReport:
    """The outcome of a bounded/local equivalence check with statistics."""

    equivalent: bool
    bound: int
    domain: Domain
    counterexample: Optional[Counterexample] = None
    subsets_examined: int = 0
    orderings_examined: int = 0
    identities_checked: int = 0
    subsets_skipped_by_symmetry: int = 0
    workers_used: int = 1
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent


@dataclass(frozen=True)
class SharedBaseContext:
    """A catalog-wide BASE recipe shared by every pair of a query catalog.

    Checking a pair over the *catalog's* constants with the *catalog's* fresh
    bound is sound: it enlarges the set of small databases examined, so an
    EQUIVALENT verdict still implies τ(pair)-equivalence (the bound dominates
    every pair's τ) and a counterexample is always a concrete witness.  The
    payoff is that every pair sharing a query also shares the (subset,
    ordering) stream, so the symbolic engine's memoized Γ(q, S_L) is reused
    across the whole catalog instead of being recomputed per pair.
    """

    constants: tuple[Constant, ...]
    bound: int

    @classmethod
    def from_catalog(cls, queries: Iterable[Query]) -> Optional["SharedBaseContext"]:
        """The shared context of a catalog, or ``None`` when no two queries of
        the catalog are comparable (fewer than two of the same shape)."""
        catalog = list(queries)
        constants: set[Constant] = set()
        for query in catalog:
            constants |= query.constants()
        bound = 0
        comparable = False
        for position, first in enumerate(catalog):
            for second in catalog[position + 1 :]:
                if first.is_aggregate == second.is_aggregate:
                    comparable = True
                    bound = max(bound, term_size_of_pair(first, second))
        if not comparable:
            return None
        return cls(tuple(sorted(constants, key=str)), bound)


def build_catalog_base(
    queries: Sequence[Query],
    fresh_variable_count: int,
    extra_constants: Iterable[Constant] = (),
) -> tuple[list[Term], list[RelationalAtom], list[Variable]]:
    """The term set ``T`` and atom universe ``BASE`` of Theorem 4.8, built
    over the predicates and constants of a whole catalog of queries.

    ``extra_constants`` widens ``T`` beyond the queries' own constants (used
    by :class:`SharedBaseContext` to align the BASE across a whole catalog).
    """
    all_constants: set[Constant] = set(extra_constants)
    taken_names: set[str] = set()
    for query in queries:
        all_constants |= query.constants()
        taken_names |= {variable.name for variable in query.variables()}
    constants = sorted(all_constants, key=lambda c: (str(c)))
    fresh: list[Variable] = []
    index = 0
    while len(fresh) < fresh_variable_count:
        candidate = Variable(f"_u{index}")
        index += 1
        if candidate.name in taken_names:
            continue
        fresh.append(candidate)
    terms: list[Term] = list(constants) + list(fresh)
    arities = catalog_predicate_arities(queries)
    base: list[RelationalAtom] = []
    for predicate in sorted(arities):
        arity = arities[predicate]
        for arguments in itertools.product(terms, repeat=arity):
            base.append(RelationalAtom(predicate, arguments))
    return terms, base, fresh


def build_base(
    first: Query,
    second: Query,
    fresh_variable_count: int,
    extra_constants: Iterable[Constant] = (),
) -> tuple[list[Term], list[RelationalAtom], list[Variable]]:
    """The term set ``T`` and atom universe ``BASE`` of Theorem 4.8 for one
    pair of queries (the two-query case of :func:`build_catalog_base`)."""
    return build_catalog_base((first, second), fresh_variable_count, extra_constants)


# ----------------------------------------------------------------------
# Subset enumeration: orbit-canonical (orderly generation)
# ----------------------------------------------------------------------
def canonical_base_order(base: Sequence[RelationalAtom]) -> list[RelationalAtom]:
    """BASE sorted by the string form of its atoms — the fixed total order the
    canonical enumeration is defined against."""
    return sorted(base, key=str)


def fresh_permutation_maps(
    base: Sequence[RelationalAtom], fresh: Sequence[Variable]
) -> list[tuple[int, ...]]:
    """The action of every non-identity permutation of the fresh variables on
    BASE, as index maps (``map[i]`` is the index of the image of atom ``i``).

    BASE is closed under renaming fresh variables to fresh variables, so every
    image index exists.
    """
    position = {atom: index for index, atom in enumerate(base)}
    identity = tuple(fresh)
    maps: list[tuple[int, ...]] = []
    for permutation in itertools.permutations(fresh):
        if permutation == identity:
            continue
        mapping = dict(zip(fresh, permutation))
        maps.append(tuple(position[atom.substitute(mapping)] for atom in base))
    return maps


class CanonicalSubsetEnumerator:
    """Generate exactly one representative per orbit of subsets of BASE under
    permutations of the fresh variables.

    A subset is *canonical* when its sorted index tuple (indices into the
    str-sorted BASE) is lexicographically minimal in its orbit — the
    representative a brute-force scan over every permutation selects.  The
    enumerator uses orderly generation: subsets grow by appending an atom
    larger than their maximum, and a prefix that is not canonical is pruned
    together with its entire subtree.  This is sound because canonicity is
    hereditary: removing the largest element of a canonical subset leaves a
    canonical subset (equivalently, every extension of a non-canonical prefix
    by larger atoms is non-canonical).

    Subsets are yielded in (size, lexicographic) order so counterexamples on
    small databases surface first.  ``skipped`` counts the non-canonical
    subsets passed over so far; after a complete iteration it is the exact
    number that were never generated.
    """

    def __init__(self, base: Sequence[RelationalAtom], fresh: Sequence[Variable]):
        self.base = canonical_base_order(base)
        self.maps = fresh_permutation_maps(self.base, fresh)
        self.skipped = 0

    def _is_canonical(self, indices: tuple[int, ...]) -> bool:
        for permutation in self.maps:
            mapped = sorted(permutation[i] for i in indices)
            for image, original in zip(mapped, indices):
                if image < original:
                    return False
                if image > original:
                    break
        return True

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        self.skipped = 0
        size = len(self.base)
        level: list[tuple[int, ...]] = [()]
        yield ()
        while level:
            next_level: list[tuple[int, ...]] = []
            for prefix in level:
                start = prefix[-1] + 1 if prefix else 0
                for atom_index in range(start, size):
                    candidate = prefix + (atom_index,)
                    if self._is_canonical(candidate):
                        next_level.append(candidate)
                        yield candidate
                    else:
                        # The candidate and every extension of it by larger
                        # atoms are non-canonical (heredity): count the whole
                        # pruned subtree.
                        self.skipped += 1 << (size - 1 - atom_index)
            level = next_level

    def subsets(self) -> Iterator[frozenset[RelationalAtom]]:
        base = self.base
        for indices in self:
            yield frozenset(base[i] for i in indices)


# ----------------------------------------------------------------------
# Run preparation shared by the serial path and the parallel workers
# ----------------------------------------------------------------------
#: An ordering class: a representative ordering plus every (position,
#: ordering) member sharing its block partition.
OrderingClass = tuple[CompleteOrdering, tuple[tuple[int, CompleteOrdering], ...]]


def _group_orderings(
    orderings: Sequence[CompleteOrdering], comparison_free: bool
) -> tuple[OrderingClass, ...]:
    """Group orderings by their block partition.

    For comparison-free query pairs, symbolic evaluation over ``S_L`` depends
    only on which terms ``L`` equates (constants canonicalize to themselves
    and block representatives ignore block order), so Γ and the groups are
    computed once per class; the per-ordering work shrinks to the ordered
    identities.  With comparisons present every class is a singleton.
    """
    if not comparison_free:
        return tuple(
            (ordering, ((position, ordering),))
            for position, ordering in enumerate(orderings)
        )
    classes: dict[frozenset, list[tuple[int, CompleteOrdering]]] = {}
    order: list[frozenset] = []
    for position, ordering in enumerate(orderings):
        key = frozenset(ordering.blocks)
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append((position, ordering))
    return tuple((classes[key][0][1], tuple(classes[key])) for key in order)


@dataclass
class CheckStats:
    """Statistics accumulated by the subset checks (picklable, mergeable)."""

    subsets_examined: int = 0
    orderings_examined: int = 0
    identities_checked: int = 0

    def merge_into(self, report: EquivalenceReport) -> None:
        report.subsets_examined += self.subsets_examined
        report.orderings_examined += self.orderings_examined
        report.identities_checked += self.identities_checked

    def merge(self, other: "CheckStats") -> None:
        self.subsets_examined += other.subsets_examined
        self.orderings_examined += other.orderings_examined
        self.identities_checked += other.identities_checked


def _record_search_counters(
    subsets_examined: int,
    orderings_examined: int,
    identities_checked: int,
    subsets_skipped: int,
) -> None:
    """Fold one finished search's effort into the metrics registry.

    Called exactly once per completed enumeration, from whichever process ran
    it, with totals the search already accumulated (its ``CheckStats``) —
    never per subset, so the hot loops stay uninstrumented and a parallel
    run's registry totals equal the serial run's whenever the merged reports
    do.  A search that completes inside a pool worker records into the
    worker's registry; the delta rides home on the task outcome and lands
    under the parent's ``worker.`` scope.
    """
    if subsets_examined:
        _OBS.inc("sweep.subsets.examined", subsets_examined)
    if orderings_examined:
        _OBS.inc("sweep.orderings.examined", orderings_examined)
    if identities_checked:
        _OBS.inc("sweep.identities.checked", identities_checked)
    if subsets_skipped:
        _OBS.inc("sweep.subsets.skipped", subsets_skipped)


# ----------------------------------------------------------------------
# Single-sweep catalog checks
# ----------------------------------------------------------------------
#: Subsets processed by the parent before forking a sweep pool: they settle
#: quick counterexamples without paying for the pool, and they pre-warm the
#: shared group-index cache (fork inherits it copy-on-write), so the
#: workers stop re-deriving the heavily shared merged-partition signatures.
#: Under the compiled engine the prefix also populates the module-level
#: kernel and columnar-store caches (:mod:`repro.engine.compile` /
#: :mod:`repro.engine.columnar`), so forked workers start with every plan of
#: the sweep already code-generated instead of compiling per process.
DEFAULT_SWEEP_WARM_PREFIX = 64


@dataclass
class SweepRunSetup:
    """Everything a sweep-level (subset, ordering) check needs, derivable
    deterministically from (queries, bound, domain, semantics,
    extra_constants) — workers rebuild it locally instead of shipping it
    through pickles."""

    queries: dict[str, Query]
    function: Optional[AggregationFunction]
    semantics: str
    terms: list[Term]
    base: list[RelationalAtom]  # canonical (str-sorted) order
    fresh: list[Variable]
    orderings: list[CompleteOrdering]
    ordering_classes: tuple[OrderingClass, ...]


def _catalog_is_comparison_free(queries: Iterable[Query]) -> bool:
    return not any(
        disjunct.comparisons for query in queries for disjunct in query.disjuncts
    )


def prepare_sweep_run(
    queries: "dict[str, Query] | Sequence[tuple[str, Query]]",
    bound: int,
    domain: Domain,
    semantics: str,
    extra_constants: Iterable[Constant] = (),
) -> SweepRunSetup:
    """Validate the catalog and build the shared run state (terms, BASE in
    canonical order, satisfiable orderings grouped into classes) for a
    single-sweep check of every assigned pair."""
    catalog = dict(queries)
    members = list(catalog.values())
    function = _resolve_catalog_function(members, domain)
    terms, base, fresh = build_catalog_base(members, bound, extra_constants)
    orderings = [
        ordering
        for ordering in enumerate_complete_orderings(terms, domain)
        if ordering.is_satisfiable()
    ]
    return SweepRunSetup(
        queries=catalog,
        function=function,
        semantics=semantics,
        terms=terms,
        base=canonical_base_order(base),
        fresh=fresh,
        orderings=orderings,
        ordering_classes=_group_orderings(orderings, _catalog_is_comparison_free(members)),
    )


def check_subset_sweep(
    setup: SweepRunSetup,
    subset: frozenset[RelationalAtom],
    pairs: Sequence[tuple[str, str]],
    stats,
    pair_seeds: "dict[tuple[str, str], int] | None" = None,
) -> list[tuple[tuple[str, str], int, Counterexample]]:
    """Check every still-open catalog pair against one subset of BASE.

    The sub-catalog is evaluated *once* per ordering class — one
    :func:`repro.engine.symbolic.symbolic_group_index` per query, keyed by
    restricted relation signatures — and the pairs are compared in-loop on
    those indexes, so the Γ work is O(catalog) instead of O(pairs).
    Aggregate and non-aggregate pairs share the form: a non-aggregate index
    maps each answer to ``Counter({(): multiplicity})``, so set semantics
    compares the keys and bag-set semantics the whole index.  Returns
    ``(pair, ordering_position, counterexample)`` settlements for the pairs
    that fail on this subset; pairs absent from the result remain open.

    Statistics count the *shared* work actually performed (one evaluation per
    (subset, ordering) regardless of how many pairs consume it), so sweep
    reports are not comparable count-for-count with per-pair reports.
    """
    function, semantics = setup.function, setup.semantics
    seeds = pair_seeds or {}
    settled: list[tuple[tuple[str, str], int, Counterexample]] = []
    open_pairs = list(pairs)
    for representative, members in setup.ordering_classes:
        if not open_pairs:
            break
        stats.orderings_examined += len(members)
        database = SymbolicDatabase(subset, representative)
        # One group index per *query* per ordering class — the in-loop pair
        # comparisons below reuse them, so the Γ-derived work stays
        # O(catalog) even when the group carries comparisons and the
        # signature-keyed cache (and its interning, which turns the
        # agreement check into an identity check) cannot apply.
        indexes = {
            name: symbolic_group_index(setup.queries[name], database)
            for name in {name for pair in open_pairs for name in pair}
        }
        still_open: list[tuple[str, str]] = []
        for pair in open_pairs:
            first, second = setup.queries[pair[0]], setup.queries[pair[1]]
            left_index, right_index = indexes[pair[0]], indexes[pair[1]]
            if left_index is right_index or left_index == right_index:
                # Identical bags in every group: α(B) = α(B) holds under any
                # ordering of the class, no identity checks needed.
                still_open.append(pair)
                continue
            if function is None:
                if semantics == SET_SEMANTICS and left_index.keys() == right_index.keys():
                    still_open.append(pair)
                else:
                    witness = _non_aggregate_witness(first, second, database, semantics)
                    settled.append((pair, members[0][0], witness))
                continue
            if left_index.keys() != right_index.keys():
                concrete = database.instantiate()
                settled.append(
                    (
                        pair,
                        members[0][0],
                        Counterexample(
                            database=concrete,
                            left_result=evaluate_aggregate(first, concrete, function),
                            right_result=evaluate_aggregate(second, concrete, function),
                            ordering=database.ordering,
                            symbolic_atoms=database.atoms,
                        ),
                    )
                )
                continue
            residual = [
                (list(left_index[group_key].elements()), list(right_index[group_key].elements()))
                for group_key in left_index
                if left_index[group_key] != right_index[group_key]
            ]
            hit: Optional[tuple[int, Counterexample]] = None
            for position, ordering in members:
                for left_bag, right_bag in residual:
                    stats.identities_checked += 1
                    if not function.decide_ordered_identity(ordering, left_bag, right_bag):
                        witness_database = SymbolicDatabase(subset, ordering)
                        hit = (
                            position,
                            _witness_for_identity_failure(
                                first,
                                second,
                                witness_database,
                                function,
                                seed=seeds.get(pair, 0),
                            ),
                        )
                        break
                if hit is not None:
                    break
            if hit is not None:
                settled.append((pair, hit[0], hit[1]))
            else:
                still_open.append(pair)
        open_pairs = still_open
    return settled


def _executor_wants_warm_prefix(executor) -> bool:
    """Whether the sweep should run its serial warm prefix before handing the
    stream to ``executor``: always for the default per-call pool (``None``),
    and for session executors exactly while their lazy fork is still ahead."""
    if executor is None:
        return True
    probe = getattr(executor, "wants_warm_prefix", None)
    return bool(probe()) if callable(probe) else False


def sweep_equivalence(
    queries: "dict[str, Query] | Sequence[tuple[str, Query]]",
    pairs: Sequence[tuple[str, str]],
    bound: int,
    domain: Domain = Domain.RATIONALS,
    semantics: str = SET_SEMANTICS,
    max_subsets: int = 2_000_000,
    *,
    workers: Optional[int] = None,
    executor=None,
    seed: Optional[int] = None,
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
    warm_prefix: int = DEFAULT_SWEEP_WARM_PREFIX,
    extra_constants: Iterable[Constant] = (),
) -> dict[tuple[str, str], EquivalenceReport]:
    """Decide ``first ≡_N second`` for every assigned pair of a sub-catalog
    with **one** subset/ordering enumeration.

    All queries must share one shape (and, for aggregates, one
    order-decidable function); ``bound`` must dominate τ(q, q') for every
    assigned pair, so the per-pair verdict coincides with the pair's own
    bounded check (N-equivalence for N ≥ τ is equivalence, Section 4).  Each
    pair settles at its first failing (subset, ordering) — the same position
    :func:`bounded_equivalence` finds when the BASEs coincide — and the sweep
    stops as soon as every pair is settled.

    ``seed`` is the catalog-level seed; per-pair witness searches use the
    same derived seeds as the pairwise matrix, so witnesses agree with the
    pair path wherever the enumerations align.  ``workers > 1`` shards the
    subset stream across processes after a serial *warm prefix* that
    pre-warms the shared caches the forked workers inherit; each shard ships
    ``(start, count)`` ranges of the canonical enumeration, which the worker
    re-enumerates locally.

    .. deprecated:: callers holding a catalog across calls should reach this
       through :meth:`repro.session.Workspace.equivalences`, which plans the
       sweeps once per delta, keeps the pool alive (``executor=`` a
       :class:`~repro.parallel.executor.PersistentProcessExecutor`), and
       never re-decides a settled pair.
    """
    catalog = dict(queries)
    pair_list = [tuple(pair) for pair in pairs]
    for name_a, name_b in pair_list:
        if name_a not in catalog or name_b not in catalog:
            raise ReproError(f"sweep pair ({name_a!r}, {name_b!r}) names an unknown query")
    _check_searchable(
        list(catalog.values()), bound, domain, semantics, max_subsets, extra_constants,
        space="catalog-sweep",
        advice="reduce the bound, shrink the sweep group, or raise max_subsets",
    )

    from ..parallel.tasks import derive_pair_seed

    reports = _sweep(
        catalog,
        {pair: derive_pair_seed(seed, pair[0], pair[1]) or 0 for pair in pair_list},
        bound, domain, semantics,
        workers=workers,
        executor=executor,
        parallel_threshold=parallel_threshold,
        warm_prefix=warm_prefix,
        extra_constants=extra_constants,
    )
    for report in reports.values():
        report.notes.append(
            f"single-sweep over {len(catalog)} queries / {len(pair_list)} pairs"
        )
    return reports


def _check_searchable(
    queries: Sequence[Query],
    bound: int,
    domain: Domain,
    semantics: str,
    max_subsets: int,
    extra_constants: Iterable[Constant],
    *,
    space: str,
    advice: str,
) -> None:
    """Reject a search that cannot run — an unknown semantics, incomparable
    queries, or a subset space beyond ``max_subsets`` — before anything is
    enumerated.  The budget is checked arithmetically, BEFORE enumerating
    orderings: Fubini(|T|) ordering enumeration on an over-budget instance
    would burn minutes just to reach the guard."""
    if semantics not in (SET_SEMANTICS, BAG_SET_SEMANTICS):
        raise ReproError(f"unknown semantics {semantics!r}")
    _resolve_catalog_function(queries, domain)
    base_size = _catalog_base_size(queries, bound, extra_constants)
    subset_count = 2**base_size
    if subset_count > max_subsets:
        raise SearchSpaceBudgetError(
            f"the {space} search space has {subset_count} subsets of BASE "
            f"(|BASE| = {base_size}), exceeding max_subsets={max_subsets}; {advice}"
        )


def _sweep(
    catalog: dict[str, Query],
    pair_seeds: dict[tuple[str, str], int],
    bound: int,
    domain: Domain,
    semantics: str,
    *,
    workers: Optional[int],
    executor,
    parallel_threshold: int,
    warm_prefix: int,
    extra_constants: Iterable[Constant],
) -> dict[tuple[str, str], EquivalenceReport]:
    """The search loop behind :func:`sweep_equivalence` and
    :func:`bounded_equivalence`: one canonical enumeration of the catalog
    BASE, every still-open pair checked against each subset, serially or
    sharded across a pool.  ``pair_seeds`` names the pairs to decide and the
    seed of each pair's witness search."""
    extra_constants = tuple(extra_constants)
    setup = prepare_sweep_run(catalog, bound, domain, semantics, extra_constants)
    reports = {
        pair: EquivalenceReport(equivalent=True, bound=bound, domain=domain)
        for pair in pair_seeds
    }

    def settle(pair, counterexample) -> None:
        report = reports[pair]
        report.equivalent = False
        report.counterexample = counterexample

    if not setup.orderings:
        # Degenerate corner: no terms at all (no constants and N = 0).  The
        # only database to compare over is the empty one.
        empty = Database(())
        for pair in pair_seeds:
            counterexample = _compare_concrete(
                catalog[pair[0]], catalog[pair[1]], empty, setup.function, semantics
            )
            if counterexample is not None:
                settle(pair, counterexample)
        return reports

    stats = CheckStats()
    enumerator = CanonicalSubsetEnumerator(setup.base, setup.fresh)
    open_pairs: list[tuple[str, str]] = list(pair_seeds)

    if workers is None:
        from ..parallel.executor import default_workers, in_worker

        workers = 1 if in_worker() else default_workers()

    def check_serial(subsets: Iterable[tuple[int, ...]]) -> None:
        if not open_pairs:
            return
        for indices in subsets:
            stats.subsets_examined += 1
            hits = check_subset_sweep(
                setup, frozenset(base[i] for i in indices), open_pairs, stats, pair_seeds
            )
            for pair, _ordering_position, counterexample in hits:
                settle(pair, counterexample)
                open_pairs.remove(pair)
            if not open_pairs:
                # Stop before pulling another subset: advancing a lazy
                # enumerator would count skips past the work actually done.
                return

    base = setup.base
    with _span(
        "sweep.enumerate",
        queries=len(catalog),
        pairs=len(pair_seeds),
        bound=bound,
        base=len(base),
    ) as sweep_span:
        if workers > 1 or executor is not None:
            subset_list = list(enumerator)
            if executor is not None or len(subset_list) >= parallel_threshold:
                # Warm prefix: the parent settles the small subsets itself
                # (their merged-partition signatures are the most shared
                # entries of the group-index cache) before forking, so
                # every worker inherits a warm cache copy-on-write instead of
                # re-deriving it.  The same prefix compiles the sweep's plan
                # kernels, which forked workers likewise inherit for free.
                # Session executors whose pool forks lazily on first use (see
                # :meth:`repro.parallel.executor.PersistentProcessExecutor.wants_warm_prefix`)
                # opt in for the run that performs the fork; an executor whose
                # pool already exists skips the prefix — its workers carry
                # their own accumulated caches.
                prefix = (
                    subset_list[: max(0, warm_prefix)]
                    if _executor_wants_warm_prefix(executor)
                    else []
                )
                check_serial(prefix)
                if open_pairs and len(prefix) < len(subset_list):
                    from ..parallel.tasks import parallel_sweep_search

                    parallel_sweep_search(
                        setup=setup,
                        pair_seeds={pair: pair_seeds[pair] for pair in open_pairs},
                        bound=bound,
                        domain=domain,
                        semantics=semantics,
                        extra_constants=extra_constants,
                        start=len(prefix),
                        count=len(subset_list) - len(prefix),
                        reports=reports,
                        stats=stats,
                        workers=workers,
                        executor=executor,
                    )
            else:
                check_serial(subset_list)
        else:
            check_serial(enumerator)
        sweep_span.note(
            subsets=stats.subsets_examined, skipped=enumerator.skipped
        )

    # One registry record per sweep: ``stats`` already holds the merged
    # totals (parent prefix + serial tail + every worker's shipped stats),
    # while each *report* below receives a copy of the same group totals —
    # recording from the reports would multiply the group's effort by its
    # pair count.
    _record_search_counters(
        stats.subsets_examined,
        stats.orderings_examined,
        stats.identities_checked,
        enumerator.skipped,
    )

    for report in reports.values():
        stats.merge_into(report)
        report.subsets_skipped_by_symmetry = enumerator.skipped
    return reports


# ----------------------------------------------------------------------
# The decision procedure
# ----------------------------------------------------------------------
def bounded_equivalence(
    first: Query,
    second: Query,
    bound: int,
    domain: Domain = Domain.RATIONALS,
    semantics: str = SET_SEMANTICS,
    max_subsets: int = 2_000_000,
    *,
    workers: Optional[int] = None,
    executor=None,
    seed: int = 0,
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
    extra_constants: Iterable[Constant] = (),
) -> EquivalenceReport:
    """Decide whether ``first ≡_N second`` for ``N = bound`` (Theorem 4.8).

    For aggregate queries both must carry the same aggregation function, which
    must be order-decidable over the domain.  For non-aggregate queries the
    ``semantics`` parameter selects set or bag-set semantics.

    The check is the one-pair case of :func:`sweep_equivalence` — for two
    queries the catalog BASE is the pair BASE — over the orbit-canonical
    subsets.  ``workers > 1`` shards the subsets across a process pool via
    :mod:`repro.parallel`; ``seed`` seeds the fallback witness search
    directly, so it is reproducible regardless of worker scheduling.
    """
    pair = ("first", "second")
    _check_searchable(
        (first, second), bound, domain, semantics, max_subsets, extra_constants,
        space="bounded-equivalence",
        advice="reduce the bound or raise max_subsets explicitly",
    )
    reports = _sweep(
        {"first": first, "second": second}, {pair: seed}, bound, domain, semantics,
        workers=workers,
        executor=executor,
        parallel_threshold=parallel_threshold,
        warm_prefix=DEFAULT_SWEEP_WARM_PREFIX,
        extra_constants=extra_constants,
    )
    return reports[pair]


def local_equivalence(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    semantics: str = SET_SEMANTICS,
    max_subsets: int = 2_000_000,
    *,
    context: Optional[SharedBaseContext] = None,
    workers: Optional[int] = None,
    executor=None,
    seed: int = 0,
) -> EquivalenceReport:
    """Local equivalence: bounded equivalence with N = τ(q, q') (Section 4).

    With a :class:`SharedBaseContext` the catalog-wide bound and constants are
    used instead (still sound, since the shared bound dominates τ), unless the
    widened BASE would blow the ``max_subsets`` budget, in which case the
    pair-local BASE is used.  Pairs carrying comparisons always use the
    pair-local BASE: the widening exists to share Γ(q, S_L) across the
    catalog, and the shared caches only apply to comparison-free queries — for
    anything else a larger BASE is pure cost.
    """
    bound = term_size_of_pair(first, second)
    extra_constants: tuple[Constant, ...] = ()
    if (
        context is not None
        and context.bound >= bound
        and _catalog_is_comparison_free((first, second))
    ):
        widened_size = _catalog_base_size((first, second), context.bound, context.constants)
        if 2**widened_size <= max_subsets:
            bound = context.bound
            extra_constants = context.constants
    return bounded_equivalence(
        first,
        second,
        bound,
        domain=domain,
        semantics=semantics,
        max_subsets=max_subsets,
        workers=workers,
        executor=executor,
        seed=seed,
        extra_constants=extra_constants,
    )


def _catalog_base_size(
    queries: Sequence[Query], bound: int, extra_constants: Iterable[Constant]
) -> int:
    """|BASE| for the catalog at the given bound, computed arithmetically (no
    atom construction) — used to budget-check a shared context cheaply."""
    constants: set[Constant] = set(extra_constants)
    for query in queries:
        constants |= query.constants()
    term_count = len(constants) + bound
    arities = catalog_predicate_arities(queries)
    return sum(term_count**arity for arity in arities.values())


def _resolve_catalog_function(
    queries: Sequence[Query], domain: Domain
) -> Optional[AggregationFunction]:
    """Validate that the queries are mutually comparable (all aggregate with
    one shared, order-decidable function, or all non-aggregate) and return
    the shared function (``None`` for non-aggregate catalogs)."""
    if not queries:
        raise ReproError("cannot compare an empty catalog of queries")
    if len({query.is_aggregate for query in queries}) != 1:
        raise UnsupportedAggregateError(
            "cannot compare an aggregate query with a non-aggregate query"
        )
    if not queries[0].is_aggregate:
        return None
    names = {query.aggregate.function for query in queries}
    if len(names) != 1:
        raise UnsupportedAggregateError(
            f"the queries use different aggregation functions: "
            f"{' vs '.join(sorted(names))}"
        )
    function = get_function(queries[0].aggregate.function)
    if not function.is_order_decidable_over(domain):
        raise UnsupportedAggregateError(
            f"{function.name} is not order-decidable over {domain.value}; "
            "bounded equivalence is undecidable for this class (Theorem 4.8)"
        )
    return function


def _compare_concrete(
    first: Query,
    second: Query,
    database: Database,
    function: Optional[AggregationFunction],
    semantics: str,
) -> Optional[Counterexample]:
    """Direct comparison over a single concrete database (degenerate cases)."""
    if function is not None:
        left_result = evaluate_aggregate(first, database, function)
        right_result = evaluate_aggregate(second, database, function)
    elif semantics == BAG_SET_SEMANTICS:
        left_result = evaluate_bag_set(first, database)
        right_result = evaluate_bag_set(second, database)
    else:
        left_result = evaluate_set(first, database)
        right_result = evaluate_set(second, database)
    if left_result == right_result:
        return None
    return Counterexample(database=database, left_result=left_result, right_result=right_result)


def _non_aggregate_witness(
    first: Query, second: Query, database: SymbolicDatabase, semantics: str
) -> Counterexample:
    """The δ(S) witness of two non-aggregate queries whose symbolic answers
    differ over ``database``: distinct blocks get distinct values under δ, so
    the concrete answers differ exactly as the symbolic ones do."""
    concrete = database.instantiate()
    evaluate = evaluate_bag_set if semantics == BAG_SET_SEMANTICS else evaluate_set
    return Counterexample(
        database=concrete,
        left_result=evaluate(first, concrete),
        right_result=evaluate(second, concrete),
        ordering=database.ordering,
        symbolic_atoms=database.atoms,
    )


def _witness_for_identity_failure(
    first: Query,
    second: Query,
    database: SymbolicDatabase,
    function: AggregationFunction,
    attempts: int = 25,
    seed: int = 0,
) -> Counterexample:
    """Search for a concrete instantiation on which the two queries visibly
    disagree.  The canonical instantiation is tried first, followed by random
    realizations of the ordering seeded by ``seed`` (so parallel runs remain
    reproducible regardless of worker scheduling); for non-shiftable functions
    a particular instantiation may coincidentally agree, in which case only
    the symbolic context is reported."""
    import random

    candidates = [database.ordering.instantiate()]
    rng = random.Random(seed)
    for _ in range(attempts):
        candidates.append(random_realization(database.ordering, rng))
    for assignment in candidates:
        facts = []
        for atom in database.atoms:
            values = tuple(
                argument.value if isinstance(argument, Constant) else assignment[argument]
                for argument in atom.arguments
            )
            facts.append((atom.predicate, values))
        concrete = Database(facts)
        left_result = evaluate_aggregate(first, concrete, function)
        right_result = evaluate_aggregate(second, concrete, function)
        if left_result != right_result:
            return Counterexample(
                database=concrete,
                left_result=left_result,
                right_result=right_result,
                ordering=database.ordering,
                symbolic_atoms=database.atoms,
            )
    return Counterexample(
        database=None,
        left_result="(symbolic disagreement)",
        right_result="(symbolic disagreement)",
        ordering=database.ordering,
        symbolic_atoms=database.atoms,
    )
