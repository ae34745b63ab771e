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

This module implements that procedure, plus its non-aggregate case, which
compares answer sets and which the other decision procedures build on
(bag-set semantics is not a mode of the search: it reduces to the
``count``-queries, :mod:`repro.core.bagset`).  There is one search loop:
the catalog sweep (:func:`sweep_equivalence`) decides every assigned pair of
a sub-catalog in a single enumeration, and :func:`bounded_equivalence` is
its one-pair case — for two queries the catalog BASE is the pair BASE.

The sweep works per *isomorphism class*, not per query.  Queries with equal
:attr:`~repro.datalog.queries.Query.evaluation_key` differ only in variable
names, literal and disjunct order, duplicate literals and comparison
orientation, so they have the same group index over every S_L (for
conjunctive queries under bag-set semantics equivalence *is* isomorphism:
Chaudhuri & Vardi, PODS 1993).  A pair inside one class is EQUIVALENT
without search; the other pairs are compared once per class pair.

Searching and witness building are separate steps.  The search (serial, or
sharded across processes) only locates each class pair's first failing
(subset, ordering) — a :class:`Failure`; a concrete witness is a
by-product of that position.  Isomorphic queries agree on every database,
so after the search one witness is realized per class pair, failure place
and (when an ordered identity failed) witness seed, and every member pair
receives its own copy of it.

Two more search-space reductions keep the double-exponential procedure
tractable:

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
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

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
from ..engine.evaluator import evaluate_aggregate, evaluate_set
from ..engine.symbolic import SymbolicDatabase, symbolic_group_index
from ..errors import ReproError, SearchSpaceBudgetError, UnsupportedAggregateError
from ..obs import REGISTRY as _OBS
from ..obs import span as _span
from ..orderings.complete_orderings import CompleteOrdering, enumerate_complete_orderings

if TYPE_CHECKING:
    from ..parallel.executor import Executor

#: The default budget of a search: at most this many subsets of BASE, the
#: ``2 ** base_size(...)`` every search space is checked against.
DEFAULT_MAX_SUBSETS = 2_000_000


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


def build_catalog_base(
    queries: Sequence[Query],
    fresh_variable_count: int,
    extra_constants: Iterable[Constant] = (),
) -> tuple[list[Term], list[RelationalAtom], list[Variable]]:
    """The term set ``T`` and atom universe ``BASE`` of Theorem 4.8, built
    over the predicates and constants of a whole catalog of queries.

    ``extra_constants`` widens ``T`` beyond the queries' own constants.
    """
    all_constants: set[Constant] = set(extra_constants)
    taken_names: set[str] = set()
    for query in queries:
        all_constants |= query.vocabulary[1]
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
#: The note on the report of a sweep pair settled without search.
ISOMORPHIC_NOTE = "settled by isomorphism (equal evaluation keys)"

#: Subsets processed by the parent before forking a sweep pool: they settle
#: quick counterexamples without paying for the pool — a search of at most
#: this many subsets never forks at all — and they pre-warm the shared
#: group-index cache (fork inherits it copy-on-write), so the workers stop
#: re-deriving the heavily shared merged-partition signatures.
#: Under the compiled engine the prefix also populates the module-level
#: kernel and columnar-store caches (:mod:`repro.engine.compile` /
#: :mod:`repro.engine.columnar`), so forked workers start with every plan of
#: the sweep already code-generated instead of compiling per process.
DEFAULT_SWEEP_WARM_PREFIX = 64


@dataclass
class SweepRunSetup:
    """Everything a sweep-level (subset, ordering) check needs, derivable
    deterministically from (queries, bound, domain) — workers rebuild it
    locally instead of shipping it through pickles."""

    queries: dict[str, Query]
    function: Optional[AggregationFunction]
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
) -> SweepRunSetup:
    """Validate the catalog and build the shared run state (terms, BASE in
    canonical order, satisfiable orderings grouped into classes) for a
    single-sweep check of every assigned pair."""
    catalog = dict(queries)
    members = list(catalog.values())
    function = _resolve_catalog_function(members, domain)
    terms, base, fresh = build_catalog_base(members, bound)
    orderings = [
        ordering
        for ordering in enumerate_complete_orderings(terms, domain)
        if ordering.is_satisfiable()
    ]
    return SweepRunSetup(
        queries=catalog,
        function=function,
        terms=terms,
        base=canonical_base_order(base),
        fresh=fresh,
        orderings=orderings,
        ordering_classes=_group_orderings(orderings, _catalog_is_comparison_free(members)),
    )


class Failure(NamedTuple):
    """Where a sweep pair first fails: the subset (indices into the canonical
    BASE), the position of the ordering in ``SweepRunSetup.orderings``, and
    whether an ordered identity failed (rather than the answers or group
    keys differing before any identity was read)."""

    subset: tuple[int, ...]
    ordering: int
    identity_failed: bool


def check_subset_sweep(
    setup: SweepRunSetup,
    subset: frozenset[RelationalAtom],
    pairs: Sequence[tuple[str, str]],
    stats,
) -> list[tuple[tuple[str, str], int, bool]]:
    """Check every still-open pair of ``setup.queries`` against one subset of
    BASE.

    The sub-catalog is evaluated *once* per ordering class — one
    :func:`repro.engine.symbolic.symbolic_group_index` per query the open
    pairs name — and each pair's first failing ordering is decided on the
    two indexes.  The sweep passes one pair per pair of isomorphism classes,
    named by their representatives, since isomorphic queries have the same
    index over every S_L.  Aggregate and non-aggregate pairs share the form:
    a non-aggregate index maps each answer to ``Counter({(): multiplicity})``,
    and a non-aggregate pair compares only the keys (its answer sets).
    Returns ``(pair, ordering_position, identity_failed)`` for the
    pairs that fail on this subset; pairs absent from the result remain
    open.  No witness is built here: the caller realizes one per failing
    pair once the search is over.

    Statistics count the *shared* work actually performed (one evaluation per
    (subset, ordering) regardless of how many pairs consume it, one identity
    check per pair), so sweep reports are not comparable count-for-count
    with per-pair reports.
    """
    function = setup.function
    settled: list[tuple[tuple[str, str], int, bool]] = []
    open_pairs = list(pairs)
    for representative, members in setup.ordering_classes:
        if not open_pairs:
            break
        stats.orderings_examined += len(members)
        database = SymbolicDatabase(subset, representative)
        # One group index per query per ordering class — comparison-carrying
        # queries included, where the signature-keyed cache (and its
        # interning, which turns the agreement check into an identity check)
        # cannot apply.
        indexes = {
            name: symbolic_group_index(setup.queries[name], database)
            for name in {name for pair in open_pairs for name in pair}
        }
        still_open: list[tuple[str, str]] = []
        for pair in open_pairs:
            failure = _first_failure(
                indexes[pair[0]], indexes[pair[1]], members, function, stats
            )
            if failure is None:
                still_open.append(pair)
            else:
                settled.append((pair, *failure))
        open_pairs = still_open
    return settled


def _first_failure(
    left_index: dict,
    right_index: dict,
    members: tuple[tuple[int, CompleteOrdering], ...],
    function: Optional[AggregationFunction],
    stats,
) -> Optional[tuple[int, bool]]:
    """The first ordering of an ordering class on which two group indexes
    give different results: ``None`` when they agree on every member,
    ``(position, False)`` when they differ before any ordered identity is
    read (different answers, or different group keys), and
    ``(position, True)`` for the first ordering whose identity fails.  A
    ``None`` function (non-aggregate queries) compares the keys alone."""
    if left_index is right_index or left_index == right_index:
        # Identical bags in every group: α(B) = α(B) holds under any
        # ordering of the class, no identity checks needed.
        return None
    if left_index.keys() != right_index.keys():
        return members[0][0], False
    if function is None:
        return None
    residual = [
        (list(left_index[group_key].elements()), list(right_index[group_key].elements()))
        for group_key in left_index
        if left_index[group_key] != right_index[group_key]
    ]
    for position, ordering in members:
        for left_bag, right_bag in residual:
            stats.identities_checked += 1
            if not function.decide_ordered_identity(ordering, left_bag, right_bag):
                return position, True
    return None


def sweep_equivalence(
    queries: "dict[str, Query] | Sequence[tuple[str, Query]]",
    pairs: Sequence[tuple[str, str]],
    bound: int,
    domain: Domain = Domain.RATIONALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    *,
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: Optional[int] = None,
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

    A pair whose two queries have equal
    :attr:`~repro.datalog.queries.Query.evaluation_key` is isomorphic, so its
    group indexes are equal over every S_L: it is reported EQUIVALENT at
    ``bound`` without search (counted under ``sweep.pairs.isomorphic`` and
    noted ``settled by isomorphism (equal evaluation keys)``), exactly the
    verdict and witness (none) the search would give.  A call whose pairs
    all lie inside isomorphism classes prepares no run at all.  The other
    pairs are searched as pairs of isomorphism classes, one group index per
    class (:func:`check_subset_sweep`); a failing class pair's witness is
    then realized once at its first failure (once per member seed when an
    ordered identity failed and the member pairs' witness seeds differ) and
    copied to each member pair — the database, results, ordering and atoms
    the member pair would realize itself, since isomorphic queries agree on
    every database.
    :func:`bounded_equivalence` and :func:`local_equivalence` always search,
    so they stay the per-pair reference the sweep is tested against.

    ``seed`` is the catalog-level seed; per-pair witness searches use the
    same derived seeds as the pairwise matrix, so witnesses agree with the
    pair path wherever the enumerations align.  ``workers > 1`` shards the
    subset stream across a pool the call owns, after a serial *warm prefix*
    that pre-warms the shared caches the forked workers inherit; each shard
    ships ``(start, count)`` ranges of the canonical enumeration, which the
    worker re-enumerates locally and reports only failure positions.  An
    explicit ``executor`` is used instead and left open; it runs the warm
    prefix only while its pool has not forked yet.

    .. deprecated:: callers holding a catalog across calls should reach this
       through :meth:`repro.session.Workspace.equivalences`, which plans the
       sweeps once per delta, keeps one
       :class:`~repro.parallel.executor.ProcessExecutor` alive across calls,
       and never re-decides a settled pair.
    """
    catalog = dict(queries)
    pair_list = [tuple(pair) for pair in pairs]
    for name_a, name_b in pair_list:
        if name_a not in catalog or name_b not in catalog:
            raise ReproError(f"sweep pair ({name_a!r}, {name_b!r}) names an unknown query")
    _check_searchable(
        list(catalog.values()), bound, domain, max_subsets,
        space="catalog-sweep",
        advice="reduce the bound, shrink the sweep group, or raise max_subsets",
    )

    from ..parallel.executor import resolve_executor
    from ..parallel.tasks import derive_pair_seed

    # Equal evaluation keys mean isomorphic queries: equal group indexes over
    # every S_L, so the search could only report EQUIVALENT.  Such pairs
    # never enter the open set (and keep no enumeration alive).
    isomorphic = {
        pair for pair in pair_list
        if catalog[pair[0]].evaluation_key == catalog[pair[1]].evaluation_key
    }
    searched = {
        pair: derive_pair_seed(seed, pair[0], pair[1]) or 0
        for pair in pair_list
        if pair not in isomorphic
    }
    reports: dict[tuple[str, str], EquivalenceReport] = {}
    if searched:
        with resolve_executor(workers, executor) as pool:
            reports = _sweep(catalog, searched, bound, domain, executor=pool)
    if isomorphic:
        _OBS.inc("sweep.pairs.isomorphic", len(isomorphic))
    for pair in isomorphic:
        reports[pair] = EquivalenceReport(
            equivalent=True, bound=bound, domain=domain, notes=[ISOMORPHIC_NOTE]
        )
    for report in reports.values():
        report.notes.append(
            f"single-sweep over {len(catalog)} queries / {len(pair_list)} pairs"
        )
    return {pair: reports[pair] for pair in pair_list}


def _check_searchable(
    queries: Sequence[Query],
    bound: int,
    domain: Domain,
    max_subsets: int,
    *,
    space: str,
    advice: str,
) -> None:
    """Reject a search that cannot run — incomparable queries, or a subset
    space beyond ``max_subsets`` — before anything is enumerated.  The
    budget is checked arithmetically, BEFORE enumerating orderings:
    Fubini(|T|) ordering enumeration on an over-budget instance would burn
    minutes just to reach the guard."""
    _resolve_catalog_function(queries, domain)
    constants: set[Constant] = set()
    for query in queries:
        constants |= query.vocabulary[1]
    size = base_size(catalog_predicate_arities(queries).values(), len(constants), bound)
    subset_count = 2**size
    if subset_count > max_subsets:
        raise SearchSpaceBudgetError(
            f"the {space} search space has {subset_count} subsets of BASE "
            f"(|BASE| = {size}), exceeding max_subsets={max_subsets}; {advice}"
        )


def _sweep(
    catalog: dict[str, Query],
    pair_seeds: dict[tuple[str, str], int],
    bound: int,
    domain: Domain,
    *,
    executor: Optional[Executor],
) -> dict[tuple[str, str], EquivalenceReport]:
    """The search loop behind :func:`sweep_equivalence` and
    :func:`bounded_equivalence`: one canonical enumeration of the catalog
    BASE, every still-open pair of isomorphism classes checked against each
    subset, serially (``executor=None``) or sharded across ``executor``.
    ``pair_seeds`` names the pairs to decide and the seed of each pair's
    witness search.  The search only locates each class pair's first
    :class:`Failure`; witnesses are realized afterwards, here and nowhere
    else: one per ``(class pair, failure place, seed if the ordered identity
    failed else None)`` — the seed only drives the random realizations
    that follow δ(S) — counted under ``sweep.witnesses.realized``, and each
    member pair's report receives its own copy."""
    setup = prepare_sweep_run(catalog, bound, domain)
    reports = {
        pair: EquivalenceReport(equivalent=True, bound=bound, domain=domain)
        for pair in pair_seeds
    }
    # Each isomorphism class is named by its representative, the first
    # catalog query with its evaluation key; the search runs on class pairs.
    representatives: dict[str, str] = {}
    classes = {
        name: representatives.setdefault(query.evaluation_key, name)
        for name, query in catalog.items()
    }
    class_pair = {pair: (classes[pair[0]], classes[pair[1]]) for pair in pair_seeds}
    # The witnesses realized so far: by class pair in the degenerate corner
    # below, by (class pair, failure place, seed) after a search.
    realized: dict[tuple, Optional[Counterexample]] = {}
    if not setup.orderings:
        # Degenerate corner: no terms at all (no constants and N = 0).  The
        # only database to compare over is the empty one.
        empty = Database(())
        for pair in pair_seeds:
            key = class_pair[pair]
            if key not in realized:
                _OBS.inc("sweep.witnesses.realized")
                realized[key] = _witness(
                    catalog[key[0]], catalog[key[1]], empty, setup.function
                )
            _settle(reports[pair], realized[key])
        return reports

    failures: dict[tuple[str, str], Failure] = {}
    stats = CheckStats()
    enumerator = CanonicalSubsetEnumerator(setup.base, setup.fresh)
    open_pairs: list[tuple[str, str]] = list(dict.fromkeys(class_pair.values()))
    base = setup.base

    def check_serial(subsets: Iterable[tuple[int, ...]]) -> None:
        if not open_pairs:
            return
        for indices in subsets:
            stats.subsets_examined += 1
            hits = check_subset_sweep(
                setup, frozenset(base[i] for i in indices), open_pairs, stats
            )
            for pair, ordering_position, identity_failed in hits:
                failures[pair] = Failure(indices, ordering_position, identity_failed)
                open_pairs.remove(pair)
            if not open_pairs:
                # Stop before pulling another subset: advancing a lazy
                # enumerator would count skips past the work actually done.
                return

    parallel_note = None
    with _span(
        "sweep.enumerate",
        queries=len(catalog),
        pairs=len(pair_seeds),
        bound=bound,
        base=len(base),
    ) as sweep_span:
        if executor is None:
            check_serial(enumerator)
        else:
            stream = iter(enumerator)
            # Warm prefix: the parent settles the small subsets itself
            # (their merged-partition signatures are the most shared entries
            # of the group-index cache) before the pool forks, so every
            # worker inherits a warm cache copy-on-write instead of
            # re-deriving it.  The same prefix compiles the sweep's plan
            # kernels, which forked workers likewise inherit for free.  A
            # pool that already forked skips the prefix — its workers carry
            # their own accumulated caches.  The prefix is pulled lazily, so
            # a search settling inside it counts the skips the serial loop
            # counts; only a search that outlasts it enumerates the tail.
            prefix = DEFAULT_SWEEP_WARM_PREFIX if executor.wants_warm_prefix() else 0
            check_serial(itertools.islice(stream, prefix))
            tail = sum(1 for _ in stream) if open_pairs else 0
            if tail:
                from ..parallel.tasks import parallel_sweep_search

                tail_failures, parallel_note = parallel_sweep_search(
                    setup=setup,
                    pairs=open_pairs,
                    bound=bound,
                    domain=domain,
                    start=stats.subsets_examined,
                    count=tail,
                    stats=stats,
                    executor=executor,
                )
                failures.update(tail_failures)
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

    # A witness is realized once per (class pair, failure place, seed of
    # the random realizations when an identity failed), from the class
    # representatives, whose kernels the search has compiled: isomorphic
    # queries agree on every database, so every member pair of a class pair
    # stops at the same database with equal results.  Each member's report
    # gets its own copy of the witness.
    databases: dict[tuple[tuple[int, ...], int], tuple[SymbolicDatabase, Database]] = {}
    for pair, seed in pair_seeds.items():
        failure = failures.get(class_pair[pair])
        if failure is None:
            continue
        place = (failure.subset, failure.ordering)
        key = (class_pair[pair], place, seed if failure.identity_failed else None)
        if key not in realized:
            _OBS.inc("sweep.witnesses.realized")
            if place not in databases:
                database = SymbolicDatabase(
                    frozenset(base[i] for i in failure.subset), setup.orderings[failure.ordering]
                )
                databases[place] = (database, database.instantiate())
            database, delta = databases[place]
            representative_a, representative_b = class_pair[pair]
            realized[key] = _witness(
                catalog[representative_a], catalog[representative_b], delta,
                setup.function, database,
                attempts=_WITNESS_ATTEMPTS if failure.identity_failed else 0,
                seed=seed,
            )
        _settle(reports[pair], realized[key])
    for report in reports.values():
        stats.merge_into(report)
        report.subsets_skipped_by_symmetry = enumerator.skipped
        if parallel_note is not None:
            report.workers_used = executor.workers
            report.notes.append(parallel_note)
    return reports


def _settle(report: EquivalenceReport, counterexample: Optional[Counterexample]) -> None:
    """Record a copy of a pair's witness on its report: the one place a
    sweep report becomes NOT_EQUIVALENT."""
    if counterexample is not None:
        report.equivalent = False
        report.counterexample = replace(counterexample)


# ----------------------------------------------------------------------
# The decision procedure
# ----------------------------------------------------------------------
def bounded_equivalence(
    first: Query,
    second: Query,
    bound: int,
    domain: Domain = Domain.RATIONALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    *,
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 0,
) -> EquivalenceReport:
    """Decide whether ``first ≡_N second`` for ``N = bound`` (Theorem 4.8).

    For aggregate queries both must carry the same aggregation function, which
    must be order-decidable over the domain.  Non-aggregate queries are
    compared by their answer sets; their bag-set equivalence is the
    ``count``-query reduction of :func:`repro.core.bagset.bag_set_equivalent`.

    The check is the one-pair case of :func:`sweep_equivalence` — for two
    queries the catalog BASE is the pair BASE — over the orbit-canonical
    subsets.  ``workers > 1`` shards the subsets across a process pool via
    :mod:`repro.parallel` (a search of at most
    :data:`DEFAULT_SWEEP_WARM_PREFIX` subsets stays in this process);
    ``seed`` seeds the fallback witness search directly, so it is
    reproducible regardless of worker scheduling.
    """
    pair = ("first", "second")
    _check_searchable(
        (first, second), bound, domain, max_subsets,
        space="bounded-equivalence",
        advice="reduce the bound or raise max_subsets explicitly",
    )
    from ..parallel.executor import resolve_executor

    with resolve_executor(workers, executor) as pool:
        reports = _sweep(
            {"first": first, "second": second}, {pair: seed}, bound, domain,
            executor=pool,
        )
    return reports[pair]


def local_equivalence(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    *,
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 0,
) -> EquivalenceReport:
    """Local equivalence: bounded equivalence with N = τ(q, q') (Section 4).

    The search runs over the pair's own BASE — the pair's constants plus τ
    fresh terms — so the report depends on the pair alone.  The catalog
    sweep (:func:`repro.workloads.batch.plan_catalog_sweep`) groups cells
    whose BASEs coincide, so a swept cell runs this very enumeration.
    """
    return bounded_equivalence(
        first,
        second,
        term_size_of_pair(first, second),
        domain=domain,
        max_subsets=max_subsets,
        workers=workers,
        executor=executor,
        seed=seed,
    )


def base_size(arities: Iterable[int], constant_count: int, bound: int) -> int:
    """|BASE| over ``constant_count`` constants plus ``bound`` fresh terms, for
    predicates of the given ``arities``: one atom per predicate and argument
    tuple, as :func:`build_catalog_base` builds them.  Computed
    arithmetically (no atom construction), so budget guards run before any
    enumeration."""
    terms = constant_count + bound
    return sum(terms**arity for arity in arities)


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


#: Random realizations of the failing ordering tried, after δ, for a pair
#: whose ordered identity failed.
_WITNESS_ATTEMPTS = 25


def _witness(
    first: Query,
    second: Query,
    delta: Database,
    function: Optional[AggregationFunction],
    context: Optional[SymbolicDatabase] = None,
    *,
    attempts: int = 0,
    seed: int = 0,
) -> Optional[Counterexample]:
    """The witness of a pair: the first concrete database on which the two
    queries' results — aggregate results, or answer sets — differ,
    recording the symbolic ``context`` it instantiates.

    ``delta`` is tried first; in the search it is δ(S) of ``context``:
    distinct blocks get distinct values under δ, so when the answers or
    group keys differ the concrete results differ exactly as the symbolic
    ones do.  When an ordered identity failed, ``attempts`` random
    realizations of the context's ordering follow, drawn lazily from a
    generator seeded by ``seed`` (so parallel runs remain reproducible
    regardless of worker scheduling).  For non-shiftable functions every
    instantiation may coincidentally agree; then only the symbolic context
    is reported.  Without a context (the degenerate search over the empty
    database alone) agreement means no witness: ``None``."""
    import random

    def databases() -> Iterator[Database]:
        yield delta
        rng = random.Random(seed)
        for _ in range(attempts):
            yield context.instantiate(random_realization(context.ordering, rng))

    for database in databases():
        if function is not None:
            left_result = evaluate_aggregate(first, database, function)
            right_result = evaluate_aggregate(second, database, function)
        else:
            left_result = evaluate_set(first, database)
            right_result = evaluate_set(second, database)
        if left_result != right_result:
            break
    else:
        if context is None:
            return None
        database = None
        left_result = right_result = "(symbolic disagreement)"
    return Counterexample(
        database=database,
        left_result=left_result,
        right_result=right_result,
        ordering=None if context is None else context.ordering,
        symbolic_atoms=None if context is None else context.atoms,
    )
