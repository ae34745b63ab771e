"""Tests for the parallel decision subsystem (:mod:`repro.parallel`).

Covers the orbit-canonical subset enumeration (pinned against a brute-force
permutation-scan canonicalization kept here as the reference), differential serial-vs-parallel checks
for ``bounded_equivalence`` and ``equivalence_matrix``, executor behaviour
(early exit, deterministic merge, worker defaults), seed threading, and the
sum→count pre-dispatch normalization.
"""

import itertools
import os
from typing import Iterator, Optional, Sequence

import pytest

from repro import Verdict, parse_query
from repro.core import (
    are_equivalent,
    pair_count_reduction,
    sum_count_reduction,
)
from repro.core.bounded import (
    CanonicalSubsetEnumerator,
    bounded_equivalence,
    build_base,
)
from repro.datalog.atoms import RelationalAtom
from repro.datalog.terms import Constant, Variable
from repro.engine import evaluate_aggregate, evaluate_bag_set, evaluate_set
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    derive_pair_seed,
    resolve_executor,
)
from repro.workloads import QueryGenerator, QueryProfile, build_warehouse, equivalence_matrix

# ----------------------------------------------------------------------
# Orbit-canonical enumeration
# ----------------------------------------------------------------------
def _canonical_subset(
    subset: frozenset[RelationalAtom], fresh: Sequence[Variable]
) -> frozenset[RelationalAtom]:
    """The canonical representative of a subset of BASE under permutations of
    the interchangeable fresh variables.

    Brute-force reference: a full ``|fresh|!`` scan per subset.  The
    production path is :class:`CanonicalSubsetEnumerator`, which generates
    only canonical representatives; this function is the oracle the
    enumerator is pinned against.
    """
    best: Optional[tuple] = None
    best_subset = subset
    for permutation in itertools.permutations(fresh):
        mapping = dict(zip(fresh, permutation))
        renamed = frozenset(atom.substitute(mapping) for atom in subset)
        signature = tuple(sorted(str(atom) for atom in renamed))
        if best is None or signature < best:
            best = signature
            best_subset = renamed
    return best_subset


def _iterate_subsets(
    base: Sequence[RelationalAtom],
    fresh: Sequence[Variable],
    symmetry_reduction: bool,
) -> Iterator[tuple[frozenset[RelationalAtom], bool]]:
    """Yield (subset, skipped) pairs; skipped subsets are symmetry duplicates.

    Reference enumeration (every subset tested, canonical ones kept) for the
    pinning tests.
    """
    for size in range(len(base) + 1):
        for combination in itertools.combinations(base, size):
            subset = frozenset(combination)
            if symmetry_reduction and len(fresh) > 1:
                canonical = _canonical_subset(subset, fresh)
                if canonical != subset:
                    # Only the canonical representative of each orbit under
                    # permutations of the fresh variables is processed.
                    yield subset, True
                    continue
            yield subset, False


ENUMERATION_CASES = [
    ("q(count()) :- p(y), not r(y)", "q(count()) :- p(y)", 2),
    ("q(max(y)) :- p(y), y > 3", "q(max(y)) :- p(y), r(y, y)", 2),
    ("q(sum(y)) :- p(y, z)", "q(sum(y)) :- p(y, w)", 2),
    ("q(count()) :- p(y)", "q(count()) :- p(y), not r(y)", 3),
]


class TestCanonicalEnumeration:
    @pytest.mark.parametrize("first_text,second_text,bound", ENUMERATION_CASES)
    def test_pinned_against_legacy_scan(self, first_text, second_text, bound):
        """The enumerator must generate exactly the canonical representatives
        the legacy |fresh|! permutation scan selects — same subsets, and the
        exact count of skipped symmetry duplicates."""
        first, second = parse_query(first_text), parse_query(second_text)
        _, base, fresh = build_base(first, second, bound)
        enumerator = CanonicalSubsetEnumerator(base, fresh)
        generated = [frozenset(enumerator.base[i] for i in indices) for indices in enumerator]
        legacy = [
            subset for subset, skipped in _iterate_subsets(base, fresh, True) if not skipped
        ]
        assert set(generated) == set(legacy)
        assert len(generated) == len(legacy)  # no duplicates generated
        assert len(generated) + enumerator.skipped == 2 ** len(base)
        # Every generated representative is a fixed point of the legacy
        # canonicalization.
        for subset in generated:
            assert _canonical_subset(subset, fresh) == subset

    def test_single_fresh_variable_enumerates_everything(self):
        first = parse_query("q(count()) :- p(y)")
        _, base, fresh = build_base(first, first, 1)
        enumerator = CanonicalSubsetEnumerator(base, fresh)
        assert len(list(enumerator)) == 2 ** len(base)
        assert enumerator.skipped == 0

    def test_sizes_ascend(self):
        first = parse_query("q(count()) :- p(y), not r(y)")
        _, base, fresh = build_base(first, first, 2)
        sizes = [len(indices) for indices in CanonicalSubsetEnumerator(base, fresh)]
        assert sizes == sorted(sizes)


# ----------------------------------------------------------------------
# Differential: serial vs parallel bounded equivalence
# ----------------------------------------------------------------------
DIFFERENTIAL_PAIRS = [
    ("q(count()) :- p(y), not r(y)", "q(count()) :- p(y)", 2, None),
    ("q(max(y)) :- p(y)", "q(max(y)) :- p(y) ; p(y)", 2, None),
    ("q(sum(y)) :- p(y)", "q(sum(y)) :- p(y) ; p(y)", 2, None),
    ("q(count()) :- p(y), p(z), y < z", "q(count()) :- p(y), p(z), y != z", 2, None),
    ("q(x) :- p(x, y)", "q(x) :- p(x, y), p(x, z)", 2, "set"),
    ("q(x) :- p(x, y)", "q(x) :- p(x, y), p(x, z)", 2, "bag-set"),
]


def _witness_is_valid(first, second, counterexample, semantics):
    database = counterexample.database
    if database is None:
        # Non-shiftable corner: only the symbolic context could be reported.
        return counterexample.symbolic_atoms is not None
    if first.is_aggregate:
        return evaluate_aggregate(first, database) != evaluate_aggregate(second, database)
    if semantics == "bag-set":
        return evaluate_bag_set(first, database) != evaluate_bag_set(second, database)
    return evaluate_set(first, database) != evaluate_set(second, database)


@pytest.fixture(scope="module")
def forked_pool():
    """A two-worker pool that has already forked: a pool that forked skips
    the serial warm prefix, so even the tiny spaces here are searched by
    the pool."""
    with ProcessExecutor(2) as pool:
        pool.run(_square, [1, 2])
        assert pool.alive and not pool.wants_warm_prefix()
        yield pool


class TestDifferentialBounded:
    @pytest.mark.parametrize("first_text,second_text,bound,semantics", DIFFERENTIAL_PAIRS)
    def test_serial_and_parallel_agree(
        self, forked_pool, first_text, second_text, bound, semantics
    ):
        first, second = parse_query(first_text), parse_query(second_text)
        kwargs = {"semantics": semantics} if semantics else {}
        serial = bounded_equivalence(first, second, bound, workers=1, **kwargs)
        parallel = bounded_equivalence(
            first, second, bound, executor=forked_pool, **kwargs
        )
        assert serial.equivalent == parallel.equivalent
        assert parallel.workers_used == 2
        if serial.equivalent:
            # A complete sweep must examine the identical canonical space.
            assert serial.subsets_examined == parallel.subsets_examined
            assert serial.orderings_examined == parallel.orderings_examined
            assert serial.identities_checked == parallel.identities_checked
            assert (
                serial.subsets_skipped_by_symmetry == parallel.subsets_skipped_by_symmetry
            )
        else:
            assert parallel.counterexample is not None
            assert _witness_is_valid(
                first, second, parallel.counterexample, semantics or "set"
            )
            assert _witness_is_valid(
                first, second, serial.counterexample, semantics or "set"
            )

    def test_generated_pairs_agree(self, forked_pool):
        """Differential property test over generated query pairs."""
        profile = QueryProfile(
            predicates={"p": 1, "r": 1},
            grouping_variables=1,
            aggregation_function="count",
            max_disjuncts=2,
            max_positive_atoms=2,
            max_negated_atoms=1,
            max_comparisons=0,
            constants=(),
        )
        generator = QueryGenerator(profile, seed=11)
        checked = 0
        while checked < 4:
            first, second = generator.query_pair()
            _, base, _ = build_base(first, second, 2)
            if 2 ** len(base) > 4096:
                continue
            serial = bounded_equivalence(first, second, 2, workers=1)
            parallel = bounded_equivalence(first, second, 2, executor=forked_pool)
            assert serial.equivalent == parallel.equivalent, (first, second)
            if not serial.equivalent:
                assert _witness_is_valid(first, second, parallel.counterexample, "set")
            checked += 1

    def test_parallel_witnesses_are_valid_across_runs(self, forked_pool):
        # The verdict is scheduling-independent; the particular witness may
        # vary under early-exit cancellation races, but every witness must be
        # valid (the fully reproducible path is workers=1).
        first = parse_query("q(sum(y)) :- p(y)")
        second = parse_query("q(sum(y)) :- p(y), not r(y)")
        runs = [
            bounded_equivalence(first, second, 2, executor=forked_pool)
            for _ in range(2)
        ]
        for report in runs:
            assert not report.equivalent
            assert _witness_is_valid(first, second, report.counterexample, "set")


# ----------------------------------------------------------------------
# Differential: serial vs parallel equivalence matrix
# ----------------------------------------------------------------------
def _matrix_catalog():
    warehouse = build_warehouse(stores=2, products=3, sales_per_store=4, seed=3)
    catalog = {
        name: warehouse.queries[name]
        for name in ("revenue_per_store", "revenue_per_store_alt", "largest_sale")
    }
    catalog["unit_sales"] = parse_query("units(s, sum(u)) :- sales(s, p, a), u = 1")
    catalog["sales_count"] = parse_query("units(s, count()) :- sales(s, p, a)")
    catalog["plain"] = parse_query("q(s) :- sales(s, p, a)")
    return catalog


class TestDifferentialMatrix:
    def test_serial_and_parallel_matrices_agree(self):
        catalog = _matrix_catalog()
        serial = equivalence_matrix(catalog, workers=1, seed=5, counterexample_trials=60)
        parallel = equivalence_matrix(catalog, workers=2, seed=5, counterexample_trials=60)
        assert set(serial) == set(parallel)
        for pair, serial_result in serial.items():
            parallel_result = parallel[pair]
            assert serial_result.verdict is parallel_result.verdict, pair
            # Seeded witness searches make even the witnesses identical.
            if serial_result.counterexample is not None:
                assert parallel_result.counterexample is not None
                assert (
                    serial_result.counterexample.database
                    == parallel_result.counterexample.database
                ), pair

    def test_normalization_settles_pinned_sum_in_matrix(self):
        catalog = _matrix_catalog()
        results = equivalence_matrix(catalog, counterexample_trials=60)
        result = results[("sales_count", "unit_sales")]
        assert result.verdict is Verdict.EQUIVALENT
        assert "normalization" in result.method

    def test_cold_matrix_builds_each_count_form_once(self, monkeypatch):
        # A query keeps its count form: the planner and every pair task that
        # re-routes a cell read it, so the one pinned sum is rewritten once.
        from repro.datalog.queries import Query
        from repro.session import Workspace

        builds = []
        original = Query.with_aggregate

        def counted(self, aggregate):
            builds.append(self.name)
            return original(self, aggregate)

        monkeypatch.setattr(Query, "with_aggregate", counted)
        with Workspace(workers=1, store=False) as workspace:
            for name, query in _matrix_catalog().items():
                workspace.add(query, name=name)
            workspace.equivalences()
        assert builds == ["units"]

    def test_seeded_matrix_is_reproducible(self):
        catalog = _matrix_catalog()
        first = equivalence_matrix(catalog, seed=9, counterexample_trials=60)
        second = equivalence_matrix(catalog, seed=9, counterexample_trials=60)
        for pair in first:
            assert first[pair].verdict is second[pair].verdict
            left, right = first[pair].counterexample, second[pair].counterexample
            assert (left is None) == (right is None)
            if left is not None:
                assert left.database == right.database

    def test_shared_base_matches_pair_local(self):
        queries = {
            "a": parse_query("q(x) :- p(x, y)"),
            "b": parse_query("q(x) :- p(x, y), p(x, z)"),
            "c": parse_query("q(x) :- p(x, x)"),
        }
        shared = equivalence_matrix(queries)
        for (name_a, name_b), result in shared.items():
            local = are_equivalent(queries[name_a], queries[name_b])
            assert result.verdict is local.verdict, (name_a, name_b)
            assert result.details == local.details, (name_a, name_b)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_serial_executor_stops_early(self):
        seen = []

        def worker(task):
            seen.append(task)
            return task

        outcomes = SerialExecutor().run(worker, [1, 2, 3, 4], stop=lambda value: value == 2)
        assert outcomes == [1, 2]
        assert seen == [1, 2]

    def test_process_executor_returns_every_outcome(self):
        with ProcessExecutor(workers=2) as executor:
            outcomes = executor.run(_square, [1, 2, 3, 4, 5])
        assert sorted(outcomes) == [1, 4, 9, 16, 25]

    def test_resolve_executor_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with resolve_executor(None) as executor:
            assert isinstance(executor, ProcessExecutor) and executor.workers == 3
            executor.run(_square, [1, 2, 3])
            assert executor.alive
        # The call owned the pool, so leaving the block closed it.
        assert not executor.alive
        monkeypatch.setenv("REPRO_WORKERS", "1")
        with resolve_executor(None) as executor:
            assert executor is None
        monkeypatch.delenv("REPRO_WORKERS")
        with resolve_executor(None) as executor:
            assert executor is None
        # An explicit executor is yielded as given and left open.
        with ProcessExecutor(2) as explicit:
            explicit.run(_square, [1, 2])
            with resolve_executor(None, explicit) as executor:
                assert executor is explicit
            assert explicit.alive

    def test_range_tasks_cover_and_run_independently(self):
        from repro.core.bounded import prepare_sweep_run
        from repro.domains import Domain
        from repro.parallel import run_sweep_range_task, sweep_range_tasks

        catalog = {
            "a": parse_query("q(count()) :- p(y), not r(y)"),
            "b": parse_query("q(count()) :- not r(y), p(y)"),
        }
        setup = prepare_sweep_run(catalog, 2, Domain.RATIONALS, "set")
        count = len(list(CanonicalSubsetEnumerator(setup.base, setup.fresh)))
        tasks = sweep_range_tasks(
            tuple(catalog.items()), [("a", "b")], 2, Domain.RATIONALS, "set",
            0, count, shards=3,
        )
        owned = [
            [position for start, length in task.ranges for position in range(start, start + length)]
            for task in tasks
        ]
        assert sorted(position for positions in owned for position in positions) == list(
            range(count)
        )
        sizes = [len(positions) for positions in owned]
        assert max(sizes) - min(sizes) <= len(tasks[0].ranges)
        # Shards are independently executable (an equivalent pair never
        # stops a shard early).
        outcome = run_sweep_range_task(tasks[0])
        assert outcome.found == ()
        assert outcome.stats.subsets_examined == len(owned[0])


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
class TestSeeds:
    def test_derive_pair_seed_is_stable(self):
        assert derive_pair_seed(7, "a", "b") == derive_pair_seed(7, "a", "b")
        assert derive_pair_seed(7, "a", "b") != derive_pair_seed(8, "a", "b")
        assert derive_pair_seed(None, "a", "b") is None

    def test_find_counterexample_seed_controls_search(self):
        from repro.core import find_counterexample

        first = parse_query("q(x, sum(y)) :- p(x, y), y > 0")
        second = parse_query("q(x, sum(y)) :- p(x, y), y > 1")
        one = find_counterexample(first, second, seed=13)
        two = find_counterexample(first, second, seed=13)
        assert one is not None and one == two


# ----------------------------------------------------------------------
# Normalization (unit level)
# ----------------------------------------------------------------------
class TestNormalization:
    def test_pinned_sum_rewrites_to_count(self):
        query = parse_query("q(s, sum(u)) :- p(s, a), u = 1")
        rewritten, multiplier, note = sum_count_reduction(query)
        assert note is not None and multiplier == Constant(1)
        assert rewritten.aggregate.function == "count"
        assert rewritten.disjuncts == query.disjuncts

    def test_pin_must_hold_in_every_disjunct(self):
        query = parse_query("q(s, sum(u)) :- p(s, u), u = 1 ; p(s, u)")
        assert sum_count_reduction(query) is None

    def test_pin_to_other_constants_is_ignored(self):
        # A pin to 2 is no rewrite to a plain count: the count form keeps
        # the multiplier, and only a pair sharing it is normalized.
        query = parse_query("q(s, sum(u)) :- p(s, a), u = 2")
        _, multiplier, _ = sum_count_reduction(query)
        assert multiplier == Constant(2)
        assert pair_count_reduction(query, parse_query("q(s, count()) :- p(s, a)")) is None

    def test_non_sum_queries_untouched(self):
        query = parse_query("q(s, max(u)) :- p(s, u), u = 1")
        assert sum_count_reduction(query) is None

    def test_reversed_equality_is_recognized(self):
        query = parse_query("q(s, sum(u)) :- p(s, a), 1 = u")
        _, _, note = sum_count_reduction(query)
        assert note is not None

    def test_one_sided_normalization_never_downgrades_same_function_pairs(self):
        # Both queries are sum-queries and equivalent; only the first has an
        # equality pin (the second pins u semantically via u >= 1, u <= 1,
        # which the equality-chain propagation deliberately does not chase).
        # Rewriting just one side would push the pair from the decidable
        # sum/sum class into the different-function open fragment — the
        # dispatcher must keep the originals instead.
        from repro.core import are_equivalent

        first = parse_query("q(s, sum(u)) :- r(s, u), u = 1")
        second = parse_query("q(s, sum(u)) :- r(s, u), u >= 1, u <= 1")
        result = are_equivalent(first, second)
        assert result.verdict is Verdict.EQUIVALENT
        assert "normalization" not in result.method


class TestGuards:
    def test_search_space_guard_fires_before_ordering_enumeration(self):
        # At bound 8 the ordering space (ordered set partitions of 8 terms)
        # is in the millions; the subset-budget guard must raise from the
        # arithmetic size check, not after enumerating orderings.
        from repro.errors import ReproError

        first = parse_query("q(count()) :- p(y, z)")
        start = __import__("time").perf_counter()
        with pytest.raises(ReproError):
            bounded_equivalence(first, first, 8)
        assert __import__("time").perf_counter() - start < 1.0

    def test_explicit_executor_is_honored_for_tiny_spaces(self):
        class RecordingExecutor:
            workers = 1

            def __init__(self):
                self.calls = 0

            def wants_warm_prefix(self):
                return False

            def run(self, worker, tasks, stop=None):
                self.calls += 1
                return SerialExecutor().run(worker, tasks, stop)

        executor = RecordingExecutor()
        first = parse_query("q(count()) :- p(y)")
        report = bounded_equivalence(first, first, 1, executor=executor)
        assert report.equivalent
        assert executor.calls == 1


def _square(value):
    return value * value


def _poison(value):
    """Pool-worker task: ``"poison"`` SIGKILLs the executing worker mid-run —
    the genuine crash the process executor must observe and surface."""
    if value == "poison":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


class TestWorkerCrashRecovery:
    """A worker death marks the pool dead *before* outcomes are merged, the
    crash surfaces as the structured retryable error, and the next run
    re-forks (the auto-heal counted by ``parallel.pool.heals``)."""

    def test_poison_task_raises_and_marks_pool_dead(self):
        from repro.errors import WorkerCrashError
        from repro.obs import REGISTRY

        heals_before = REGISTRY.get("parallel.pool.heals")
        executor = ProcessExecutor(2)
        try:
            warm = executor.run(_poison, ["a", "b", "c", "d"])
            assert sorted(warm) == ["aa", "bb", "cc", "dd"]
            assert executor.alive and executor.forks == 1

            with pytest.raises(WorkerCrashError):
                executor.run(_poison, ["a", "poison", "b", "c"])
            # The half-drained generation is never merged: the pool is
            # already dead when the error reaches the caller.
            assert not executor.alive

            healed = executor.run(_poison, ["a", "b", "c", "d"])
            assert sorted(healed) == ["aa", "bb", "cc", "dd"]
            assert executor.forks == 2
            assert REGISTRY.get("parallel.pool.heals") == heals_before + 1
        finally:
            executor.close()

    def test_idle_worker_death_surfaces_on_next_run(self):
        import signal
        import time

        from repro.errors import WorkerCrashError

        executor = ProcessExecutor(2)
        try:
            executor.run(_poison, ["a", "b", "c", "d"])
            victim = next(iter(executor._pids))
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.3)  # let the kill land before the next run
            with pytest.raises(WorkerCrashError):
                executor.run(_poison, ["a", "b", "c", "d"])
            assert not executor.alive
            healed = executor.run(_poison, ["x", "y"])
            assert sorted(healed) == ["xx", "yy"]
        finally:
            executor.close()

    def test_worker_exception_still_discards_pool(self):
        executor = ProcessExecutor(2)
        try:
            with pytest.raises(TypeError):
                executor.run(_square, ["a", None, "b", "c"])
            assert not executor.alive
            healed = executor.run(_square, [2, 3])
            assert sorted(healed) == [4, 9]
        finally:
            executor.close()


class TestWarmPrefixParity:
    """A search that settles inside the warm prefix reports the serial work."""

    def test_prefix_settled_search_counts_the_serial_skips(self, monkeypatch):
        from repro.obs import REGISTRY

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        first = parse_query("q(count()) :- p(x, y), r(y)")
        second = parse_query("q(count()) :- p(x, y)")
        runs = {}
        for workers in (1, 2):
            before = REGISTRY.snapshot()
            report = bounded_equivalence(first, second, 2, workers=workers)
            delta = REGISTRY.diff(before)
            runs[workers] = (
                report.equivalent,
                report.subsets_examined,
                report.orderings_examined,
                report.subsets_skipped_by_symmetry,
                {name: value for name, value in delta.items() if name.startswith("sweep.")},
                delta.get("parallel.pool.forks", 0),
            )
        assert not runs[1][0]
        assert runs[1][1] <= 64  # settled inside the warm prefix
        assert runs[1] == runs[2]


class TestOneShotPool:
    """A one-shot ``workers=N`` call owns exactly one pool for its length."""

    def test_decide_pairs_forks_one_pool_and_reaps_it(self):
        import multiprocessing

        from repro.obs import REGISTRY
        from repro.workloads.batch import decide_pairs
        from test_sweep import _split_audit_catalog

        # The split member is equivalent to the audit_a class without being
        # isomorphic to it, so the sweep outlasts the warm prefix and forks.
        catalog = _split_audit_catalog()
        serial = decide_pairs(catalog, workers=1, seed=7)
        children_before = {child.pid for child in multiprocessing.active_children()}
        forks_before = REGISTRY.get("parallel.pool.forks")
        parallel = decide_pairs(catalog, workers=2, seed=7)
        # The sweep group and the pair tasks share one pool.
        assert REGISTRY.get("parallel.pool.forks") == forks_before + 1
        children_after = {child.pid for child in multiprocessing.active_children()}
        assert children_after <= children_before
        assert {cell: (result.verdict, result.method) for cell, result in parallel.items()} == {
            cell: (result.verdict, result.method) for cell, result in serial.items()
        }


class TestRangeShippingShards:
    """The (start, count) range shards vs a serial in-test reference."""

    def test_block_cyclic_ranges_cover_the_span(self):
        from repro.parallel import block_cyclic_ranges

        for start, count, shards in [(0, 1, 1), (10, 23, 3), (5, 100, 7), (0, 8, 16)]:
            ranges = block_cyclic_ranges(start, count, shards)
            positions = sorted(
                position
                for blocks in ranges
                for (block_start, block_count) in blocks
                for position in range(block_start, block_start + block_count)
            )
            assert positions == list(range(start, start + count))
            assert len(ranges) <= shards
        assert block_cyclic_ranges(0, 0, 4) == []

    def test_parallel_sweep_settles_catalog(self, forked_pool):
        from repro.core.bounded import sweep_equivalence

        catalog = {
            "a": parse_query("q(count()) :- p(y), r(y)"),
            "b": parse_query("q(count()) :- r(y), p(y)"),
            "c": parse_query("q(count()) :- p(y)"),
            "d": parse_query("q(count()) :- p(y), r(y), s(y, y)"),
        }
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")]
        reports = sweep_equivalence(
            catalog, pairs, 2, executor=forked_pool, seed=11
        )
        verdicts = {pair: report.equivalent for pair, report in reports.items()}
        assert verdicts == {
            ("a", "b"): True,
            ("a", "c"): False,
            ("a", "d"): False,
            ("b", "c"): False,
        }
        for pair, report in reports.items():
            if not report.equivalent:
                assert report.counterexample is not None

    def test_range_tasks_ship_smaller_pickles(self):
        import pickle

        from repro.core.bounded import CanonicalSubsetEnumerator, prepare_sweep_run
        from repro.parallel import sweep_range_tasks
        from repro.domains import Domain

        catalog = {
            "a": parse_query("q(count()) :- p(x, y)"),
            "b": parse_query("q(count()) :- p(y, x)"),
        }
        queries = tuple(catalog.items())
        setup = prepare_sweep_run(catalog, 4, Domain.RATIONALS, "set")
        subsets = [
            (position, indices)
            for position, indices in enumerate(CanonicalSubsetEnumerator(setup.base, setup.fresh))
        ]
        assert len(subsets) > 1000  # large enough for payloads to dominate
        ranges = sweep_range_tasks(
            queries, [("a", "b")], 4, Domain.RATIONALS, "set", 0, len(subsets), 4
        )
        # The ranges stand in for the positioned subset rows they cover.
        assert len(pickle.dumps(ranges)) < len(pickle.dumps(subsets)) / 10

    def test_range_worker_reenumerates_identically(self):
        from repro.core.bounded import (
            CanonicalSubsetEnumerator,
            CheckStats,
            check_subset_sweep,
            prepare_sweep_run,
        )
        from repro.parallel import run_sweep_range_task, sweep_range_tasks
        from repro.domains import Domain

        catalog = {
            "a": parse_query("q(count()) :- p(y), r(y)"),
            "b": parse_query("q(count()) :- p(y)"),
        }
        queries = tuple(catalog.items())
        pairs = [("a", "b")]
        setup = prepare_sweep_run(catalog, 2, Domain.RATIONALS, "set")
        subsets = list(enumerate(CanonicalSubsetEnumerator(setup.base, setup.fresh)))
        # Serial reference: walk the parent's positioned stream in order until
        # the pair fails.
        reference = CheckStats()
        expected = []
        for position, indices in subsets:
            reference.subsets_examined += 1
            hits = check_subset_sweep(
                setup, frozenset(setup.base[i] for i in indices), pairs, reference
            )
            if hits:
                expected = [
                    (pair, position, (indices, ordering, identity_failed))
                    for pair, ordering, identity_failed in hits
                ]
                break
        assert expected  # the pair is not equivalent
        (range_task,) = sweep_range_tasks(
            queries, pairs, 2, Domain.RATIONALS, "set", 0, len(subsets), 1
        )
        range_outcome = run_sweep_range_task(range_task)
        assert list(range_outcome.found) == expected
        assert range_outcome.stats.subsets_examined == reference.subsets_examined


class _EveryShardExecutor:
    """An in-process executor with two workers that runs every shard to its
    end, ignoring ``stop`` — so every shard that sees a pair fail reports
    it."""

    workers = 2

    def wants_warm_prefix(self) -> bool:
        return False

    def run(self, worker, tasks, stop=None):
        return [worker(task) for task in tasks]


class TestWitnessRealizedOnce:
    """Shards report failure positions; the parent realizes one witness per
    failing pair, after the merge."""

    def test_each_failing_pair_builds_one_witness(self, monkeypatch):
        import repro.core.bounded as bounded

        first = parse_query("q(count()) :- p(x, y)")
        second = parse_query("q(count()) :- p(x, y), r(y)")
        serial = bounded_equivalence(first, second, 2, workers=1)
        calls = []
        original = bounded.evaluate_aggregate

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(bounded, "evaluate_aggregate", counted)
        executor = _EveryShardExecutor()
        report = bounded_equivalence(first, second, 2, executor=executor)
        assert not report.equivalent and not serial.equivalent
        # Both shards fail the pair, yet its witness is built once: one
        # evaluation of each query over δ(S).
        assert calls == [first, second]
        assert report.counterexample.database == serial.counterexample.database
        assert report.counterexample.ordering == serial.counterexample.ordering
        assert report.counterexample.symbolic_atoms == serial.counterexample.symbolic_atoms
        assert report.workers_used == 2

    def test_member_pairs_share_one_delta(self, monkeypatch):
        from repro.core.bounded import sweep_equivalence
        from repro.engine.symbolic import SymbolicDatabase

        catalog = {
            "a": parse_query("q(count()) :- p(x, y)"),
            "a2": parse_query("q(count()) :- p(u, v)"),
            "b": parse_query("q(count()) :- p(x, y), r(y)"),
        }
        pairs = [("a", "b"), ("a2", "b")]
        serial = sweep_equivalence(catalog, pairs, 2, workers=1, seed=5)
        deltas = []
        original = SymbolicDatabase.instantiate

        def counted(self, *args):
            deltas.append(args)
            return original(self, *args)

        monkeypatch.setattr(SymbolicDatabase, "instantiate", counted)
        reports = sweep_equivalence(
            catalog, pairs, 2, executor=_EveryShardExecutor(), seed=5
        )
        # One class pair fails; its two member pairs realize their witnesses
        # over one shared δ(S).
        assert deltas == [()]
        for pair in pairs:
            assert not reports[pair].equivalent
            assert (
                reports[pair].counterexample.database == serial[pair].counterexample.database
            )

    def test_every_shard_fails_the_pair(self):
        from repro.core.bounded import prepare_sweep_run
        from repro.domains import Domain
        from repro.parallel import run_sweep_range_task, sweep_range_tasks

        catalog = {
            "a": parse_query("q(count()) :- p(x, y)"),
            "b": parse_query("q(count()) :- p(x, y), r(y)"),
        }
        setup = prepare_sweep_run(catalog, 2, Domain.RATIONALS, "set")
        count = len(list(CanonicalSubsetEnumerator(setup.base, setup.fresh)))
        tasks = sweep_range_tasks(
            tuple(catalog.items()), [("a", "b")], 2, Domain.RATIONALS, "set", 0, count, 2
        )
        assert len(tasks) == 2
        for task in tasks:
            assert [pair for pair, _position, _failure in run_sweep_range_task(task).found] == [
                ("a", "b")
            ]
