"""The persistent, rename-insensitive verdict store (``repro.store``).

Covers the three layers — canonical pair keys (``store.canon``), the
sqlite-backed :class:`VerdictStore` (``store.disk``), witness revalidation
(``store.witness``) — and the session/service integration: renamed
catalogs settle entirely from the store with zero new sweep enumerations,
near-miss pairs never collide, and a restart against the same
``REPRO_STORE_PATH`` reproduces every verdict cell-for-cell.
"""

from __future__ import annotations

import os

import pytest

from repro import Domain, parse_query
from repro.core.equivalence import EquivalenceResult, Verdict, are_equivalent
from repro.datalog.queries import Query
from repro.datalog.terms import Variable
from repro.obs import REGISTRY
from repro.session import Workspace
from repro.store import (
    StoredRecord,
    VerdictStore,
    canonical_form,
    canonical_hash,
    hash_row_key,
    pair_key,
    shared_store,
)
from repro.store.disk import decode_database, encode_database
from repro.workloads import build_warehouse
from repro.workloads.batch import equivalence_matrix


def renamed_copy(query: Query, prefix: str = "zz") -> Query:
    """The query with every variable renamed to a fresh, unrelated name (in
    reversed sorted order, so the renaming is not order-preserving)."""
    variables = sorted(query.variables(), reverse=True)
    mapping = {
        variable: Variable(f"{prefix}{index}") for index, variable in enumerate(variables)
    }
    return query.rename_variables(mapping)


def renamed_catalog(catalog: dict, prefix: str = "zz") -> dict:
    return {name: renamed_copy(query, prefix) for name, query in catalog.items()}


def audit_catalog(quick: bool) -> dict:
    """The rewriting-audit catalog of ``benchmarks/bench_catalog_sweep.py``."""
    import importlib.util
    import pathlib

    bench = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_catalog_sweep.py"
    spec = importlib.util.spec_from_file_location("bench_catalog_sweep", bench)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_audit_catalog(quick=quick)


def scenario_catalogs() -> list[dict]:
    """Every scenario catalog the suite exercises canonical keying on."""
    return [
        build_warehouse(stores=2, products=3, sales_per_store=4, seed=3).queries,
        audit_catalog(quick=True),
    ]


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
class TestCanonicalForm:
    def test_renaming_is_invisible_on_every_scenario_catalog(self):
        for catalog in scenario_catalogs():
            for name, query in catalog.items():
                renamed = renamed_copy(query)
                assert canonical_form(query) == canonical_form(renamed), name
                assert canonical_hash(query) == canonical_hash(renamed), name

    def test_literal_and_disjunct_reordering_is_invisible(self):
        first = parse_query("q(x) :- R(x, y), S(y, z), y > 1")
        second = parse_query("q(a) :- S(b, c), R(a, b), 1 < b")
        assert canonical_form(first) == canonical_form(second)
        left = parse_query("q(s, count()) :- R(s), P(s) ; R(s), D(s)")
        right = parse_query("q(a, count()) :- D(a), R(a) ; P(a), R(a)")
        # Disjunct order and per-disjunct literal order both normalize, but
        # the two disjuncts must end up aligned: b's disjuncts list D-first.
        assert canonical_form(left) == canonical_form(right)

    def test_entailed_equalities_converge(self):
        direct = parse_query("q(x) :- R(x, y), y = 1")
        chained = parse_query("q(x) :- R(x, y), y = z, z = 1")
        assert canonical_form(direct) == canonical_form(chained)

    def test_symmetric_variables_break_ties_consistently(self):
        first = parse_query("q() :- R(x, y), R(y, x)")
        second = parse_query("q() :- R(b, a), R(a, b)")
        assert canonical_form(first) == canonical_form(second)

    def test_near_miss_constants_do_not_collide(self):
        base = parse_query("q(x) :- R(x, y), S(y, z), y > 1")
        near = parse_query("q(x) :- R(x, y), S(y, z), y > 2")
        assert canonical_form(base) != canonical_form(near)
        assert canonical_hash(base) != canonical_hash(near)

    def test_duplicate_disjuncts_are_not_merged(self):
        # Under bag semantics a duplicated disjunct doubles its count
        # contribution (the audit_dup catalog entry), so dedup across
        # disjuncts would be unsound.  Dedup *within* a disjunct is sound.
        single = parse_query("a(s, count()) :- R(s, p)")
        doubled = parse_query("a(s, count()) :- R(s, p) ; R(s, p)")
        assert canonical_form(single) != canonical_form(doubled)
        within = parse_query("q(x) :- R(x), R(x)")
        flat = parse_query("q(x) :- R(x)")
        assert canonical_form(within) == canonical_form(flat)

    def test_pair_key_is_symmetric_with_orientation(self):
        first = parse_query("q(x) :- R(x)")
        second = parse_query("q(x) :- S(x)")
        forward = pair_key(first, second)
        backward = pair_key(second, first)
        assert forward.key == backward.key
        assert forward.flipped != backward.flipped
        # A renamed copy maps to the same key with the same orientation.
        assert pair_key(renamed_copy(first), second).key == forward.key

    def test_canon_memo_serves_repeat_hashes(self):
        query = parse_query("q(x) :- R(x, y), S(y, x)")
        canonical_hash(query)
        before = REGISTRY.get("store.canon.hits")
        canonical_hash(query)
        assert REGISTRY.get("store.canon.hits") == before + 1


# ----------------------------------------------------------------------
# The store itself
# ----------------------------------------------------------------------
def settle(first: Query, second: Query):
    return are_equivalent(first, second)


class TestVerdictStore:
    def test_record_then_serve_renamed_duplicate(self):
        first = parse_query("q(x) :- R(x)")
        second = parse_query("q(x) :- R(x), x > 0")
        result = settle(first, second)
        store = VerdictStore()
        store.record(first, second, Domain.RATIONALS, result)
        served = store.serve(renamed_copy(first), renamed_copy(second), Domain.RATIONALS)
        assert served is not None
        assert served.verdict == result.verdict
        assert served.method == result.method

    def test_near_misses_do_not_collide_in_the_store(self):
        first = parse_query("q(x) :- R(x)")
        second = parse_query("q(x) :- R(x), x > 0")
        near = parse_query("q(x) :- R(x), x > 1")
        store = VerdictStore()
        store.record(first, second, Domain.RATIONALS, settle(first, second))
        assert store.serve(first, near, Domain.RATIONALS) is None

    def test_orientation_flips_witness_results(self):
        first = parse_query("q(x) :- R(x)")
        second = parse_query("q(x) :- R(x), x > 0")
        result = settle(first, second)
        assert result.verdict == Verdict.NOT_EQUIVALENT
        store = VerdictStore()
        store.record(first, second, Domain.RATIONALS, result)
        forward = store.serve(first, second, Domain.RATIONALS)
        backward = store.serve(second, first, Domain.RATIONALS)
        assert forward.counterexample.left_result == backward.counterexample.right_result
        assert forward.counterexample.right_result == backward.counterexample.left_result

    def test_disk_round_trip_across_instances(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite3")
        first = parse_query("q(x) :- R(x), S(x)")
        second = parse_query("q(b) :- S(b), R(b)")
        result = settle(first, second)
        writer = VerdictStore(path)
        writer.record(first, second, Domain.RATIONALS, result)
        writer.close()
        reader = VerdictStore(path)
        served = reader.serve(renamed_copy(first), second, Domain.RATIONALS)
        assert served is not None
        assert served.verdict == result.verdict == Verdict.EQUIVALENT
        assert served.method == result.method
        reader.close()

    def test_rows_carrying_a_base_fingerprint_are_served(self, tmp_path):
        # Stores written while matrix cells could be widened to a
        # catalog-wide BASE carry a non-empty fingerprint; serving ignores it.
        path = str(tmp_path / "fingerprinted.sqlite3")
        pairs = [
            (parse_query("q(x) :- R(x), S(x)"), parse_query("q(b) :- S(b), R(b)")),
            (parse_query("q(x) :- R(x)"), parse_query("q(x) :- R(x), x > 0")),
        ]
        writer = VerdictStore(path)
        results = []
        for first, second in pairs:
            result = settle(first, second)
            results.append(result)
            writer.record(first, second, Domain.RATIONALS, result)
            record = writer.lookup(pair_key(first, second).key)
            assert record.base_fingerprint == ""
            record.base_fingerprint = "3f2a9c0d41b7e856"
            writer.write(record)
        writer.close()
        reader = VerdictStore(path)
        for (first, second), result in zip(pairs, results):
            assert reader.lookup(pair_key(first, second).key).base_fingerprint == "3f2a9c0d41b7e856"
            served = reader.serve(renamed_copy(first), renamed_copy(second), Domain.RATIONALS)
            assert served is not None
            assert served.verdict == result.verdict
            assert served.method == result.method
            assert served.details == result.details
        assert {result.verdict for result in results} == {
            Verdict.EQUIVALENT, Verdict.NOT_EQUIVALENT
        }
        reader.close()

    def test_rows_naming_an_evaluation_mode_are_served(self, tmp_path):
        # Stores written while the naive engine was a selectable mode carry
        # "naive" or "compiled" in the engine column; new rows write "" and
        # serving ignores the column, so those files keep serving — witness
        # revalidation included.
        import sqlite3

        path = str(tmp_path / "moded.sqlite3")
        pairs = [
            (parse_query("q(x) :- R(x), S(x)"), parse_query("q(b) :- S(b), R(b)")),
            (parse_query("q(x) :- R(x)"), parse_query("q(x) :- R(x), x > 0")),
        ]
        writer = VerdictStore(path)
        results = [settle(first, second) for first, second in pairs]
        for (first, second), result in zip(pairs, results):
            writer.record(first, second, Domain.RATIONALS, result)
        writer.close()
        connection = sqlite3.connect(path)
        assert {row[0] for row in connection.execute("SELECT engine FROM verdicts")} == {""}
        for (first, second), mode in zip(pairs, ("compiled", "naive")):
            connection.execute(
                "UPDATE verdicts SET engine = ? WHERE pair_key = ?",
                (mode, pair_key(first, second).key),
            )
        connection.commit()
        connection.close()
        reader = VerdictStore(path)
        before = REGISTRY.get("store.witness.revalidated")
        for (first, second), result in zip(pairs, results):
            served = reader.serve(renamed_copy(first), renamed_copy(second), Domain.RATIONALS)
            assert served is not None
            assert served.verdict == result.verdict
            assert served.method == result.method
            assert served.details == result.details
        assert REGISTRY.get("store.witness.revalidated") == before + 1
        reader.close()

    def test_closed_store_is_a_silent_miss(self):
        first = parse_query("q(x) :- R(x)")
        second = parse_query("q(x) :- S(x)")
        store = VerdictStore()
        store.record(first, second, Domain.RATIONALS, settle(first, second))
        store.close()
        assert store.serve(first, second, Domain.RATIONALS) is None
        store.record(first, second, Domain.RATIONALS, settle(first, second))  # no-op

    def test_max_mb_evicts_least_recently_used_rows(self, tmp_path):
        import repro.store.disk as disk_module

        path = str(tmp_path / "bounded.sqlite3")
        store = VerdictStore(path, max_mb=0)  # every size check overflows
        result = settle(parse_query("q(x) :- R(x)"), parse_query("q(x) :- S(x)"))
        queries = [parse_query(f"q(x) :- T{index}(x)") for index in range(70)]
        written = 0
        for index in range(len(queries) - 1):
            store.record(queries[index], queries[index + 1], Domain.RATIONALS, result)
            written += 1
        assert written > disk_module._SIZE_CHECK_INTERVAL
        assert REGISTRY.get("store.disk.evicted") > 0
        assert len(store) < written
        store.close()

    def test_max_mb_eviction_also_removes_hash_rows(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "bounded.sqlite3")
        store = VerdictStore(path, max_mb=0)  # every size check overflows
        result = settle(parse_query("q(x) :- R(x)"), parse_query("q(x) :- S(x)"))
        queries = [parse_query(f"q(x) :- T{index}(x)") for index in range(70)]
        evicted_before = REGISTRY.get("store.disk.hashes_evicted")
        for index in range(len(queries) - 1):
            store.record(queries[index], queries[index + 1], Domain.RATIONALS, result)
        store.close()
        assert REGISTRY.get("store.disk.hashes_evicted") > evicted_before
        connection = sqlite3.connect(path)
        named = set()
        for (key,) in connection.execute("SELECT pair_key FROM verdicts"):
            named.update(key.split(":"))
        digests = [digest for (digest,) in connection.execute("SELECT digest FROM canon_hashes")]
        connection.close()
        # Every row that survived names a digest some remaining verdict
        # uses, and the table shrank with the verdicts.
        assert set(digests) <= named
        assert len(digests) < len(queries)

    def test_realized_results_decode_once_per_orientation(self, monkeypatch):
        import repro.store.disk as disk_module

        first = parse_query("q(x) :- R(x)")
        second = parse_query("q(x) :- R(x), x > 0")
        result = settle(first, second)
        assert result.verdict == Verdict.NOT_EQUIVALENT
        store = VerdictStore()
        store.record(first, second, Domain.RATIONALS, result)
        revalidated_before = REGISTRY.get("store.witness.revalidated")
        decoded: list = []
        real_decode = disk_module.decode_report

        def counting_decode(record, counterexample):
            decoded.append(record.pair_key)
            return real_decode(record, counterexample)

        monkeypatch.setattr(disk_module, "decode_report", counting_decode)
        served = [store.serve(first, second, Domain.RATIONALS) for _ in range(3)]
        served.append(store.serve(second, first, Domain.RATIONALS))
        served.append(store.serve(renamed_copy(second), first, Domain.RATIONALS))
        assert len(decoded) == 2
        # Every served cell still counts as a revalidated witness, and the
        # answers follow each caller's orientation.
        assert REGISTRY.get("store.witness.revalidated") == revalidated_before + len(served)
        forward, backward = served[0].counterexample, served[3].counterexample
        assert backward.left_result == forward.right_result
        assert backward.right_result == forward.left_result
        # Every cell gets its own result object.
        assert len({id(result) for result in served}) == len(served)
        assert {result.method for result in served} == {served[0].method}
        # A rewrite of the row drops the memo.
        store.write(store.lookup(pair_key(first, second).key))
        store.serve(first, second, Domain.RATIONALS)
        assert len(decoded) == 3

    def test_database_codec_round_trips_exact_values(self):
        from fractions import Fraction

        from repro.datalog.database import Database

        database = Database([("R", (1, Fraction(1, 3))), ("S", (-2,))])
        assert decode_database(encode_database(database)).facts == database.facts


# ----------------------------------------------------------------------
# Persisted canonical hashes
# ----------------------------------------------------------------------
#: The verdicts table as the first stores created it, before the
#: ``canon_hashes`` table existed.
_OLD_VERDICTS_DDL = """
CREATE TABLE verdicts (
    pair_key         TEXT PRIMARY KEY,
    schema_version   INTEGER NOT NULL,
    verdict          TEXT NOT NULL,
    method           TEXT NOT NULL,
    details          TEXT NOT NULL,
    domain           TEXT NOT NULL,
    engine           TEXT NOT NULL,
    base_fingerprint TEXT NOT NULL,
    payload          TEXT NOT NULL,
    created_s        REAL NOT NULL,
    last_used_s      REAL NOT NULL
)
"""


#: The verdict of a query against itself.
IDENTICAL = EquivalenceResult(Verdict.EQUIVALENT, "identical queries", Domain.RATIONALS)


def fuzz_corpus() -> list[Query]:
    """Generated queries (negation, comparisons, constants, up to two
    disjuncts) and a renamed copy of each."""
    from repro.workloads import QueryGenerator, QueryProfile
    from repro.workloads.generators import renamed_copy as renamed_variables

    corpus = []
    for function in ("count", "sum", None):
        profile = QueryProfile(
            aggregation_function=function,
            comparison_operators=("<", "<=", ">", ">=", "!=", "="),
        )
        generator = QueryGenerator(profile, seed=11)
        for index in range(12):
            query = generator.query(f"g{index}")
            corpus.extend((query, renamed_variables(query)))
    return corpus


def hash_rows(path: str) -> dict[str, str]:
    import sqlite3

    connection = sqlite3.connect(path)
    try:
        return dict(connection.execute("SELECT hash_key, digest FROM canon_hashes"))
    finally:
        connection.close()


def restart_session(path: str, catalog: dict):
    """A restarted process over the store file: every in-process cache
    dropped, a new store instance, the catalog added; returns the matrix,
    the session statistics and the store counters' growth."""
    from repro.service import clear_service_caches

    clear_service_caches()
    before = REGISTRY.snapshot("store.")
    with Workspace(workers=1, store=VerdictStore(path)) as session:
        for name, query in catalog.items():
            session.add(query, name=name)
        matrix = session.equivalences()
        stats = session.stats()
    after = REGISTRY.snapshot("store.")
    growth = {name: value - before.get(name, 0) for name, value in after.items()}
    return matrix, stats, growth


class TestPersistedHashes:
    def test_restart_computes_no_canonical_form_for_unchanged_queries(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite3")
        catalog = small_catalog()
        original, _stats, _growth = restart_session(path, catalog)
        assert set(hash_rows(path)) == {hash_row_key(query) for query in catalog.values()}
        rerun, stats, growth = restart_session(path, catalog)
        assert stats.decided_cells == 0 and stats.store_hits == len(rerun)
        assert growth.get("store.canon.misses", 0) == 0
        assert growth["store.canon.persisted_hits"] == len(catalog)
        for pair, result in rerun.items():
            assert result.verdict == original[pair].verdict, pair
            assert result.method == original[pair].method, pair

    def test_restart_hashes_no_query_structure_per_cell(self, tmp_path):
        """A store-served restart keys each cell by two persisted digests
        looked up by catalog name, so the queries themselves are hashed at
        most once each, not once or more per cell."""
        from repro.service import clear_service_caches

        path = str(tmp_path / "verdicts.sqlite3")
        catalog = audit_catalog(quick=False)
        restart_session(path, catalog)
        clear_service_caches()
        calls = 0
        query_hash = Query.__hash__

        def counting_hash(query):
            nonlocal calls
            calls += 1
            return query_hash(query)

        with Workspace(workers=1, store=VerdictStore(path)) as session:
            for name, query in catalog.items():
                session.add(query, name=name)
            Query.__hash__ = counting_hash
            try:
                matrix = session.equivalences()
            finally:
                Query.__hash__ = query_hash
            stats = session.stats()
        assert stats.decided_cells == 0 and stats.store_hits == len(matrix)
        assert len(matrix) == len(catalog) * (len(catalog) - 1) // 2
        assert calls <= len(catalog)

    def test_file_without_hash_table_serves_a_restart(self, tmp_path):
        import sqlite3

        catalog = small_catalog()
        current = str(tmp_path / "current.sqlite3")
        original, _stats, _growth = restart_session(current, catalog)
        old = str(tmp_path / "old.sqlite3")
        connection = sqlite3.connect(old)
        connection.execute(_OLD_VERDICTS_DDL)
        connection.execute("ATTACH DATABASE ? AS current", (current,))
        connection.execute("INSERT INTO verdicts SELECT * FROM current.verdicts")
        connection.commit()
        connection.execute("DETACH DATABASE current")
        tables = {name for (name,) in connection.execute("SELECT name FROM sqlite_master")}
        connection.close()
        assert "canon_hashes" not in tables
        rerun, stats, growth = restart_session(old, catalog)
        assert stats.decided_cells == 0 and stats.store_hits == len(rerun)
        # No persisted hash: every query is hashed afresh, and serving
        # writes no hash row.
        assert growth["store.canon.misses"] == len(catalog)
        assert growth.get("store.canon.persisted_hits", 0) == 0
        assert hash_rows(old) == {}
        for pair, result in rerun.items():
            assert result.verdict == original[pair].verdict, pair
            assert result.method == original[pair].method, pair
            assert (result.counterexample is None) == (original[pair].counterexample is None)

    def test_persisted_hash_equals_a_fresh_hash(self, tmp_path):
        from repro.service import clear_service_caches

        queries = [*audit_catalog(quick=False).values(), *fuzz_corpus()]
        path = str(tmp_path / "verdicts.sqlite3")
        writer = VerdictStore(path)
        for query in queries:
            # A query is equivalent to itself: the record exists for its
            # hash rows.
            writer.record(query, query, Domain.RATIONALS, IDENTICAL)
        writer.close()
        rows = hash_rows(path)
        assert len(rows) == len({hash_row_key(query) for query in queries})
        clear_service_caches()
        reader = VerdictStore(path)
        misses_before = REGISTRY.get("store.canon.misses")
        persisted = [reader.query_hash(query) for query in queries]
        assert REGISTRY.get("store.canon.misses") == misses_before
        reader.close()
        clear_service_caches()
        for query, hashed in zip(queries, persisted):
            assert hashed.unwritten_row is None, query
            assert hashed.digest == rows[hash_row_key(query)] == canonical_hash(query), query

    def test_other_domain_misses(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite3")
        first = parse_query("q(x, count()) :- p(x, y), y > 0, y < 2")
        second = parse_query("q(x, count()) :- p(x, 1)")
        writer = VerdictStore(path)
        writer.record(first, second, Domain.RATIONALS, settle(first, second))
        writer.close()
        reader = VerdictStore(path)
        assert reader.query_hash(first, Domain.RATIONALS).unwritten_row is None
        other = reader.query_hash(first, Domain.INTEGERS)
        assert other.unwritten_row == hash_row_key(first, Domain.INTEGERS)
        assert other.digest == canonical_hash(first, Domain.INTEGERS)
        # Over the integers the two queries are equivalent and hash equal;
        # over the rationals they are not, so a row read across domains
        # would join them.
        assert other.digest == canonical_hash(second, Domain.INTEGERS)
        assert reader.query_hash(first).digest != reader.query_hash(second).digest
        reader.close()

    def test_restart_over_renamed_queries_writes_no_hash_row(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite3")
        catalog = small_catalog()
        original, _stats, _growth = restart_session(path, catalog)
        rows = hash_rows(path)
        renamed = renamed_catalog(catalog)
        rerun, stats, growth = restart_session(path, renamed)
        assert stats.decided_cells == 0 and stats.store_hits == len(rerun)
        assert growth["store.canon.misses"] == len(renamed)
        assert growth.get("store.canon.persisted_hits", 0) == 0
        assert growth.get("store.disk.writes", 0) == 0
        assert hash_rows(path) == rows
        for pair, result in rerun.items():
            assert result.verdict == original[pair].verdict, pair

    def test_row_keys_separate_queries_their_text_conflates(self):
        from repro.datalog.atoms import RelationalAtom
        from repro.datalog.conditions import Condition
        from repro.datalog.terms import Constant

        def query(second_argument):
            atom = RelationalAtom("R", (Variable("x"), second_argument))
            return Query("q", (Variable("x"),), (Condition((atom,)),))

        variable, constant = query(Variable("1")), query(Constant(1))
        assert str(variable) == str(constant)
        assert hash_row_key(variable) != hash_row_key(constant)
        assert canonical_hash(variable) != canonical_hash(constant)


# ----------------------------------------------------------------------
# Witness revalidation
# ----------------------------------------------------------------------
class TestWitnessRevalidation:
    def _settled_store(self):
        first = parse_query("q(x) :- R(x)")
        second = parse_query("q(x) :- R(x), x > 0")
        result = settle(first, second)
        assert result.verdict == Verdict.NOT_EQUIVALENT
        assert result.counterexample is not None and result.counterexample.database is not None
        store = VerdictStore()
        store.record(first, second, Domain.RATIONALS, result)
        return store, first, second

    def test_live_witness_is_revalidated_and_served(self):
        store, first, second = self._settled_store()
        before = REGISTRY.get("store.witness.revalidated")
        served = store.serve(first, second, Domain.RATIONALS)
        assert served is not None and served.verdict == Verdict.NOT_EQUIVALENT
        assert REGISTRY.get("store.witness.revalidated") == before + 1
        # The served answers are freshly evaluated on the stored database.
        witness = served.counterexample
        assert witness.database is not None
        assert witness.left_result != witness.right_result

    def test_reproduced_witness_is_memoized_on_the_record(self, monkeypatch):
        # Once a record's witness has reproduced its disagreement, later
        # serves of that record — either orientation — reuse the answers
        # instead of re-evaluating the queries on the witness.
        import repro.store.witness as witness_module

        store, first, second = self._settled_store()
        calls: list = []
        real_evaluate = witness_module.evaluate

        def counting_evaluate(query, database):
            calls.append(query)
            return real_evaluate(query, database)

        monkeypatch.setattr(witness_module, "evaluate", counting_evaluate)
        forward = store.serve(first, second, Domain.RATIONALS)
        assert len(calls) == 2
        record = store.lookup(pair_key(first, second).key)
        assert record.realized
        backward = store.serve(second, first, Domain.RATIONALS)
        again = store.serve(renamed_copy(first), second, Domain.RATIONALS)
        assert len(calls) == 2
        assert backward.counterexample.left_result == forward.counterexample.right_result
        assert backward.counterexample.right_result == forward.counterexample.left_result
        assert again.counterexample.left_result == forward.counterexample.left_result
        assert again.counterexample.right_result == forward.counterexample.right_result

    def test_stale_witness_is_rejected_and_dropped(self):
        # Simulate a BASE change that invalidated the stored witness: replace
        # the witness database with one on which the queries *agree* (every
        # R-value positive), as an older BASE recipe could have produced.
        store, first, second = self._settled_store()
        key = pair_key(first, second)
        record = store.lookup(key.key)
        from repro.datalog.database import Database

        agreeing = Database([("R", (1,)), ("R", (2,))])
        record.payload["counterexample"]["database"] = encode_database(agreeing)
        store.write(record)
        before = REGISTRY.get("store.witness.stale")
        assert store.serve(first, second, Domain.RATIONALS) is None
        assert REGISTRY.get("store.witness.stale") == before + 1
        # The stale row was deleted: the pair is a clean miss now, so the
        # caller re-decides (witness re-derivation on demand).
        assert store.lookup(key.key) is None

    def test_undecodable_payload_is_a_miss(self):
        store, first, second = self._settled_store()
        key = pair_key(first, second)
        record = store.lookup(key.key)
        record.payload["counterexample"] = {"database": [["R", [{"t": "alien"}]]], "left": 0, "right": 1}
        store.write(record)
        assert store.serve(first, second, Domain.RATIONALS) is None

    def test_equivalent_verdicts_serve_without_reevaluation(self):
        first = parse_query("q(x) :- R(x), S(x)")
        second = parse_query("q(b) :- S(b), R(b)")
        result = settle(first, second)
        assert result.verdict == Verdict.EQUIVALENT
        store = VerdictStore()
        store.record(first, second, Domain.RATIONALS, result)
        before = REGISTRY.get("store.witness.revalidated")
        served = store.serve(first, second, Domain.RATIONALS)
        assert served is not None and served.verdict == Verdict.EQUIVALENT
        assert REGISTRY.get("store.witness.revalidated") == before


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
def small_catalog() -> dict:
    return {
        "ra": parse_query("q(x) :- R(x)"),
        "rb": parse_query("q(x) :- R(x), x > 0"),
        "rc": parse_query("q(x) :- R(x), S(x)"),
        "rd": parse_query("q(b) :- S(b), R(b)"),
    }


class TestWorkspaceIntegration:
    def test_renamed_catalog_settles_from_store_with_zero_sweeps(self):
        store = VerdictStore()
        with Workspace(workers=1, store=store) as first_session:
            for name, query in small_catalog().items():
                first_session.add(query, name=name)
            original = first_session.equivalences()
            assert first_session.stats().store_hits == 0
        sweep_before = REGISTRY.snapshot("sweep.")
        with Workspace(workers=1, store=store) as second_session:
            for name, query in renamed_catalog(small_catalog()).items():
                second_session.add(query, name=name)
            served = second_session.equivalences()
            stats = second_session.stats()
        # Every cell came from the store: nothing was decided, and the
        # sweep enumeration counters did not move at all.
        assert stats.decided_cells == 0
        assert stats.store_hits == len(served)
        growth = {
            name: value
            for name, value in REGISTRY.snapshot("sweep.").items()
            if value != sweep_before.get(name, 0)
        }
        assert growth == {}
        for pair, result in served.items():
            assert result.verdict == original[pair].verdict, pair
            assert result.method == original[pair].method, pair

    def test_store_provenance_is_recorded(self):
        store = VerdictStore()
        catalog = small_catalog()
        with Workspace(workers=1, store=store) as first_session:
            for name, query in catalog.items():
                first_session.add(query, name=name)
            first_session.equivalences()
        with Workspace(workers=1, store=store) as second_session:
            for name, query in renamed_catalog(catalog).items():
                second_session.add(query, name=name)
            second_session.equivalences()
            explanation = second_session.explain("ra", "rb")
        assert explanation.decision_path == "store"
        assert explanation.cache_served is True
        assert "origin=store" in explanation.summary()

    def test_restart_round_trip_on_disk(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite3")
        catalog = small_catalog()
        with Workspace(workers=1, store=VerdictStore(path)) as first_session:
            for name, query in catalog.items():
                first_session.add(query, name=name)
            original = first_session.equivalences()
        first_store_hits = REGISTRY.get("store.disk.hits")
        # "Restart": a brand-new store instance over the same file, fed the
        # renamed catalog — rename-insensitivity and persistence together.
        with Workspace(workers=1, store=VerdictStore(path)) as second_session:
            for name, query in renamed_catalog(catalog).items():
                second_session.add(query, name=name)
            rerun = second_session.equivalences()
            stats = second_session.stats()
        assert stats.decided_cells == 0
        assert stats.store_hits == len(rerun)
        assert REGISTRY.get("store.disk.hits") > first_store_hits
        for pair, result in rerun.items():
            assert result.verdict == original[pair].verdict, pair
            assert result.method == original[pair].method, pair

    def test_bare_workspace_is_storeless_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_PATH", raising=False)
        with Workspace(workers=1) as session:
            assert session.store is None

    def test_env_path_opts_bare_workspaces_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "env.sqlite3"))
        with Workspace(workers=1) as session:
            assert session.store is not None
            assert session.store.persistent
        assert session.store is shared_store()

    def test_malformed_max_mb_warns_and_leaves_the_store_uncapped(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_PATH", raising=False)
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "ten")
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_MAX_MB='ten'"):
            store = shared_store()
        assert store._max_mb is None

    def test_equivalence_matrix_shim_stays_self_contained(self, tmp_path, monkeypatch):
        # The one-shot entry point must not read or write the process store,
        # even when the env var opts the process in.
        path = tmp_path / "shim.sqlite3"
        monkeypatch.setenv("REPRO_STORE_PATH", str(path))
        catalog = small_catalog()
        first = equivalence_matrix(catalog, workers=1)
        second = equivalence_matrix(catalog, workers=1)
        assert {p: r.verdict for p, r in first.items()} == {
            p: r.verdict for p, r in second.items()
        }
        assert not path.exists()

    def test_serial_and_two_worker_sessions_agree_with_store(self):
        catalog = small_catalog()
        matrices = {}
        stores = {}
        for workers in (1, 2):
            store = VerdictStore()
            with Workspace(workers=workers, store=store) as session:
                for name, query in catalog.items():
                    session.add(query, name=name)
                matrices[workers] = session.equivalences()
                assert session.stats().store_hits == 0
            stores[workers] = store
        for pair, result in matrices[1].items():
            assert result.verdict == matrices[2][pair].verdict, pair
            assert result.method == matrices[2][pair].method, pair
        # The stores are interchangeable: what the parallel session wrote
        # serves a serial session's renamed catalog, and vice versa.
        for workers, other in ((1, 2), (2, 1)):
            with Workspace(workers=1, store=stores[other]) as session:
                for name, query in renamed_catalog(catalog).items():
                    session.add(query, name=name)
                served = session.equivalences()
                assert session.stats().decided_cells == 0
                assert session.stats().store_hits == len(served)
