"""The incremental :class:`Workspace`: persistent caches, a persistent pool,
and delta equivalence matrices.

A workspace is a stateful session over a growing query catalog and view
catalog.  Where the one-shot entry points pay their fixed costs per call, a
workspace pays them once and amortizes them over the session:

* **One front door.**  :meth:`Workspace.add` ingests Datalog strings, SQL
  SELECT statements, or :class:`~repro.datalog.queries.Query` ASTs;
  :meth:`Workspace.register_view` ingests Datalog-defined
  :class:`~repro.rewriting.views.View` objects, ``CREATE VIEW`` SQL, or
  ``(name, definition)`` pairs.  One :class:`~repro.sql.translate.SqlTranslator`
  holds the session's schema, so SQL and Datalog definitions share a single
  view catalog and registered views are readable from later SELECTs.

* **Delta equivalence matrices.**  :meth:`Workspace.equivalences` returns
  the full matrix of the current catalog but decides only the cells no
  earlier call settled (new-query × catalog).  Delta cells are decided
  through :func:`repro.workloads.batch.decide_pairs`; each cell's search
  runs over the pair's own BASE, so a cell decided early is exactly the cell
  a from-scratch matrix over the grown catalog reports, witness database
  included.  A structural verdict cache keyed by the query pair itself
  (queries hash by their cached structural hash) short-circuits cells whose
  exact ASTs were already decided under different names.

* **A persistent pool.**  With ``workers=N`` the workspace owns one
  :class:`~repro.parallel.executor.ProcessExecutor` for its lifetime, where
  a one-shot ``workers=N`` call owns one for the length of the call: the
  pool forks once — lazily, after the first sweep's serial warm prefix, so
  the children inherit the warm shared caches copy-on-write — and every
  later ``equivalences()`` / ``rewrite()`` call reuses the same workers,
  whose per-process setup memos keep accumulating.  ``close()`` (or the
  context manager) tears the pool down.

* **Cached rewriting.**  :meth:`Workspace.rewrite` runs the PR 4 engine
  against the session's view catalog through the session executor, caching
  verification outcomes per (query, limit); registering a view invalidates
  the rewriting caches (verdicts may change), while adding queries does not.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Optional, Sequence, Union

from ..caches import put_bounded
from ..core.bounded import DEFAULT_MAX_SUBSETS
from ..core.counterexample import DEFAULT_COUNTEREXAMPLE_TRIALS
from ..core.equivalence import EquivalenceResult
from ..datalog.database import Database
from ..datalog.parser import parse_query
from ..datalog.queries import Query
from ..domains import Domain
from ..engine.planner import plan_cache_stats
from ..errors import ReproError, RewritingError
from ..obs import REGISTRY as _OBS
from ..obs import CellExplanation, dispatch_class_of, normalization_of
from ..obs import span as _span
from ..parallel.executor import Executor, ProcessExecutor, resolve_workers
from ..rewriting.candidates import RejectedCandidate
from ..rewriting.engine import (
    RewritingEngine,
    RewritingReport,
    VerifiedRewriting,
    assemble_report,
)
from ..rewriting.views import View, ViewCatalog
from ..sql.translate import Schema, SqlTranslator
from ..store.canon import QueryHash
from ..store.disk import VerdictStore, default_store, shared_store

#: Cap on the structural verdict cache; on overflow the least-recently-used
#: quarter is evicted (hits refresh recency), bounding a very long session
#: while keeping its hot pairs resident.
_VERDICT_CACHE_LIMIT = 65536

#: Cap on the rewrite-verification cache.  Entries are heavy (full
#: VerifiedRewriting lists with equivalence reports), so the cap is much
#: lower than the verdict cache's; eviction is oldest-quarter, same scheme.
_REWRITE_CACHE_LIMIT = 256

#: Anything :meth:`Workspace.add` accepts.
QueryLike = Union[Query, str]


@dataclass(frozen=True)
class WorkspaceStats:
    """Counters describing how much work a workspace has reused.

    Beyond the session-layer reuse counters, ``counters`` carries the
    process-wide metrics registry (:data:`repro.obs.REGISTRY`) grouped by
    scope — ``engine`` (kernel/store/Γ/dispatch), ``sweep`` (enumeration
    effort), ``parallel`` (pool lifecycle) and ``worker`` (deltas shipped
    back from pool workers and merged by the parent) — and ``plan_cache``
    the planner's LRU statistics.  :meth:`report` renders the whole thing
    as an indented hierarchy.
    """

    queries: int
    views: int
    decided_cells: int
    verdict_cache_hits: int
    store_hits: int
    rewrite_cache_hits: int
    pool_forks: int
    workers: int
    counters: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    plan_cache: Mapping[str, int] = field(default_factory=dict)

    def report(self) -> str:
        """The hierarchical text rendering of every layer's counters."""
        lines = ["workspace:"]
        for label in (
            "queries", "views", "decided_cells", "verdict_cache_hits",
            "store_hits", "rewrite_cache_hits", "pool_forks", "workers",
        ):
            lines.append(f"  {label}: {getattr(self, label)}")
        if self.plan_cache:
            lines.append("plan_cache:")
            for key, value in sorted(self.plan_cache.items()):
                lines.append(f"  {key}: {value}")
        for scope, values in self.counters.items():
            lines.append(f"{scope}:")
            for key, value in values.items():
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)


class Workspace:
    """A long-lived session over a growing catalog of queries and views.

    ``workers=N`` gives the session a persistent process pool (``None``
    consults ``REPRO_WORKERS``; 1 means serial); an explicit ``executor``
    is used instead, left open on :meth:`close`, and its own ``workers``
    is the session's worker count; ``schema`` declares base
    tables for the SQL front door (``{table: [column, ...]}``); the decision
    parameters (``domain``, ``max_subsets``, ``counterexample_trials``,
    ``unknown_bound``, ``seed``) mirror
    :func:`repro.workloads.batch.equivalence_matrix` and apply to every
    decision the session makes.  ``store`` selects the
    second verdict tier behind the structural cache: a
    :class:`~repro.store.VerdictStore` to use one explicitly, ``True`` for
    the process-wide shared store, ``False`` for none, and ``None`` (the
    default) for the shared store exactly when ``REPRO_STORE_PATH`` opts the
    process in — so a bare ``Workspace()`` without the env var behaves as it
    always did.  Use as a context manager (or call :meth:`close`) to release
    the pool.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        executor: Optional[Executor] = None,
        schema: Optional[Schema] = None,
        domain: Domain = Domain.RATIONALS,
        max_subsets: int = DEFAULT_MAX_SUBSETS,
        counterexample_trials: int = DEFAULT_COUNTEREXAMPLE_TRIALS,
        unknown_bound: Optional[int] = None,
        seed: Optional[int] = None,
        rewrite_limit: int = 32,
        store: Union[VerdictStore, bool, None] = None,
    ) -> None:
        self._domain = domain
        self._max_subsets = max_subsets
        self._counterexample_trials = counterexample_trials
        self._unknown_bound = unknown_bound
        self._seed = seed
        self._rewrite_limit = rewrite_limit
        if executor is not None:
            self._executor: Optional[Executor] = executor
            self._owns_executor = False
            # The executor's own width is what runs; ``workers`` cannot
            # resize a pool the session does not own.
            self._workers = executor.workers
        else:
            count = resolve_workers(workers)
            self._executor = ProcessExecutor(count) if count > 1 else None
            self._owns_executor = self._executor is not None
            self._workers = count
        self._translator = SqlTranslator(schema or {})
        self._views: dict[str, View] = {}
        self._queries: dict[str, Query] = {}
        self._results: dict[tuple[str, str], EquivalenceResult] = {}
        self._verdict_cache: "OrderedDict[tuple[Query, Query], EquivalenceResult]" = OrderedDict()
        if isinstance(store, VerdictStore):
            self._store: Optional[VerdictStore] = store
        elif store is None:
            self._store = default_store()
        else:
            self._store = shared_store() if store else None
        self._engine: Optional[RewritingEngine] = None
        self._rewrite_cache: dict[
            tuple[Query, int],
            tuple[list[VerifiedRewriting], list[RejectedCandidate]],
        ] = {}
        self._decided_cells = 0
        self._verdict_cache_hits = 0
        self._store_hits = 0
        self._rewrite_cache_hits = 0
        # Per-cell decision provenance feeding explain(): how each settled
        # cell was decided (sweep group / pair task / verdict cache) and in
        # which equivalences() call.
        self._provenance: dict[tuple[str, str], dict[str, object]] = {}
        self._equivalence_calls = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the session: terminate the owned worker pool and drop the
        per-session caches (the structural verdict cache, the rewrite
        verification cache, the rewriting engine).
        Idempotent; a closed workspace refuses further *work* but keeps its
        settled cells and provenance, so :meth:`explain` stays available.

        This is the one teardown path: the context manager, the interpreter's
        best-effort ``__del__``, and service-layer tenant eviction
        (:class:`repro.service.tenants.TenantRegistry`) all funnel here."""
        self._closed = True
        self._verdict_cache.clear()
        self._rewrite_cache.clear()
        self._engine = None
        if self._owns_executor and self._executor is not None:
            self._executor.close()  # type: ignore[union-attr]

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup; close() is the API
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ReproError("this workspace has been closed")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queries(self) -> dict[str, Query]:
        """The current catalog (a copy; mutate through add/discard)."""
        return dict(self._queries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._queries))

    @property
    def views(self) -> ViewCatalog:
        """The session's registered views, as a catalog."""
        return ViewCatalog(self._views.values())

    @property
    def executor(self) -> Optional[Executor]:
        """The session executor (``None`` when the session runs serially)."""
        return self._executor

    @property
    def store(self) -> Optional[VerdictStore]:
        """The verdict-store tier behind the structural cache (``None``
        means the session runs with today's in-memory caches only)."""
        return self._store

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, name: str) -> bool:
        return name in self._queries

    def __getitem__(self, name: str) -> Query:
        try:
            return self._queries[name]
        except KeyError:
            raise ReproError(f"workspace has no query named {name!r}") from None

    def stats(self) -> WorkspaceStats:
        """Reuse counters: decided vs cache-served cells, pool forks, plus
        the hierarchical registry report (engine / sweep / parallel scopes
        and the ``worker.*`` deltas merged back from pool workers)."""
        return WorkspaceStats(
            queries=len(self._queries),
            views=len(self._views),
            decided_cells=self._decided_cells,
            verdict_cache_hits=self._verdict_cache_hits,
            store_hits=self._store_hits,
            rewrite_cache_hits=self._rewrite_cache_hits,
            pool_forks=getattr(self._executor, "forks", 0) if self._executor else 0,
            workers=self._workers,
            counters=_OBS.tree(),
            plan_cache=plan_cache_stats(),
        )

    # ------------------------------------------------------------------
    # Ingestion: the unified front door
    # ------------------------------------------------------------------
    def add(self, query: QueryLike, *, name: Optional[str] = None) -> str:
        """Add a query to the catalog and return its catalog name.

        ``query`` may be a :class:`Query`, a Datalog string
        (``"q(x, sum(y)) :- p(x, y)"``), or a SQL SELECT statement (which
        requires the session ``schema``).  ``name`` fixes the catalog name
        (an explicit duplicate raises); without one, the query's own head
        name is used and de-duplicated (``q``, ``q_2``, ...).  Adding never
        invalidates anything: settled cells stay settled, and the next
        :meth:`equivalences` call decides only the new cells.
        """
        self._require_open()
        parsed = self._coerce_query(query, name)
        if name is not None:
            if name in self._queries:
                raise ReproError(f"workspace already has a query named {name!r}")
            label = name
        else:
            label = parsed.name or "q"
            suffix = 2
            while label in self._queries:
                label = f"{parsed.name}_{suffix}"
                suffix += 1
        self._queries[label] = parsed
        return label

    def discard(self, name: str) -> Query:
        """Remove a query and its settled cells from the catalog."""
        self._require_open()
        if name not in self._queries:
            raise ReproError(f"workspace has no query named {name!r}")
        removed = self._queries.pop(name)
        for pair in [pair for pair in self._results if name in pair]:
            del self._results[pair]
            self._provenance.pop(pair, None)
        return removed

    def register_view(
        self,
        view: Union[View, str],
        definition: Optional[QueryLike] = None,
        *,
        columns: Optional[Sequence[str]] = None,
    ) -> View:
        """Register a materialized view with the session.

        Accepts a :class:`View`, a ``CREATE VIEW ... AS SELECT ...`` SQL
        statement, or a ``(name, definition)`` pair where ``definition`` is a
        Datalog string or :class:`Query`.  The view always joins the
        rewriting catalog; it additionally joins the SQL schema (readable
        from later SELECTs) when its name is SQL-addressable — the SQL
        parser lowercases table references, so a mixed-case Datalog view
        stays rewriting-only rather than being rejected.  Registering
        invalidates the session's rewriting caches, since new views change
        which rewritings exist.
        """
        self._require_open()
        if isinstance(view, View):
            if definition is not None:
                raise ReproError("pass either a View or a (name, definition) pair, not both")
            registered = self._adopt_datalog_view(view, columns)
        elif isinstance(view, str) and definition is not None:
            body = definition if isinstance(definition, Query) else parse_query(definition)
            registered = self._adopt_datalog_view(View(view, body), columns)
        elif isinstance(view, str):
            registered = self._translator.register_view(view)
            self._views[registered.name] = registered
        else:
            raise ReproError(
                f"register_view expects a View, CREATE VIEW SQL, or a "
                f"(name, definition) pair, got {view!r}"
            )
        try:
            self.views  # validates name/predicate clashes across the catalog
        except RewritingError:
            self._views.pop(registered.name, None)
            self._translator.remove_view(registered.name)
            raise
        # Invalidate only once the registration is known-good: a rejected
        # view leaves the catalog — and therefore the cached verification
        # work — untouched.
        self._engine = None
        self._rewrite_cache.clear()
        return registered

    def _adopt_datalog_view(self, view: View, columns: Optional[Sequence[str]]) -> View:
        if view.name in self._views:
            raise RewritingError(f"duplicate view name {view.name!r}")
        if view.name == view.name.lower():
            # SQL-addressable: join the translator's schema too (and respect
            # its collision rules).
            self._translator.adopt_view(view, columns)
        self._views[view.name] = view
        return view

    def _coerce_query(self, query: QueryLike, name: Optional[str]) -> Query:
        if isinstance(query, Query):
            return query
        if isinstance(query, str):
            text = query.strip()
            if _looks_like_sql(text):
                return self._translator.translate(text, name=name or "q")
            return parse_query(text)
        raise ReproError(
            f"add() expects a Query, a Datalog string, or a SQL SELECT, got {query!r}"
        )

    # ------------------------------------------------------------------
    # The delta equivalence matrix
    # ------------------------------------------------------------------
    def equivalences(self) -> dict[tuple[str, str], EquivalenceResult]:
        """The equivalence matrix of the current catalog.

        Returns ``{(name_a, name_b): result}`` for every unordered pair with
        ``name_a < name_b`` — exactly what
        :func:`repro.workloads.equivalence_matrix` returns for the same
        catalog — but only the *delta* cells (pairs no earlier call settled)
        are decided; everything else is served from the session.  Delta cells
        go through the structural verdict cache first, then to
        :func:`~repro.workloads.batch.decide_pairs` on the session executor.
        """
        self._require_open()
        self._equivalence_calls += 1
        call = self._equivalence_calls
        pairs = list(itertools.combinations(sorted(self._queries), 2))
        undecided: list[tuple[str, str]] = []
        store = self._store
        # Each query's canonical hash is resolved once per call, on its
        # first store-bound cell; a cell's store key is then one comparison
        # of two hex strings, and write-backs reuse the same hashes.
        hashes: dict[str, QueryHash] = {}

        def hashes_of(pair: tuple[str, str]) -> tuple[QueryHash, QueryHash]:
            assert store is not None
            for name in pair:
                if name not in hashes:
                    hashes[name] = store.query_hash(self._queries[name], self._domain)
            return hashes[pair[0]], hashes[pair[1]]

        for pair in pairs:
            if pair in self._results:
                continue
            cache_key = (self._queries[pair[0]], self._queries[pair[1]])
            cached = self._verdict_cache.get(cache_key)
            if cached is not None:
                # A structurally identical pair was already decided (under
                # other names).  Verdict/method/details transfer verbatim;
                # hand out a copy so per-cell consumers never alias.  The
                # hit refreshes the entry's recency so hot pairs survive
                # the LRU eviction of :meth:`_cache_verdict`.
                self._verdict_cache.move_to_end(cache_key)
                self._results[pair] = replace(cached)
                self._verdict_cache_hits += 1
                _OBS.inc("session.verdict_cache.hits")
                self._provenance[pair] = {
                    "path": "cache",
                    "cache_served": True,
                    "call": call,
                }
                continue
            served = (
                store.serve(cache_key[0], cache_key[1], self._domain, hashes=hashes_of(pair))
                if store is not None
                else None
            )
            if served is not None:
                # Second tier: another workspace (tenant, or an earlier
                # process when the store is disk-backed) settled a
                # canonically identical pair — possibly under renamed
                # variables or reordered literals.  NOT_EQUIVALENT verdicts
                # arrive here only after their witness re-reproduced the
                # disagreement (repro.store.witness).
                self._results[pair] = served
                self._cache_verdict(pair, served)
                self._store_hits += 1
                _OBS.inc("session.store.hits")
                self._provenance[pair] = {
                    "path": "store",
                    "cache_served": True,
                    "call": call,
                }
            else:
                undecided.append(pair)
        if undecided:
            from ..workloads.batch import decide_pairs

            _OBS.inc("session.verdict_cache.misses", len(undecided))
            decision_paths: dict[tuple[str, str], str] = {}
            with _span("session.equivalences", cells=len(undecided), call=call):
                decided = decide_pairs(
                    self._queries,
                    undecided,
                    domain=self._domain,
                    counterexample_trials=self._counterexample_trials,
                    max_subsets=self._max_subsets,
                    unknown_bound=self._unknown_bound,
                    workers=self._workers,
                    executor=self._executor,
                    seed=self._seed,
                    provenance=decision_paths,
                )
            for pair, result in decided.items():
                self._results[pair] = result
                self._cache_verdict(pair, result)
                self._decided_cells += 1
                self._provenance[pair] = {
                    "path": decision_paths.get(pair, "unknown"),
                    "cache_served": False,
                    "call": call,
                }
                if store is not None:
                    # Write-back: every freshly settled cell (UNKNOWN too —
                    # re-deriving an UNKNOWN is as expensive as any other
                    # verdict) becomes servable to other sessions.
                    store.record(
                        self._queries[pair[0]],
                        self._queries[pair[1]],
                        self._domain,
                        result,
                        hashes=hashes_of(pair),
                    )
        return {pair: self._results[pair] for pair in sorted(pairs)}

    def explain(self, first: str, second: str) -> CellExplanation:
        """The full decision provenance of one settled cell.

        ``first`` and ``second`` name catalog queries whose cell an earlier
        :meth:`equivalences` call settled (order-insensitive).  The returned
        :class:`~repro.obs.CellExplanation` combines the stored verdict
        (method string, dispatch class, normalization annotation, search
        counters, witness) with the session's provenance record for the cell
        (sweep group vs pair task vs verdict cache, deciding call ordinal).
        Unsettled cells raise — explanations never trigger new decisions.
        Works on a closed workspace — explaining is pure introspection over
        already-settled state.
        """
        return explain_cell(self._queries, self._results, self._provenance, first, second)

    # ------------------------------------------------------------------
    # Frozen state export (the service snapshot path)
    # ------------------------------------------------------------------
    def settled_cells(self) -> dict[tuple[str, str], EquivalenceResult]:
        """A shallow copy of every settled cell (results are immutable, so
        the copy is cheap and safe to read without the workspace lock a
        caller may be serializing mutations with)."""
        return dict(self._results)

    def cell_provenance(self) -> dict[tuple[str, str], dict[str, object]]:
        """A copy of the per-cell decision provenance feeding
        :func:`explain_cell` (one level deep: the per-cell records are
        copied too, since :meth:`equivalences` mutates them in place)."""
        return {pair: dict(record) for pair, record in self._provenance.items()}

    def _cache_verdict(self, pair: tuple[str, str], result: EquivalenceResult) -> None:
        key = (self._queries[pair[0]], self._queries[pair[1]])
        if key not in self._verdict_cache and len(self._verdict_cache) >= _VERDICT_CACHE_LIMIT:
            # Evict the least-recently-*used* quarter: lookups refresh
            # recency (move_to_end), so a pair that keeps getting served
            # stays resident no matter how early it was inserted.
            for _ in range(_VERDICT_CACHE_LIMIT // 4):
                self._verdict_cache.popitem(last=False)
        self._verdict_cache[key] = result
        self._verdict_cache.move_to_end(key)

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def rewrite(
        self,
        query: QueryLike,
        *,
        database: Optional[Database] = None,
        limit: Optional[int] = None,
    ) -> RewritingReport:
        """Synthesize, verify, and rank rewritings of ``query`` over the
        session's view catalog (see :func:`repro.rewriting.rewrite`).

        Verification runs through the session executor — the persistent pool
        is reused, never re-forked — and its outcomes are cached per
        (query, limit): repeated calls (or calls differing only in the
        ranking ``database``) skip straight to report assembly.
        """
        self._require_open()
        parsed = self._coerce_query(query, None)
        cap = self._rewrite_limit if limit is None else limit
        engine = self._rewriting_engine()
        key = (parsed, cap)
        cached = self._rewrite_cache.get(key)
        if cached is None:
            candidates, rejected = engine.candidates(parsed, limit=cap)
            verified = engine.verify(
                parsed,
                candidates,
                workers=self._workers,
                executor=self._executor,
                seed=self._seed,
            )
            cached = (verified, rejected)
            put_bounded(self._rewrite_cache, key, cached, _REWRITE_CACHE_LIMIT)
        else:
            self._rewrite_cache_hits += 1
        verified, rejected = cached
        # Each report gets its own VerifiedRewriting wrappers: assemble_report
        # fills estimated_cost in place, and a later call with a different
        # ranking database must not rewrite the costs inside reports already
        # handed out.
        return assemble_report(
            parsed, [replace(outcome) for outcome in verified], rejected,
            engine.views, database,
        )

    def _rewriting_engine(self) -> RewritingEngine:
        if self._engine is None:
            self._engine = RewritingEngine(
                self.views,
                domain=self._domain,
                max_subsets=self._max_subsets,
                counterexample_trials=self._counterexample_trials,
                unknown_bound=self._unknown_bound,
            )
        return self._engine


def explain_cell(
    queries: Mapping[str, Query],
    results: Mapping[tuple[str, str], EquivalenceResult],
    provenance: Mapping[tuple[str, str], Mapping[str, object]],
    first: str,
    second: str,
) -> CellExplanation:
    """The decision provenance of one settled cell, from frozen state.

    The shared implementation behind :meth:`Workspace.explain` and the
    service's lock-free snapshot reads
    (:meth:`repro.service.snapshots.TenantSnapshot.explain`): it works over
    plain mappings, so a copied snapshot of a workspace's settled state
    explains cells exactly as the live workspace would."""
    if first == second:
        raise ReproError("explain() needs two distinct catalog queries")
    for name in (first, second):
        if name not in queries:
            raise ReproError(f"workspace has no query named {name!r}")
    pair = (first, second) if first < second else (second, first)
    result = results.get(pair)
    if result is None:
        raise ReproError(
            f"cell {pair!r} is not settled; call equivalences() first"
        )
    record = provenance.get(pair, {})
    bound = None
    search: dict[str, int] = {}
    if result.report is not None:
        bound = result.report.bound
        search = {
            "subsets_examined": result.report.subsets_examined,
            "orderings_examined": result.report.orderings_examined,
            "identities_checked": result.report.identities_checked,
            "subsets_skipped_by_symmetry": result.report.subsets_skipped_by_symmetry,
        }
    return CellExplanation(
        pair=pair,
        verdict=result.verdict.value,
        method=result.method,
        dispatch_class=dispatch_class_of(result.method),
        normalization=normalization_of(result.method),
        cache_served=bool(record.get("cache_served", False)),
        decision_path=str(record.get("path", "unknown")),
        decided_in_call=_maybe_int(record.get("call")),
        domain=result.domain.value,
        bound=bound,
        details=result.details or None,
        witness=result.counterexample,
        search=search,
    )


def _maybe_int(value: object) -> Optional[int]:
    return value if isinstance(value, int) else None


def _looks_like_sql(text: str) -> bool:
    head = text.lstrip().split(None, 1)
    return bool(head) and head[0].upper() == "SELECT"
