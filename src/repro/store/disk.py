"""Durable verdict storage: stdlib ``sqlite3`` behind an in-process LRU.

A :class:`VerdictStore` holds settled equivalence verdicts keyed by the
canonical pair key of :mod:`repro.store.canon`.  Records survive process
restarts when the store is given a path (WAL journal — one writer, many
concurrent readers), and an in-process record LRU serves hot pairs without
touching the file at all.  With no path the store is purely in-memory,
which still buys cross-*tenant* sharing inside one service process.

Rows carry everything needed to reconstruct an
:class:`~repro.core.equivalence.EquivalenceResult`, including the
counterexample database of a NOT_EQUIVALENT verdict.  Witness payloads are
serialized with a small tagged-JSON codec (exact ``Fraction`` values and
the container types evaluation results actually use); a payload the codec
cannot decode — e.g. written by a future schema — is treated as a miss,
never an error.

A NOT_EQUIVALENT record whose witness database is present is **never served
verbatim**: :mod:`repro.store.witness` re-evaluates both caller queries on
the stored database first and the record is dropped when they no longer
disagree.  EQUIVALENT and UNKNOWN verdicts transfer as-is — the decision
procedures are sound theorems about the queries, not about any particular
BASE.

The process-wide store is reached through :func:`shared_store` (always
available; in-memory unless ``REPRO_STORE_PATH`` is set) and
:func:`default_store` (the `Workspace` default: the shared store only when
``REPRO_STORE_PATH`` opts in, otherwise ``None`` — today's behavior).
``REPRO_STORE_MAX_MB`` bounds the database file; overflow evicts the
least-recently-*used* rows.  The singleton is registered with the cache
registry under ``clear_service_caches`` so service teardown and test
isolation reset it like every other process-wide cache.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from ..caches import register_cache
from ..core.bounded import Counterexample, EquivalenceReport
from ..core.equivalence import EquivalenceResult
from ..datalog.database import Database
from ..datalog.queries import Query
from ..domains import Domain
from ..obs import REGISTRY as _OBS
from .canon import pair_key

#: Bump when the row layout or the payload codec changes: rows written under
#: another version are ignored (a miss), never misread.
SCHEMA_VERSION = 1

#: Capacity of the per-store record LRU sitting in front of the disk layer.
_RECORD_LRU_CAPACITY = 4096

#: How many writes between file-size checks when ``max_mb`` is set.
_SIZE_CHECK_INTERVAL = 64

#: How many deferred recency touches accumulate before they are flushed to
#: disk in one transaction (reads must stay cheap; recency is advisory).
_TOUCH_FLUSH_INTERVAL = 128

_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS verdicts (
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


class StoreCodecError(ValueError):
    """A stored payload could not be decoded (foreign schema or corruption)."""


# ----------------------------------------------------------------------
# Tagged-JSON value codec
# ----------------------------------------------------------------------
def encode_value(value: object) -> object:
    """Encode one evaluation-result value into JSON-safe form.

    Scalars JSON represents faithfully (``None``, ``bool``, ``int``,
    ``str``) pass through; everything else becomes a ``{"t": ...}`` tagged
    object.  Exactness is preserved: a ``Fraction`` round-trips as a
    numerator/denominator pair, never a float.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return {"t": "frac", "n": value.numerator, "d": value.denominator}
    if isinstance(value, tuple):
        return {"t": "tup", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"t": "list", "v": [encode_value(item) for item in value]}
    if isinstance(value, Counter):
        return {
            "t": "counter",
            "v": [[encode_value(key), count] for key, count in value.items()],
        }
    if isinstance(value, (set, frozenset)):
        tag = "set" if isinstance(value, set) else "fset"
        return {"t": tag, "v": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {
            "t": "dict",
            "v": [[encode_value(key), encode_value(item)] for key, item in value.items()],
        }
    raise StoreCodecError(f"unencodable value of type {type(value).__name__}")


def decode_value(encoded: object) -> object:
    """Invert :func:`encode_value`; raises :class:`StoreCodecError` on an
    unknown tag."""
    if encoded is None or isinstance(encoded, (bool, int, str)):
        return encoded
    if isinstance(encoded, dict):
        tag = encoded.get("t")
        if tag == "frac":
            return Fraction(int(encoded["n"]), int(encoded["d"]))
        if tag == "tup":
            return tuple(decode_value(item) for item in encoded["v"])
        if tag == "list":
            return [decode_value(item) for item in encoded["v"]]
        if tag == "counter":
            counter: Counter[object] = Counter()
            for key, count in encoded["v"]:
                counter[decode_value(key)] = int(count)
            return counter
        if tag == "set":
            return {decode_value(item) for item in encoded["v"]}
        if tag == "fset":
            return frozenset(decode_value(item) for item in encoded["v"])
        if tag == "dict":
            return {decode_value(key): decode_value(item) for key, item in encoded["v"]}
        raise StoreCodecError(f"unknown payload tag {tag!r}")
    raise StoreCodecError(f"undecodable payload node of type {type(encoded).__name__}")


def encode_database(database: Database) -> list[list[object]]:
    """A database as a sorted fact list — deterministic, so identical
    witnesses write identical payload bytes."""
    rows = [
        [fact.predicate, [encode_value(value) for value in fact.values]]
        for fact in database.facts
    ]
    rows.sort(key=lambda row: json.dumps(row, sort_keys=True))
    return rows


def decode_database(rows: list[list[object]]) -> Database:
    facts: list[tuple[str, tuple[object, ...]]] = []
    for predicate, values in rows:
        if not isinstance(predicate, str) or not isinstance(values, list):
            raise StoreCodecError("malformed database row")
        facts.append((predicate, tuple(decode_value(value) for value in values)))
    return Database(facts)


@dataclass
class StoredRecord:
    """One verdict row, decoded from (or about to be encoded into) the DB.

    ``payload`` holds the tagged-JSON counterexample and report; left/right
    results inside it follow the *stored* pair orientation (the sorted hash
    order), not the caller's.
    """

    pair_key: str
    verdict: str
    method: str
    details: str
    domain: str
    #: A hash of the catalog-wide BASE recipe, written by stores from before
    #: every cell was decided over its own BASE.  Kept so those files stay
    #: servable; new rows write ``""`` and serving ignores it.
    base_fingerprint: str
    payload: dict[str, Any] = field(default_factory=dict)
    #: Witness-revalidation memo, filled by
    #: :func:`repro.store.witness.realize_result`: ``(database, left,
    #: right)`` in *stored* orientation, recorded after the witness
    #: reproduced its disagreement once in this process.  Never persisted —
    #: a row rewrite builds a fresh record and re-triggers validation.
    revalidation: Optional[tuple[Any, Any, Any]] = field(
        default=None, repr=False, compare=False
    )


def encode_result(result: EquivalenceResult, *, flipped: bool) -> dict[str, Any]:
    """The payload of a result, orientation-normalized to stored order.

    ``flipped`` says the caller's (first, second) is the reverse of the
    stored order, so witness left/right results swap on the way in (and
    will swap again on the way out for a flipped reader).
    """
    payload: dict[str, Any] = {}
    counterexample = result.counterexample
    if counterexample is not None:
        left, right = counterexample.left_result, counterexample.right_result
        if flipped:
            left, right = right, left
        payload["counterexample"] = {
            "database": (
                encode_database(counterexample.database)
                if counterexample.database is not None
                else None
            ),
            "left": encode_value(left),
            "right": encode_value(right),
        }
    report = result.report
    if report is not None:
        payload["report"] = {
            "equivalent": report.equivalent,
            "bound": report.bound,
            "subsets_examined": report.subsets_examined,
            "orderings_examined": report.orderings_examined,
            "identities_checked": report.identities_checked,
            "subsets_skipped_by_symmetry": report.subsets_skipped_by_symmetry,
            "workers_used": report.workers_used,
            "notes": list(report.notes),
        }
    return payload


def decode_report(
    record: StoredRecord, counterexample: Optional[Counterexample]
) -> Optional[EquivalenceReport]:
    encoded = record.payload.get("report")
    if encoded is None:
        return None
    return EquivalenceReport(
        equivalent=bool(encoded["equivalent"]),
        bound=int(encoded["bound"]),
        domain=Domain(record.domain),
        counterexample=counterexample,
        subsets_examined=int(encoded["subsets_examined"]),
        orderings_examined=int(encoded["orderings_examined"]),
        identities_checked=int(encoded["identities_checked"]),
        subsets_skipped_by_symmetry=int(encoded["subsets_skipped_by_symmetry"]),
        workers_used=int(encoded["workers_used"]),
        notes=[str(note) for note in encoded["notes"]],
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class VerdictStore:
    """Settled verdicts keyed by canonical pair key: record LRU over sqlite.

    Thread-safe (one lock around the LRU and the single connection —
    sqlite's WAL mode handles reader concurrency at the file level for
    *other* processes sharing the path).  ``path=None`` keeps everything in
    the LRU: same API, no persistence.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        max_mb: Optional[int] = None,
        lru_capacity: int = _RECORD_LRU_CAPACITY,
    ) -> None:
        self._lock = threading.Lock()
        self._records: "OrderedDict[str, StoredRecord]" = OrderedDict()
        self._lru_capacity = lru_capacity
        self._max_mb = max_mb
        self._path = path
        self._closed = False
        self._writes_since_size_check = 0
        self._pending_touches: dict[str, float] = {}
        self._preloaded = False
        self._connection: Optional[sqlite3.Connection] = None
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            connection = sqlite3.connect(path, check_same_thread=False)
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(_TABLE_DDL)
            connection.commit()
            self._connection = connection

    # ------------------------------------------------------------------
    @property
    def path(self) -> Optional[str]:
        return self._path

    @property
    def persistent(self) -> bool:
        return self._connection is not None

    def __len__(self) -> int:
        with self._lock:
            if self._connection is not None:
                row = self._connection.execute("SELECT COUNT(*) FROM verdicts").fetchone()
                return int(row[0])
            return len(self._records)

    # ------------------------------------------------------------------
    # Raw record access
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[StoredRecord]:
        """The stored record of a pair key, or ``None``.  Serves from the
        record LRU when possible; a disk read refreshes the row's recency."""
        with self._lock:
            if self._closed:
                return None
            cached = self._records.get(key)
            if cached is not None:
                self._records.move_to_end(key)
                _OBS.inc("store.disk.hits")
                return cached
            if self._connection is None:
                return None
            if not self._preloaded:
                # First disk read after open: when the whole table fits in
                # the record LRU, one sequential scan replaces hundreds of
                # point SELECTs (the restart-heavy access pattern).
                self._preloaded = True
                self._preload()
                cached = self._records.get(key)
                if cached is not None:
                    self._records.move_to_end(key)
                    self._pending_touches[key] = time.time()
                    _OBS.inc("store.disk.hits")
                    return cached
            row = self._connection.execute(
                "SELECT schema_version, verdict, method, details, domain,"
                " base_fingerprint, payload FROM verdicts WHERE pair_key = ?",
                (key,),
            ).fetchone()
            if row is None or int(row[0]) != SCHEMA_VERSION:
                return None
            try:
                payload = json.loads(row[6])
            except (TypeError, ValueError):
                return None
            record = StoredRecord(
                pair_key=key,
                verdict=str(row[1]),
                method=str(row[2]),
                details=str(row[3]),
                domain=str(row[4]),
                base_fingerprint=str(row[5]),
                payload=payload if isinstance(payload, dict) else {},
            )
            # Recency refresh is advisory (it only steers max_mb eviction),
            # so touches batch up and flush in one transaction rather than
            # paying a commit per read.
            self._pending_touches[key] = time.time()
            if len(self._pending_touches) >= _TOUCH_FLUSH_INTERVAL:
                self._flush_touches()
            self._remember(record)
            _OBS.inc("store.disk.hits")
            return record

    def write(self, record: StoredRecord) -> None:
        """Insert or replace a record (LRU and, when persistent, disk)."""
        with self._lock:
            if self._closed:
                return
            self._remember(record)
            _OBS.inc("store.disk.writes")
            if self._connection is None:
                return
            now = time.time()
            # The engine column holds the evaluation mode stores recorded
            # before there was one engine; rows write "" and nothing reads it.
            self._connection.execute(
                "INSERT OR REPLACE INTO verdicts (pair_key, schema_version, verdict,"
                " method, details, domain, engine, base_fingerprint, payload,"
                " created_s, last_used_s) VALUES (?, ?, ?, ?, ?, ?, '', ?, ?, ?, ?)",
                (
                    record.pair_key,
                    SCHEMA_VERSION,
                    record.verdict,
                    record.method,
                    record.details,
                    record.domain,
                    record.base_fingerprint,
                    json.dumps(record.payload, sort_keys=True),
                    now,
                    now,
                ),
            )
            self._connection.commit()
            self._writes_since_size_check += 1
            if self._max_mb is not None and self._writes_since_size_check >= _SIZE_CHECK_INTERVAL:
                self._writes_since_size_check = 0
                self._enforce_size_limit()

    def delete(self, key: str) -> None:
        with self._lock:
            if self._closed:
                return
            self._records.pop(key, None)
            self._pending_touches.pop(key, None)
            if self._connection is not None:
                self._connection.execute("DELETE FROM verdicts WHERE pair_key = ?", (key,))
                self._connection.commit()

    def _preload(self) -> None:
        """Load every current-schema row into the record LRU in one scan
        (caller holds the lock).  Skipped when the table outgrows the LRU —
        point lookups stay correct either way."""
        assert self._connection is not None
        count = int(self._connection.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0])
        if count == 0 or count > self._lru_capacity - len(self._records):
            return
        rows = self._connection.execute(
            "SELECT pair_key, schema_version, verdict, method, details, domain,"
            " base_fingerprint, payload FROM verdicts"
        ).fetchall()
        for row in rows:
            if int(row[1]) != SCHEMA_VERSION or row[0] in self._records:
                continue
            try:
                payload = json.loads(row[7])
            except (TypeError, ValueError):
                continue
            self._remember(
                StoredRecord(
                    pair_key=str(row[0]),
                    verdict=str(row[2]),
                    method=str(row[3]),
                    details=str(row[4]),
                    domain=str(row[5]),
                    base_fingerprint=str(row[6]),
                    payload=payload if isinstance(payload, dict) else {},
                )
            )

    def _flush_touches(self) -> None:
        """Write the accumulated recency touches in one transaction (caller
        holds the lock)."""
        if self._connection is not None and self._pending_touches:
            self._connection.executemany(
                "UPDATE verdicts SET last_used_s = ? WHERE pair_key = ?",
                [(when, key) for key, when in self._pending_touches.items()],
            )
            self._connection.commit()
        self._pending_touches.clear()

    def _remember(self, record: StoredRecord) -> None:
        self._records[record.pair_key] = record
        self._records.move_to_end(record.pair_key)
        while len(self._records) > self._lru_capacity:
            self._records.popitem(last=False)

    def _enforce_size_limit(self) -> None:
        """Evict least-recently-used rows until the file fits ``max_mb``."""
        assert self._connection is not None and self._max_mb is not None
        self._flush_touches()
        limit_bytes = self._max_mb * 1024 * 1024
        while True:
            page_count = int(self._connection.execute("PRAGMA page_count").fetchone()[0])
            page_size = int(self._connection.execute("PRAGMA page_size").fetchone()[0])
            if page_count * page_size <= limit_bytes:
                return
            victims = self._connection.execute(
                "SELECT pair_key FROM verdicts ORDER BY last_used_s ASC LIMIT 32"
            ).fetchall()
            if not victims:
                return
            for (victim,) in victims:
                self._connection.execute("DELETE FROM verdicts WHERE pair_key = ?", (victim,))
                self._records.pop(victim, None)
                _OBS.inc("store.disk.evicted")
            self._connection.commit()
            self._connection.execute("PRAGMA incremental_vacuum")
            self._connection.commit()

    # ------------------------------------------------------------------
    # Query-level API (what Workspace talks to)
    # ------------------------------------------------------------------
    def serve(
        self,
        first: Query,
        second: Query,
        domain: Domain = Domain.RATIONALS,
    ) -> Optional[EquivalenceResult]:
        """A previously settled verdict for the pair, or ``None``.

        NOT_EQUIVALENT verdicts with a concrete witness are revalidated by
        re-evaluating both *caller* queries on the stored database; a stale
        witness deletes the row and misses.
        """
        if self._closed:
            return None
        key = pair_key(first, second, domain)
        record = self.lookup(key.key)
        if record is None or record.domain != domain.value:
            return None
        from .witness import realize_result

        result = realize_result(record, first, second, flipped=key.flipped)
        if result is None:
            self.delete(key.key)
            return None
        return result

    def record(
        self,
        first: Query,
        second: Query,
        domain: Domain,
        result: EquivalenceResult,
    ) -> None:
        """Persist a freshly settled verdict for the pair."""
        if self._closed:
            return
        key = pair_key(first, second, domain)
        try:
            payload = encode_result(result, flipped=key.flipped)
        except StoreCodecError:
            # An unencodable witness value (should not happen for the
            # numeric results this system produces) loses persistence for
            # this one pair, never correctness.
            _OBS.inc("store.disk.unencodable")
            return
        self.write(
            StoredRecord(
                pair_key=key.key,
                verdict=result.verdict.value,
                method=result.method,
                details=result.details,
                domain=domain.value,
                base_fingerprint="",
                payload=payload,
            )
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the store: subsequent operations are silent misses/no-ops."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._records.clear()
            if self._connection is not None:
                self._flush_touches()
                self._connection.commit()
                self._connection.close()
                self._connection = None


# ----------------------------------------------------------------------
# The process-wide store
# ----------------------------------------------------------------------
#: The process-wide singleton slot: ``{"store": VerdictStore, "key": (path,
#: max_mb)}`` once :func:`shared_store` has run, empty before and after
#: resets.  A dict (rather than two globals) so the cache registry can own
#: it like every other module-level cache.
_SHARED_STORE: dict[str, object] = {}


def _environment_key() -> tuple[Optional[str], Optional[int]]:
    path = os.environ.get("REPRO_STORE_PATH") or None
    raw_limit = os.environ.get("REPRO_STORE_MAX_MB")
    try:
        max_mb = int(raw_limit) if raw_limit else None
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_STORE_MAX_MB={raw_limit!r} (expected an "
            "integer); the shared store is not size-capped",
            RuntimeWarning,
            stacklevel=3,
        )
        max_mb = None
    return path, max_mb


def shared_store() -> VerdictStore:
    """The process-wide store every tenant of the PR 9 service shares.

    In-memory unless ``REPRO_STORE_PATH`` names a database file.  The
    environment is re-read on every call, so a test (or an operator
    reloading config) that changes the path gets a fresh store instead of a
    stale one.
    """
    key = _environment_key()
    store = _SHARED_STORE.get("store")
    if not isinstance(store, VerdictStore) or _SHARED_STORE.get("key") != key:
        if isinstance(store, VerdictStore):
            store.close()
        store = VerdictStore(key[0], max_mb=key[1])
        _SHARED_STORE["store"] = store
        _SHARED_STORE["key"] = key
    return store


def default_store() -> Optional[VerdictStore]:
    """What a bare ``Workspace()`` uses: the shared store when
    ``REPRO_STORE_PATH`` opts in, otherwise ``None`` (today's in-memory-only
    behavior — one-shot callers see no change)."""
    if os.environ.get("REPRO_STORE_PATH"):
        return shared_store()
    return None


def reset_shared_store() -> None:
    """Close and drop the process-wide store (cache-registry clearer)."""
    store = _SHARED_STORE.pop("store", None)
    _SHARED_STORE.pop("key", None)
    if isinstance(store, VerdictStore):
        store.close()


register_cache("store/disk.py:_SHARED_STORE", "clear_service_caches", reset_shared_store)
