"""Witness revalidation: when a stored NOT_EQUIVALENT may be served.

A stored EQUIVALENT (or UNKNOWN) is a theorem about the two queries — the
decision procedures are sound over every database, so the verdict transfers
to any caller and any BASE.  A stored NOT_EQUIVALENT with a
concrete witness database is different in kind: it is an *empirical* claim
("on this database the answers differ") whose serialized form could have
gone stale — written by older code, mangled on disk, or simply no longer a
disagreement for the caller's literal queries.  So before such a verdict is
served, the witness is deserialized and **both caller queries are
re-evaluated on it**; only a reproduced
disagreement is served (with the freshly computed answers, counted as
``store.witness.revalidated``).  Anything else — agreement, undecodable
payload, evaluation error — counts as ``store.witness.stale`` and misses,
which deletes the row and falls through to a fresh decision (witness
re-derivation on demand).

NOT_EQUIVALENT verdicts *without* a concrete database (shape mismatches,
symbolic-only counterexamples) are structural facts like EQUIVALENT and are
served as-is.

Re-evaluating with the caller's own queries also makes orientation and
renaming worries vanish for witnesses: the answers are computed fresh, so
the served counterexample's left/right always match the caller's
(first, second) order no matter how the pair was stored.

A record is decoded once per orientation: the realized result is memoized
on the in-memory record (``StoredRecord.realized``), and every serve hands
out a fresh copy of it.  So a witness is re-checked on the record's first
serve in the process, and its later serves — renamed duplicates of the
pair, typically, or the other orientation — are counted as
``store.witness.revalidated`` and reuse the reproduced answers, which is
sound because canonically equal queries are equivalent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.bounded import Counterexample
from ..core.equivalence import EquivalenceResult, Verdict
from ..datalog.queries import Query
from ..domains import Domain
from ..engine.evaluator import evaluate
from ..obs import REGISTRY as _OBS

if TYPE_CHECKING:
    from .disk import StoredRecord

# The store's serve path (repro.store.disk) imports this module, so the
# payload codec is imported where a record is first decoded, not here.


def realize_result(
    record: StoredRecord,
    first: Query,
    second: Query,
    *,
    flipped: bool,
) -> Optional[EquivalenceResult]:
    """Reconstruct an :class:`EquivalenceResult` from a stored record, in
    the caller's (first, second) orientation, or ``None`` when the record
    must not be served (stale witness / undecodable payload).

    ``flipped`` says the stored orientation reverses the caller's, so
    stored left/right results swap on the way out (moot for concrete
    witnesses, which are re-evaluated instead of trusted).
    """
    realized = record.realized.get(flipped)
    if realized is None:
        realized = _realize(record, first, second, flipped)
        if realized is None:
            return None
        record.realized[flipped] = realized
    if realized.verdict is Verdict.NOT_EQUIVALENT and realized.counterexample is not None:
        _OBS.inc("store.witness.revalidated")
    return EquivalenceResult(
        verdict=realized.verdict,
        method=realized.method,
        domain=realized.domain,
        details=realized.details,
        counterexample=realized.counterexample,
        report=realized.report,
    )


def _realize(
    record: StoredRecord,
    first: Query,
    second: Query,
    flipped: bool,
) -> Optional[EquivalenceResult]:
    """Decode the record in the caller's orientation and re-check its
    witness; ``None`` (counted as ``store.witness.stale``) when it must not
    be served."""
    from .disk import StoreCodecError, decode_report

    try:
        verdict = Verdict(record.verdict)
        domain = Domain(record.domain)
    except ValueError:
        _OBS.inc("store.witness.stale")
        return None
    try:
        counterexample = _realize_counterexample(record, first, second, flipped)
    except StoreCodecError:
        _OBS.inc("store.witness.stale")
        return None
    if verdict is Verdict.NOT_EQUIVALENT and record.payload.get("counterexample") is not None:
        if counterexample is None:
            # The stored disagreement did not reproduce: the row is stale
            # and the caller must re-decide.
            _OBS.inc("store.witness.stale")
            return None
    report = decode_report(record, counterexample)
    return EquivalenceResult(
        verdict=verdict,
        method=record.method,
        domain=domain,
        details=record.details,
        counterexample=counterexample,
        report=report,
    )


def _realize_counterexample(
    record: StoredRecord,
    first: Query,
    second: Query,
    flipped: bool,
) -> Optional[Counterexample]:
    from .disk import StoreCodecError, decode_database, decode_value

    encoded = record.payload.get("counterexample")
    if encoded is None:
        return None
    if not isinstance(encoded, dict):
        raise StoreCodecError("malformed counterexample payload")
    encoded_database = encoded.get("database")
    if encoded_database is None:
        # Witness-less counterexample (e.g. incomparable shapes): a
        # structural fact — swap stored left/right into caller order.
        left = decode_value(encoded.get("left"))
        right = decode_value(encoded.get("right"))
        if flipped:
            left, right = right, left
        return Counterexample(database=None, left_result=left, right_result=right)
    if not isinstance(encoded_database, list):
        raise StoreCodecError("malformed witness database")
    # Canonically-equal queries are semantically equivalent (the invariant
    # the canonical keying is built on), so once this record's witness has
    # reproduced its disagreement in one orientation, the other orientation
    # swaps the reproduced answers instead of re-evaluating.
    other = record.realized.get(not flipped)
    if other is not None and other.counterexample is not None:
        reproduced = other.counterexample
        return Counterexample(
            database=reproduced.database,
            left_result=reproduced.right_result,
            right_result=reproduced.left_result,
        )
    database = decode_database(encoded_database)
    try:
        left = evaluate(first, database)
        right = evaluate(second, database)
    except Exception as error:  # noqa: BLE001 - any failure means "stale"
        raise StoreCodecError(f"witness re-evaluation failed: {error}") from error
    if left == right:
        return None
    return Counterexample(database=database, left_result=left, right_result=right)
