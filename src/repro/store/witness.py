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
"""

from __future__ import annotations

from typing import Optional

from ..core.bounded import Counterexample
from ..core.equivalence import EquivalenceResult, Verdict
from ..datalog.queries import Query
from ..domains import Domain
from ..engine.evaluator import evaluate
from ..obs import REGISTRY as _OBS
from .disk import StoredRecord, StoreCodecError, decode_database, decode_report, decode_value


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
        _OBS.inc("store.witness.revalidated")
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
    # reproduced its disagreement, later serves of the same in-memory
    # record — typically renamed duplicates of the pair — reuse the
    # reproduced answers instead of re-evaluating.  A row rewrite replaces
    # the record object and re-triggers validation.
    memo = record.revalidation
    if memo is not None:
        database, left, right = memo
        if flipped:
            left, right = right, left
        return Counterexample(database=database, left_result=left, right_result=right)
    database = decode_database(encoded_database)
    try:
        left = evaluate(first, database)
        right = evaluate(second, database)
    except Exception as error:  # noqa: BLE001 - any failure means "stale"
        raise StoreCodecError(f"witness re-evaluation failed: {error}") from error
    if left == right:
        return None
    record.revalidation = (
        (database, right, left) if flipped else (database, left, right)
    )
    return Counterexample(database=database, left_result=left, right_result=right)
