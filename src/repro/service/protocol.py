"""The service wire protocol: typed requests, JSON payloads, error codes.

The HTTP front end (:mod:`repro.service.app`) is a thin framing layer; this
module is where the *meaning* of a request or response lives, so the codec
is testable without a socket:

* **Requests** are frozen dataclasses (:class:`AddRequest`,
  :class:`ViewRequest`, :class:`RewriteRequest`, :class:`ExplainRequest`)
  with ``from_payload`` constructors that validate a decoded JSON object
  field by field.  Validation failures raise :class:`ProtocolError`, which
  serializes as a structured 400 like every other error.
* **Responses** are plain ``dict[str, object]`` payloads built by the
  ``*_payload`` functions from the library's own result objects
  (:class:`~repro.core.equivalence.EquivalenceResult`,
  :class:`~repro.obs.CellExplanation`,
  :class:`~repro.rewriting.engine.RewritingReport`,
  :class:`~repro.session.WorkspaceStats`) — no result object crosses the
  wire un-translated.
* **Errors** map from the :mod:`repro.errors` hierarchy to
  ``(HTTP status, {"error": {"code", "message", "type"}})`` through
  :data:`_ERROR_CODES` (most specific type first).  Service-layer errors
  (admission rejections, unknown tenants, bad routes) instead carry their
  own ``service_code`` / ``http_status`` class attributes, which
  :func:`error_payload` honors before consulting the table.  An error whose
  type sets ``retryable = True`` (:class:`~repro.errors.WorkerCrashError`)
  additionally ships ``retryable`` and ``retry_after_s`` — the client
  contract for "the pool died, re-send and the executor will have
  re-forked".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.equivalence import EquivalenceResult
from ..errors import (
    DomainError,
    EvaluationError,
    KernelVerificationError,
    MalformedQueryError,
    QuerySyntaxError,
    ReproError,
    RewritingError,
    SearchSpaceBudgetError,
    UndecidableError,
    UnsafeQueryError,
    UnsatisfiableOrderingError,
    UnsupportedAggregateError,
    WorkerCrashError,
)
from ..obs import CellExplanation
from ..rewriting.candidates import RejectedCandidate
from ..rewriting.engine import RewritingReport, VerifiedRewriting
from ..session import WorkspaceStats

#: Seconds a client should wait before re-sending a retryable failure; by
#: then the process executor has discarded the dead pool and the next
#: run re-forks a fresh one.
RETRY_AFTER_S = 1


class ProtocolError(ReproError):
    """A request that fails structural validation: not a JSON object, a
    missing or mistyped field, an unusable tenant name."""

    service_code = "bad-request"
    http_status = 400


class RouteError(ProtocolError):
    """A method/path combination the service does not serve."""

    service_code = "not-found"
    http_status = 404


#: :mod:`repro.errors` type → (code, HTTP status); first ``isinstance``
#: match wins, so specific types precede :class:`ReproError`.  A dead pool
#: is the one 503 (retryable — the executor self-heals); a blown sweep
#: budget is an admission-style 429 (the request was well-formed but over
#: the tenant's configured search budget).
_ERROR_CODES: tuple[tuple[type[ReproError], tuple[str, int]], ...] = (
    (WorkerCrashError, ("worker-crashed", 503)),
    (SearchSpaceBudgetError, ("search-budget-exceeded", 429)),
    (QuerySyntaxError, ("query-syntax", 400)),
    (UnsafeQueryError, ("unsafe-query", 400)),
    (MalformedQueryError, ("malformed-query", 400)),
    (DomainError, ("bad-domain", 400)),
    (UnsupportedAggregateError, ("unsupported-aggregate", 400)),
    (UndecidableError, ("undecidable", 422)),
    (UnsatisfiableOrderingError, ("unsatisfiable-ordering", 400)),
    (RewritingError, ("rewriting", 400)),
    (EvaluationError, ("evaluation-failed", 500)),
    (KernelVerificationError, ("kernel-verification", 500)),
    (ReproError, ("repro-error", 400)),
)


def error_payload(error: ReproError) -> tuple[int, dict[str, object]]:
    """``(HTTP status, body)`` for a library or service error."""
    code: str = "internal"
    status: int = 500
    own_code = getattr(error, "service_code", None)
    own_status = getattr(error, "http_status", None)
    if isinstance(own_code, str) and isinstance(own_status, int):
        code, status = own_code, own_status
    else:
        for error_type, (mapped_code, mapped_status) in _ERROR_CODES:
            if isinstance(error, error_type):
                code, status = mapped_code, mapped_status
                break
    detail: dict[str, object] = {
        "code": code,
        "message": str(error),
        "type": type(error).__name__,
    }
    if bool(getattr(error, "retryable", False)):
        detail["retryable"] = True
        detail["retry_after_s"] = RETRY_AFTER_S
    return status, {"error": detail}


# ----------------------------------------------------------------------
# Request decoding
# ----------------------------------------------------------------------
def decode_body(body: bytes) -> dict[str, object]:
    """A request body as a JSON object (empty body → empty object)."""
    if not body:
        return {}
    try:
        decoded: object = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"request body is not valid JSON: {error}") from None
    if not isinstance(decoded, dict):
        raise ProtocolError("request body must be a JSON object")
    return {str(key): value for key, value in decoded.items()}


def _required_str(payload: Mapping[str, object], name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"field {name!r} must be a non-empty string")
    return value


def _optional_str(payload: Mapping[str, object], name: str) -> Optional[str]:
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"field {name!r} must be a non-empty string when given")
    return value


def _optional_int(payload: Mapping[str, object], name: str) -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProtocolError(f"field {name!r} must be a non-negative integer when given")
    return value


@dataclass(frozen=True)
class AddRequest:
    """``POST /tenant/{id}/add`` — ingest one query into the catalog."""

    query: str
    name: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "AddRequest":
        return cls(
            query=_required_str(payload, "query"),
            name=_optional_str(payload, "name"),
        )


@dataclass(frozen=True)
class ViewRequest:
    """``POST /tenant/{id}/view`` — register a view, either as one
    ``CREATE VIEW ... AS SELECT ...`` statement (``sql``) or as a
    ``(name, definition)`` Datalog pair."""

    sql: Optional[str] = None
    name: Optional[str] = None
    definition: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ViewRequest":
        sql = _optional_str(payload, "sql")
        name = _optional_str(payload, "name")
        definition = _optional_str(payload, "definition")
        if sql is not None and (name is not None or definition is not None):
            raise ProtocolError("pass either 'sql' or 'name'+'definition', not both")
        if sql is None and (name is None or definition is None):
            raise ProtocolError("a view needs 'sql' or both 'name' and 'definition'")
        return cls(sql=sql, name=name, definition=definition)


@dataclass(frozen=True)
class RewriteRequest:
    """``POST /tenant/{id}/rewrite`` — rewrite a query over the tenant's
    registered views."""

    query: str
    limit: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RewriteRequest":
        return cls(
            query=_required_str(payload, "query"),
            limit=_optional_int(payload, "limit"),
        )


@dataclass(frozen=True)
class ExplainRequest:
    """``GET /tenant/{id}/explain?first=a&second=b`` — provenance of one
    settled cell."""

    first: str
    second: str

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ExplainRequest":
        return cls(
            first=_required_str(payload, "first"),
            second=_required_str(payload, "second"),
        )


# ----------------------------------------------------------------------
# Response payloads
# ----------------------------------------------------------------------
def result_payload(result: EquivalenceResult) -> dict[str, object]:
    """One equivalence verdict, with provenance, as plain JSON data."""
    payload: dict[str, object] = {
        "verdict": result.verdict.value,
        "method": result.method,
        "domain": result.domain.value,
    }
    if result.details:
        payload["details"] = result.details
    if result.counterexample is not None:
        payload["counterexample"] = str(result.counterexample)
    return payload


def matrix_payload(
    cells: Mapping[tuple[str, str], EquivalenceResult],
) -> dict[str, object]:
    """A settled equivalence matrix as a sorted cell list."""
    return {
        "cells": [
            {"first": first, "second": second, **result_payload(result)}
            for (first, second), result in sorted(
                cells.items(), key=lambda item: item[0]
            )
        ]
    }


def explanation_payload(explanation: CellExplanation) -> dict[str, object]:
    """A :class:`~repro.obs.CellExplanation` as plain JSON data."""
    payload: dict[str, object] = {
        "pair": list(explanation.pair),
        "verdict": explanation.verdict,
        "method": explanation.method,
        "dispatch_class": explanation.dispatch_class,
        "normalization": explanation.normalization,
        "engine": explanation.engine,
        "cache_served": explanation.cache_served,
        "decision_path": explanation.decision_path,
        "decided_in_call": explanation.decided_in_call,
        "domain": explanation.domain,
        "bound": explanation.bound,
        "search": dict(explanation.search),
    }
    if explanation.details:
        payload["details"] = explanation.details
    if explanation.witness is not None:
        payload["witness"] = str(explanation.witness)
    return payload


def _verified_payload(verified: VerifiedRewriting) -> dict[str, object]:
    entry: dict[str, object] = {
        "name": verified.candidate.name,
        "query": str(verified.candidate.query),
        "views": list(verified.candidate.view_names),
        "result": result_payload(verified.result),
    }
    if verified.candidate.description:
        entry["description"] = verified.candidate.description
    if verified.estimated_cost is not None:
        entry["estimated_cost"] = verified.estimated_cost
    return entry


def _rejected_payload(rejected: RejectedCandidate) -> dict[str, object]:
    return {"view": rejected.view_name, "reason": rejected.reason}


def rewriting_payload(report: RewritingReport) -> dict[str, object]:
    """A :class:`~repro.rewriting.engine.RewritingReport` as plain JSON."""
    best = report.best
    return {
        "query": str(report.query),
        "safe": [_verified_payload(verified) for verified in report.safe],
        "not_equivalent": [
            _verified_payload(verified) for verified in report.not_equivalent
        ],
        "unverified": [
            _verified_payload(verified) for verified in report.unverified
        ],
        "rejected": [_rejected_payload(rejected) for rejected in report.rejected],
        "direct_cost": report.direct_cost,
        "best": best.candidate.name if best is not None else None,
    }


def stats_payload(stats: WorkspaceStats) -> dict[str, object]:
    """A :class:`~repro.session.WorkspaceStats` as plain JSON data."""
    return {
        "queries": stats.queries,
        "views": stats.views,
        "decided_cells": stats.decided_cells,
        "verdict_cache_hits": stats.verdict_cache_hits,
        "store_hits": stats.store_hits,
        "rewrite_cache_hits": stats.rewrite_cache_hits,
        "pool_forks": stats.pool_forks,
        "workers": stats.workers,
        "plan_cache": dict(stats.plan_cache),
        "counters": {scope: dict(values) for scope, values in stats.counters.items()},
    }


def encode(payload: Mapping[str, object]) -> bytes:
    """A response payload as UTF-8 JSON (sorted keys, so renderings are
    stable across runs and easy to diff in tests)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")
