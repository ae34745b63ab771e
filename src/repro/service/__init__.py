"""Equivalence-as-a-service: a multi-tenant asyncio server over Workspace.

The library's session layer (:mod:`repro.session`) made the *session* the
unit of reuse; this package makes the session a *served resource*: a
stdlib-only HTTP/JSON front end hosting named tenant workspaces, each with
its own catalog, settled cells, and persistent worker pool.

Layering (each module one concern):

* :mod:`~repro.service.protocol` — typed requests, JSON payloads,
  structured error codes mapped from :mod:`repro.errors`.
* :mod:`~repro.service.admission` — per-tenant budgets
  (``REPRO_SERVICE_*``) checked before work queues.
* :mod:`~repro.service.tenants` — the tenant directory: workspace +
  per-tenant mutation lock, LRU-evicted through ``Workspace.close()``.
* :mod:`~repro.service.snapshots` — frozen copy-on-write snapshots of each
  tenant's settled state, so read-only GETs skip the writer lock.
* :mod:`~repro.service.app` — the asyncio server, routing, and the
  mutation/read concurrency model; ``python -m repro.service`` serves it.

Run ``python -m repro.service --port 8765`` and talk JSON::

    curl -s localhost:8765/healthz
    curl -s -XPOST localhost:8765/tenant/t1/add \\
         -d '{"query": "q(x, sum(y)) :- p(x, y)"}'
    curl -s -XPOST localhost:8765/tenant/t1/equivalences
"""

from __future__ import annotations

from ..caches import run_registered_clears
from .admission import AdmissionError, AdmissionPolicy
from .app import ReproService, ServiceHandle, start_in_thread
from .protocol import (
    AddRequest,
    ExplainRequest,
    ProtocolError,
    RewriteRequest,
    RouteError,
    ViewRequest,
    error_payload,
)
from .snapshots import TenantSnapshot
from .tenants import Tenant, TenantRegistry, UnknownTenantError


def clear_service_caches() -> None:
    """Reset the service layer's module-level state: close every tenant
    workspace in the LRU and drop every published snapshot.  The caches
    register under this entry (:mod:`repro.caches`), so the reset stays
    discoverable by the cache-discipline checker."""
    run_registered_clears("clear_service_caches")


__all__ = [
    "AddRequest",
    "AdmissionError",
    "AdmissionPolicy",
    "ExplainRequest",
    "ProtocolError",
    "ReproService",
    "RewriteRequest",
    "RouteError",
    "ServiceHandle",
    "Tenant",
    "TenantRegistry",
    "TenantSnapshot",
    "UnknownTenantError",
    "ViewRequest",
    "clear_service_caches",
    "error_payload",
    "start_in_thread",
]
