"""Named tenant workspaces with LRU lifetime management.

A tenant is one named :class:`~repro.session.Workspace` plus the
serialization primitive its mutations run under: an ``asyncio.Lock`` (one
writer at a time per tenant; different tenants mutate concurrently) and
the admission bookkeeping (``queued`` mutations waiting on the lock).

Tenants live in a process-wide LRU (:data:`_TENANT_LRU`, an
``OrderedDict`` in access order) so a long-lived server holds at most
``max_tenants`` warm workspaces per registry: creating a tenant beyond
capacity evicts the least-recently-used one through the single teardown
path — :meth:`Workspace.close` (pool terminated, per-session caches
dropped) plus :func:`repro.service.snapshots.drop`.  The LRU is registered
with the PR 8 cache registry under ``clear_service_caches``, whose clear
closes every surviving workspace the same way.

Each :class:`TenantRegistry` namespaces its keys with a process-unique
token, so independent registries (one per service instance; many per test
run) share the module-level store without colliding, and a registry's
:meth:`~TenantRegistry.close` tears down exactly its own tenants.

Tenants share no evaluation setting: every workspace decides through the
one compiled engine, so the only per-tenant state is the workspace itself.
"""

from __future__ import annotations

import asyncio
import itertools
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..caches import register_cache
from ..errors import ReproError
from ..obs import REGISTRY as _OBS
from ..session import Workspace
from ..store.disk import shared_store
from . import snapshots
from .admission import AdmissionPolicy
from .protocol import ProtocolError


class UnknownTenantError(ReproError):
    """A request naming a tenant the registry does not hold (never created,
    or evicted/deleted since)."""

    service_code = "unknown-tenant"
    http_status = 404


#: Tenant names are URL path segments and metric-name segments, so they are
#: restricted to a dot-free identifier alphabet.
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def validate_tenant_name(name: str) -> str:
    """``name`` when it is a usable tenant identifier; 400 otherwise."""
    if not _NAME_RE.match(name):
        raise ProtocolError(
            f"tenant name {name!r} must match [A-Za-z0-9_-]{{1,64}}"
        )
    return name


@dataclass
class Tenant:
    """One named workspace plus its serialization state."""

    name: str
    #: Registry-qualified store key (``"<token>:<name>"``).
    key: str
    workspace: Workspace
    #: Serializes mutations; read-only snapshot GETs never take it.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Mutation ordinal of the last published snapshot.
    version: int = 0
    #: Mutations currently queued on (or holding) the lock.
    queued: int = 0


#: The process-wide tenant LRU, in access order (least recent first).
#: Mutated only from event-loop threads through a TenantRegistry.
_TENANT_LRU: "OrderedDict[str, Tenant]" = OrderedDict()


def _close_all_tenants() -> None:
    while _TENANT_LRU:
        _key, tenant = _TENANT_LRU.popitem(last=False)
        tenant.workspace.close()


register_cache(
    "service/tenants.py:_TENANT_LRU", "clear_service_caches", _close_all_tenants
)

#: Process-unique registry tokens (the key namespace per registry).
_REGISTRY_TOKENS = itertools.count(1)


class TenantRegistry:
    """The tenant directory of one service instance."""

    def __init__(
        self,
        *,
        policy: AdmissionPolicy,
        workers: Optional[int] = None,
    ) -> None:
        self._token = next(_REGISTRY_TOKENS)
        self._policy = policy
        self._workers = workers

    # ------------------------------------------------------------------
    # Key namespace
    # ------------------------------------------------------------------
    def _key(self, name: str) -> str:
        return f"{self._token}:{name}"

    def _mine(self) -> list[tuple[str, Tenant]]:
        prefix = f"{self._token}:"
        return [
            (key, tenant)
            for key, tenant in _TENANT_LRU.items()
            if key.startswith(prefix)
        ]

    # ------------------------------------------------------------------
    # Lookup / creation
    # ------------------------------------------------------------------
    def get(self, name: str) -> Tenant:
        """The existing tenant ``name`` (marked most recently used)."""
        tenant = _TENANT_LRU.get(self._key(name))
        if tenant is None:
            raise UnknownTenantError(f"no tenant named {name!r}")
        _TENANT_LRU.move_to_end(self._key(name))
        return tenant

    def get_or_create(self, name: str) -> Tenant:
        """The tenant ``name``, created (evicting the LRU tenant beyond
        ``max_tenants``) when absent."""
        validate_tenant_name(name)
        key = self._key(name)
        tenant = _TENANT_LRU.get(key)
        if tenant is not None:
            _TENANT_LRU.move_to_end(key)
            return tenant
        mine = self._mine()
        while len(mine) >= self._policy.max_tenants:
            stale_key, stale = mine.pop(0)
            self._teardown(stale_key, stale)
            _OBS.inc("service.tenant.evictions")
        tenant = Tenant(
            name=name,
            key=key,
            workspace=Workspace(
                workers=self._workers,
                max_subsets=self._policy.max_subsets,
                # Every tenant shares the one process-wide verdict store
                # (disk-backed when REPRO_STORE_PATH is set, in-memory
                # otherwise): tenant A's settled cells serve tenant B's
                # renamed duplicates without re-running a sweep.
                store=shared_store(),
            ),
        )
        _TENANT_LRU[key] = tenant
        _OBS.inc("service.tenant.creations")
        return tenant

    def evict(self, name: str) -> bool:
        """Tear down tenant ``name``; ``False`` when it does not exist."""
        key = self._key(name)
        tenant = _TENANT_LRU.get(key)
        if tenant is None:
            return False
        self._teardown(key, tenant)
        return True

    def _teardown(self, key: str, tenant: Tenant) -> None:
        _TENANT_LRU.pop(key, None)
        snapshots.drop(key)
        tenant.workspace.close()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """This registry's tenant names, least recently used first."""
        return tuple(tenant.name for _key, tenant in self._mine())

    def __len__(self) -> int:
        return len(self._mine())

    def __contains__(self, name: str) -> bool:
        return self._key(name) in _TENANT_LRU

    def close(self) -> None:
        """Tear down every tenant this registry owns."""
        for key, tenant in self._mine():
            self._teardown(key, tenant)
