"""Per-tenant admission control: budgets checked before work is queued.

A multi-tenant server cannot let one tenant grow a catalog without bound,
queue mutations faster than the worker pool drains them, or submit sweeps
whose subset enumeration runs for minutes: each of those starves every
other tenant of the shared process.  :class:`AdmissionPolicy` is the small
set of knobs bounding that, checked *before* a request occupies the tenant
lock or a pool worker:

* ``max_tenants`` — registry capacity; beyond it the least-recently-used
  tenant is *evicted* (workspace closed, snapshot dropped) rather than the
  new one rejected, matching cache semantics: tenants are cheap to rebuild
  from their query texts.
* ``max_queries`` — catalog size per tenant; the ``add`` that would exceed
  it is rejected.
* ``max_subsets`` — the sweep search budget threaded into each tenant's
  :class:`~repro.session.Workspace`; a sweep that exceeds it fails as a
  structured 429 (``search-budget-exceeded``) instead of running away.
* ``max_queued`` — mutations a tenant may have waiting on its lock; beyond
  it new mutations are rejected immediately (429 ``queue-full``) so a slow
  sweep cannot pile up unbounded work behind itself.

Every limit reads from ``REPRO_SERVICE_<NAME>`` via :meth:`from_env`, and
every rejection is an :class:`AdmissionError` — a structured 429 whose
``code`` names the exhausted budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.bounded import DEFAULT_MAX_SUBSETS
from ..errors import ReproError

#: Prefix of every service configuration environment variable.
ENV_PREFIX = "REPRO_SERVICE_"


class AdmissionError(ReproError):
    """A request rejected by admission control (never started executing).

    ``code`` names the exhausted budget (``"query-budget"``,
    ``"queue-full"``); the HTTP layer serializes this as a 429 with that
    code, so clients can tell back-off-and-retry (``queue-full``) from
    reduce-your-catalog (``query-budget``) apart."""

    http_status = 429

    def __init__(self, code: str, message: str) -> None:
        self.service_code = code
        super().__init__(message)


def _read_limit(env: Mapping[str, str], name: str, default: int) -> int:
    raw = env.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ReproError(
            f"{ENV_PREFIX + name} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ReproError(f"{ENV_PREFIX + name} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class AdmissionPolicy:
    """The per-tenant budgets one service instance enforces."""

    max_tenants: int = 32
    max_queries: int = 256
    max_subsets: int = DEFAULT_MAX_SUBSETS
    max_queued: int = 8

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "AdmissionPolicy":
        """A policy from ``REPRO_SERVICE_MAX_TENANTS`` /
        ``..._MAX_QUERIES`` / ``..._MAX_SUBSETS`` / ``..._MAX_QUEUED``
        (unset variables keep the dataclass defaults)."""
        source = os.environ if env is None else env
        return cls(
            max_tenants=_read_limit(source, "MAX_TENANTS", cls.max_tenants),
            max_queries=_read_limit(source, "MAX_QUERIES", cls.max_queries),
            max_subsets=_read_limit(source, "MAX_SUBSETS", cls.max_subsets),
            max_queued=_read_limit(source, "MAX_QUEUED", cls.max_queued),
        )

    # ------------------------------------------------------------------
    # The checks (raise AdmissionError; never mutate anything)
    # ------------------------------------------------------------------
    def admit_query(self, catalog_size: int) -> None:
        """Admit adding one query to a catalog currently holding
        ``catalog_size``."""
        if catalog_size >= self.max_queries:
            raise AdmissionError(
                "query-budget",
                f"tenant catalog is at its {self.max_queries}-query budget; "
                "evict the tenant (DELETE) or raise REPRO_SERVICE_MAX_QUERIES",
            )

    def admit_mutation(self, queued: int) -> None:
        """Admit queueing one more mutation behind ``queued`` waiting ones."""
        if queued >= self.max_queued:
            raise AdmissionError(
                "queue-full",
                f"tenant already has {queued} mutations queued "
                f"(budget {self.max_queued}); retry after the queue drains",
            )
