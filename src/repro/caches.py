"""The module-level cache registry: every mutable module-level cache, named.

The engine accumulated per-module caches PR by PR — the kernel cache, the
columnar store cache, the shared symbolic Γ tables, the parallel worker's
setup memo — each reset by convention from one of two public entry points
(:func:`repro.engine.clear_evaluation_caches`,
:func:`repro.engine.clear_symbolic_caches`).  Nothing *enforced* the
convention: a new cache that forgot to join a clear function leaked silently,
which a long-lived multi-tenant process turns from a flaky test into a
cross-tenant cache-poisoning bug.

This module makes the convention a checked contract, in two halves:

* **Runtime**: a module that owns a cache calls :func:`register_cache` at
  import time, naming the cache (``"<relpath>:<NAME>"`` relative to the
  ``repro`` package), the public clear entry that owns its reset, and —
  unless the clear entry already drops it by hand — a callable that performs
  the drop.  The owning clear entry calls :func:`run_registered_clears` so
  registered caches reset without that entry naming them one by one.
* **Static**: the ``cache-discipline`` checker of :mod:`repro.analysis`
  discovers every module-level mutable container in the package and requires
  each to be registered here (it reads the ``register_cache`` call sites
  syntactically) or listed in :data:`EXEMPT_CACHES` with a reason.

Keys are ``"engine/compile.py:_KERNEL_CACHE"``-style: the module path
relative to the package root, a colon, the module-level name.  A
registration must appear *in the module the key names* — the checker
enforces that too, so a cache's reset wiring always sits next to its
definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class CacheRegistration:
    """One registered module-level cache."""

    #: ``"<relpath>:<NAME>"``, e.g. ``"engine/compile.py:_KERNEL_CACHE"``.
    key: str
    #: The public clear entry that owns the reset (``"clear_evaluation_caches"``
    #: or ``"clear_symbolic_caches"``).
    clearer: str
    #: The drop, invoked by :func:`run_registered_clears`; ``None`` when the
    #: owning clear entry drops the cache by hand (kept for caches whose reset
    #: also resets counters or sibling ``lru_cache``\ s in one place).
    clear: Optional[Callable[[], None]] = None


# The registry itself and the exemption manifest are module-level mutable
# containers; both are listed in EXEMPT_CACHES below (they live for the
# process and are append-only after import).
_REGISTRATIONS: dict[str, CacheRegistration] = {}

#: Module-level mutable containers that are *not* caches: constant lookup
#: tables and append-only registries populated at import time.  The
#: cache-discipline checker requires every entry to carry a non-empty reason
#: and to still exist in the source it names.
EXEMPT_CACHES: dict[str, str] = {
    "caches.py:_REGISTRATIONS": "the cache registry itself; append-only at import time",
    "caches.py:EXEMPT_CACHES": "the exemption manifest itself; constant after import",
    "aggregates/functions.py:_REGISTRY": "aggregation-function registry; append-only at import time",
    "aggregates/properties.py:PAPER_TABLE1": "constant reproduction of the paper's Table 1",
    "core/equivalence.py:PAPER_TABLE2": "constant reproduction of the paper's Table 2",
    "datalog/atoms.py:_FLIPPED": "constant comparison-operator flip table",
    "datalog/atoms.py:_NEGATED": "constant comparison-operator negation table",
    "datalog/atoms.py:_BY_SYMBOL": "constant symbol-to-operator parse table",
    "datalog/parser.py:_NEGATION_WORDS": "constant parser keyword set",
    "engine/compile.py:_OP_TEXT": "constant operator-to-Python-source table",
    "engine/compile.py:_CONST_COMPARE": "constant bounds-comparison codegen table",
    "rewriting/unfold.py:THREADED_PAIRINGS": "constant aggregate-threading rule table",
    "service/app.py:_STATUS_TEXT": "constant HTTP status-to-reason-phrase table",
    "sql/parser.py:_AGGREGATE_KEYWORDS": "constant SQL aggregate keyword set",
    "workloads/scenarios.py:WAREHOUSE_SCHEMA": "constant scenario schema description",
}


def register_cache(
    key: str, clearer: str, clear: Optional[Callable[[], None]] = None
) -> CacheRegistration:
    """Register a module-level cache under the clear entry that resets it.

    Re-registration with the same key replaces the entry (modules re-imported
    under ``importlib.reload`` re-run their registrations); the static checker
    separately guarantees one registration site per cache.
    """
    registration = CacheRegistration(key, clearer, clear)
    _REGISTRATIONS[key] = registration
    return registration


def put_bounded(cache: dict[Any, Any], key: Any, value: Any, limit: int) -> None:
    """Store ``cache[key] = value``, first evicting the oldest quarter of
    ``limit`` entries when the cache is full.

    Dicts iterate in insertion order, so this bounds a long-lived process's
    memory without the per-hit bookkeeping of a true LRU.
    """
    if len(cache) >= limit:
        for stale in list(itertools.islice(iter(cache), limit // 4)):
            del cache[stale]
    cache[key] = value


def run_registered_clears(clearer: str) -> None:
    """Invoke the ``clear`` callable of every cache registered under
    ``clearer`` (deterministic: registration order)."""
    for registration in list(_REGISTRATIONS.values()):
        if registration.clearer == clearer and registration.clear is not None:
            registration.clear()


def registered_caches() -> tuple[CacheRegistration, ...]:
    """Every registration, in registration order."""
    return tuple(_REGISTRATIONS.values())


def registered_cache_keys() -> frozenset[str]:
    """The keys of every registered cache."""
    return frozenset(_REGISTRATIONS)
