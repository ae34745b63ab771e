"""Persistent, rename-insensitive verdict store.

The paper's decision procedures are expensive exactly once per *semantic*
query pair.  This package makes settled verdicts durable and shared:

* :mod:`repro.store.canon` — canonical pair keys: queries are reduced
  (Section 7), alpha-renamed into a deterministic order, and
  content-addressed, so renamed/reordered duplicates of a pair map to the
  same key.  Equal keys imply equivalent queries (every canonicalization
  step preserves semantics).
* :mod:`repro.store.disk` — :class:`VerdictStore`: an in-process record
  LRU over an optional stdlib-``sqlite3`` file (WAL), env-gated by
  ``REPRO_STORE_PATH`` / bounded by ``REPRO_STORE_MAX_MB``.  The file also
  persists each recorded query's canonical hash, so a restart over
  unchanged queries computes no canonical form.
* :mod:`repro.store.witness` — stored NOT_EQUIVALENT verdicts with a
  concrete witness are only served after the witness re-reproduces the
  disagreement on the caller's own queries.

:class:`~repro.session.Workspace` consults the store for every cell no
earlier call settled, before deciding it; the service shares one
process-wide store across all tenants (:func:`shared_store`).
"""

from .canon import (
    PairKey,
    QueryHash,
    canon_cache_stats,
    canonical_form,
    canonical_hash,
    hash_row_key,
    pair_key,
)
from .disk import (
    SCHEMA_VERSION,
    StoredRecord,
    StoreCodecError,
    VerdictStore,
    default_store,
    reset_shared_store,
    shared_store,
)
from .witness import realize_result

__all__ = [
    "PairKey",
    "QueryHash",
    "SCHEMA_VERSION",
    "StoreCodecError",
    "StoredRecord",
    "VerdictStore",
    "canon_cache_stats",
    "canonical_form",
    "canonical_hash",
    "hash_row_key",
    "default_store",
    "pair_key",
    "realize_result",
    "reset_shared_store",
    "shared_store",
]
