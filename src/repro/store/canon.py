"""Canonical, rename-insensitive pair keys for the verdict store.

Equivalence verdicts are properties of the *semantics* of a query pair, but
the session's structural verdict cache keys on the literal ASTs: the same
pair with renamed variables, reordered literals, or reordered disjuncts —
the most common duplicate in a machine-generated workload — misses.  This
module maps each query to a canonical byte form by composing two
equivalence-preserving steps:

* **reduction** (:func:`repro.core.reduction.reduction_for_keying`) — the
  Section 7 machinery substitutes entailed equalities away, so ``y = 1``
  and ``y = z, z = 1`` bodies converge;
* **the canonical serialization** of :mod:`repro.datalog.canonical` — the
  naming and serialization behind
  :attr:`~repro.datalog.queries.Query.evaluation_key`, insensitive to
  alpha-renaming, literal order and duplicates within a disjunct, disjunct
  order (duplicate disjuncts are kept: under bag semantics a repeated
  disjunct doubles its contribution) and comparison orientation.

The form is that serialization of the reduced query, prefixed with
:data:`CANON_VERSION` and the domain.  Both steps preserve the query's
semantics, so *equal canonical hashes imply equivalent queries* — a key
collision between semantically different queries would require a SHA-256
collision.  The converse does not hold (two equivalent queries may hash
differently); a differing hash is only ever a cache miss, never an unsound
verdict.  Unlike the evaluation key, the store key is taken *after*
reduction, so it joins queries that are equivalent without being
isomorphic.

The pair key of ``(q1, q2)`` is the sorted hash pair plus an orientation
flag recording whether the caller's order matched the sorted order, so a
symmetric lookup can map a stored witness's left/right results back to the
caller's orientation.

Canonical forms are memoized per ``(query, domain)`` in a module-level LRU
registered with the cache registry under ``clear_service_caches`` — the
store serves many tenants, so its caches reset with the service layer's.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from ..caches import register_cache
from ..core.reduction import reduction_for_keying
from ..datalog.canonical import canonical_naming, serialize_body
from ..datalog.queries import Query
from ..domains import Domain
from ..obs import REGISTRY as _OBS

#: Version prefix baked into every canonical form (and therefore every
#: hash): bump when the serialization scheme changes so stale disk rows
#: can never be misread as current ones.
CANON_VERSION = "k1"

#: Cap on the canonical-form memo.  Entries are small (query -> hex digest)
#: but the store is process-wide, so the memo is bounded like every other
#: long-lived cache; eviction is least-recently-used.
_CANON_LRU_LIMIT = 8192

#: The canonical-form memo: ``(query, domain) -> hex digest``, LRU order.
_CANON_LRU: "OrderedDict[tuple[Query, Domain], str]" = OrderedDict()

register_cache("store/canon.py:_CANON_LRU", "clear_service_caches", _CANON_LRU.clear)


@dataclass(frozen=True)
class PairKey:
    """The store key of one unordered query pair.

    ``key`` is the sorted canonical hash pair joined with ``:``;
    ``flipped`` records that the *caller's* ``(first, second)`` order is the
    reverse of the stored order, so witness left/right results must swap on
    the way out.
    """

    key: str
    flipped: bool


def canonical_form(query: Query, domain: Domain = Domain.RATIONALS) -> str:
    """The canonical serialization of ``query`` over ``domain``.

    Deterministic, name-insensitive, and order-insensitive per the module
    docstring.  Primarily exposed for tests and debugging; cache keys use
    :func:`canonical_hash`.
    """
    reduced = reduction_for_keying(query, domain)
    naming, bailed_out = canonical_naming(reduced)
    if bailed_out:
        # Past the tie budget the naming follows variable names: a renamed
        # duplicate of this query may miss the store.
        _OBS.inc("store.canon.tie_bailouts")
    return f"{CANON_VERSION}|{domain.value}|{serialize_body(reduced, naming)}"


def canonical_hash(query: Query, domain: Domain = Domain.RATIONALS) -> str:
    """The content address of the query's canonical form (SHA-256 hex),
    memoized per ``(query, domain)`` in the module LRU."""
    memo_key = (query, domain)
    cached = _CANON_LRU.get(memo_key)
    if cached is not None:
        _CANON_LRU.move_to_end(memo_key)
        _OBS.inc("store.canon.hits")
        return cached
    _OBS.inc("store.canon.misses")
    digest = hashlib.sha256(canonical_form(query, domain).encode("utf-8")).hexdigest()
    if len(_CANON_LRU) >= _CANON_LRU_LIMIT:
        _CANON_LRU.popitem(last=False)
    _CANON_LRU[memo_key] = digest
    return digest


def pair_key(first: Query, second: Query, domain: Domain = Domain.RATIONALS) -> PairKey:
    """The symmetric store key of ``(first, second)`` with its orientation.

    The key is identical regardless of argument order; ``flipped`` is True
    exactly when the sorted storage order reverses the caller's order.
    """
    first_hash = canonical_hash(first, domain)
    second_hash = canonical_hash(second, domain)
    if first_hash <= second_hash:
        return PairKey(f"{first_hash}:{second_hash}", False)
    return PairKey(f"{second_hash}:{first_hash}", True)


def canon_cache_stats() -> dict[str, int]:
    """Size and hit/miss counters of the canonical-form memo."""
    return {
        "entries": len(_CANON_LRU),
        "hits": _OBS.get("store.canon.hits"),
        "misses": _OBS.get("store.canon.misses"),
    }
