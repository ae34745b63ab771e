"""Canonical, rename-insensitive pair keys for the verdict store.

Equivalence verdicts are properties of the *semantics* of a query pair, so
the store keys a pair by what its queries mean, not by their literal ASTs:
the same pair with renamed variables, reordered literals, or reordered
disjuncts — the most common duplicate in a machine-generated workload —
must map to one key.  This module maps each query to a canonical byte form
by composing two equivalence-preserving steps:

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
caller's orientation.  A caller that already holds both hashes (a matrix
resolves each query once, not once per cell) passes them in, and the key
is then one comparison of two hex strings.

Canonical forms are memoized per ``(query, domain)`` in a module-level LRU
registered with the cache registry under ``clear_service_caches`` — the
store serves many tenants, so its caches reset with the service layer's.

**Persisted hashes.**  Because the hash is a function of the query alone —
not of the pair, the catalog or the process — a disk-backed store may keep
it across restarts (:class:`~repro.store.disk.VerdictStore`): its
``canon_hashes`` table maps :func:`hash_row_key` — :data:`CANON_VERSION`,
the domain and an exact, type-tagged serialization of the query, names
included — to the digest.  The serialization is injective on query values,
so a row is only ever read back for a query equal to the one whose hash was
computed, and a persisted hash is exactly as sound as a fresh one.  A
renamed or reordered query has another row key: it misses the table and is
hashed afresh (and still meets its renamed twin at the verdict row).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import NamedTuple, Optional

from ..caches import register_cache
from ..core.reduction import reduction_for_keying
from ..datalog.atoms import Literal, RelationalAtom
from ..datalog.canonical import canonical_naming, serialize_body
from ..datalog.queries import Query
from ..datalog.terms import Term, Variable
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


class PairKey(NamedTuple):
    """The store key of one unordered query pair.

    ``key`` is the sorted canonical hash pair joined with ``:``;
    ``flipped`` records that the *caller's* ``(first, second)`` order is the
    reverse of the stored order, so witness left/right results must swap on
    the way out.
    """

    key: str
    flipped: bool


class QueryHash(NamedTuple):
    """A query's canonical hash as a store resolved it.

    ``unwritten_row`` is the :func:`hash_row_key` a disk-backed store has no
    row for yet (the digest was computed afresh); recording a verdict of the
    query writes that row.  ``None`` when the row exists or the store keeps
    no hash table.
    """

    digest: str
    unwritten_row: Optional[str] = None


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


def hash_row_key(query: Query, domain: Domain = Domain.RATIONALS) -> str:
    """The key a disk store persists the query's canonical hash under:
    ``CANON_VERSION|domain|<exact serialization>``.

    The serialization is the ``repr`` of nested tuples of the query's
    fields — name, head terms, aggregate and every literal of every
    disjunct, in order — with each term tagged by its Python type (a
    variable is its quoted name, a constant its ``int`` or ``Fraction``).
    Equal keys therefore mean equal query values, whatever names the
    variables and predicates carry.
    """
    aggregate = query.aggregate
    exact = (
        query.name,
        tuple(map(_exact_term, query.head_terms)),
        None
        if aggregate is None
        else (aggregate.function, tuple(map(_exact_term, aggregate.arguments))),
        tuple(tuple(map(_exact_literal, disjunct.literals)) for disjunct in query.disjuncts),
    )
    return f"{CANON_VERSION}|{domain.value}|{exact!r}"


def _exact_term(term: Term) -> object:
    return term.name if isinstance(term, Variable) else term.value


def _exact_literal(literal: Literal) -> tuple[object, ...]:
    if isinstance(literal, RelationalAtom):
        return (literal.negated, literal.predicate, tuple(map(_exact_term, literal.arguments)))
    return (literal.op.value, _exact_term(literal.left), _exact_term(literal.right))


def pair_key(
    first: Query,
    second: Query,
    domain: Domain = Domain.RATIONALS,
    *,
    digests: Optional[tuple[str, str]] = None,
) -> PairKey:
    """The symmetric store key of ``(first, second)`` with its orientation.

    The key is identical regardless of argument order; ``flipped`` is True
    exactly when the sorted storage order reverses the caller's order.
    ``digests`` are the two queries' canonical hashes when the caller
    already holds them; otherwise both are taken from :func:`canonical_hash`.
    """
    if digests is None:
        first_hash = canonical_hash(first, domain)
        second_hash = canonical_hash(second, domain)
    else:
        first_hash, second_hash = digests
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
