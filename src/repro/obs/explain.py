"""Structured provenance for a settled equivalence cell.

`Workspace.explain(q1, q2)` returns a :class:`CellExplanation`: everything
the session knows about *how* a verdict was reached — the dispatch class
the pair was classified into, the full method string, whether count-form
normalization was applied, which sweep group (if any) carried the cell,
which engine evaluated it, whether this verdict was freshly decided or
served from the structural verdict cache, and the witness when the verdict
is NOT_EQUIVALENT.

The dispatch class is recovered from the method string the dispatcher
recorded (`core/equivalence.py` writes one distinctive method per branch),
so explanations stay truthful for verdicts decided before the session
layer existed — nothing here second-guesses the decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

#: method-string prefix -> dispatch class, in match order (first hit wins).
#: Mirrors the procedure constants of ``core.equivalence`` (importing them
#: here would close a ``repro.obs`` <-> ``repro.core`` import cycle; a test
#: pins the two together).
_DISPATCH_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("local-equivalence (set semantics)", "set-semantics"),
    ("local-equivalence (Theorem 6.5/6.6)", "aggregate-local"),
    ("quasilinear isomorphism", "quasilinear"),
    ("counterexample search (different aggregation functions)",
     "different-aggregates"),
    ("different aggregation functions", "different-aggregates"),
    ("counterexample search", "undecided-fragment"),
    ("bounded equivalence", "undecided-fragment"),
    ("undecided fragment", "undecided-fragment"),
    ("search-space budget exceeded", "budget-exceeded"),
)


def dispatch_class_of(method: str) -> str:
    """The dispatch class implied by a dispatcher method string."""
    for prefix, klass in _DISPATCH_CLASSES:
        if method.startswith(prefix):
            return klass
    return "unknown"


def normalization_of(method: str) -> Optional[str]:
    """The normalization suffix recorded in ``method``, if any.

    The dispatcher appends ``" (after sum→count normalization)"`` or
    ``" (after sum→{c}·count normalization)"`` when the count-form
    reduction applied; this recovers that annotation.
    """
    marker = " (after "
    index = method.find(marker)
    if index < 0:
        return None
    return method[index + len(marker):].rstrip(")")


@dataclass(frozen=True)
class CellExplanation:
    """The decision trace of one settled workspace cell."""

    #: The cell, in the (sorted-name) orientation the session stores.
    pair: Tuple[str, str]
    #: ``EQUIVALENT`` / ``NOT_EQUIVALENT`` / ``UNKNOWN`` (enum value string).
    verdict: str
    #: The dispatcher's full method string, verbatim.
    method: str
    #: The dispatch branch the pair was classified into (derived from
    #: ``method``): ``set-semantics``, ``aggregate-local``, ``quasilinear``,
    #: ``different-aggregates``, ``undecided-fragment``, ``budget-exceeded``.
    dispatch_class: str
    #: The count-form normalization annotation, or ``None`` when none applied.
    normalization: Optional[str]
    #: Engine mode the decision ran under (``naive``/``compiled``).
    engine: str
    #: ``True`` when the verdict was served from the structural verdict
    #: cache; ``False`` when this cell was freshly decided.
    cache_served: bool
    #: How the cell was decided: ``"sweep:<group>"`` when a shared
    #: single-sweep enumeration carried it, ``"pair"`` for a standalone pair
    #: task, ``"cache"`` when only ever cache-served, ``"unknown"`` for
    #: verdicts that predate provenance recording.
    decision_path: str
    #: 1-based ordinal of the ``equivalences()`` call that decided the cell
    #: (``None`` when unknown).
    decided_in_call: Optional[int]
    #: Domain the decision holds over, and the τ bound when the method
    #: reports one (``None`` otherwise).
    domain: Optional[str] = None
    bound: Optional[int] = None
    #: Free-form details string from the decision procedure.
    details: Optional[str] = None
    #: The counterexample witness for NOT_EQUIVALENT verdicts.
    witness: Optional[Any] = None
    #: Search-effort counters from the decision report (empty when the
    #: branch needed no search).
    search: Mapping[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """A one-line human rendering of the provenance."""
        origin = "cache" if self.cache_served else self.decision_path
        parts = [
            f"{self.pair[0]} vs {self.pair[1]}: {self.verdict}",
            f"via {self.method}",
            f"[class={self.dispatch_class}, engine={self.engine}, "
            f"origin={origin}]",
        ]
        if self.normalization:
            parts.append(f"normalized ({self.normalization})")
        if self.witness is not None:
            parts.append(f"witness: {self.witness}")
        return " ".join(parts)
