"""Engine selection: ``naive`` | ``compiled``.

Two engines answer every evaluation request in the system:

* ``naive`` — the original nested-loop engine over concrete databases, kept
  verbatim as the executable specification (the differential oracle).
  It has no symbolic counterpart: Γ(q, S_L) always runs the compiled kernels.
* ``compiled`` (default) — the columnar engine: relations are interned into
  integer id columns (:mod:`repro.engine.columnar`) and each plan is code-
  generated once into a specialized Python function
  (:mod:`repro.engine.compile`) that is reused across the thousands of
  evaluations a sweep performs.

The active engine is a process-global mode, initialized from the
``REPRO_ENGINE`` environment variable and switchable at runtime with
:func:`set_engine` / :func:`engine_scope`.  Parallel task builders capture the
active mode into their (picklable) tasks so worker processes decide under the
same engine as the parent, regardless of how the pool was started.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import ReproError

ENGINE_NAIVE = "naive"
ENGINE_COMPILED = "compiled"

#: Recognized engine modes: the reference first, then the default.
ENGINE_MODES = (ENGINE_NAIVE, ENGINE_COMPILED)

DEFAULT_ENGINE = ENGINE_COMPILED


def _validate(mode: str) -> str:
    if mode not in ENGINE_MODES:
        raise ReproError(
            f"unknown engine mode {mode!r}; expected one of {', '.join(ENGINE_MODES)}"
        )
    return mode


def _initial_engine() -> str:
    requested = os.environ.get("REPRO_ENGINE", "").strip().lower()
    return _validate(requested) if requested else DEFAULT_ENGINE


_ACTIVE_ENGINE = _initial_engine()


def active_engine() -> str:
    """The engine mode every evaluation entry point currently dispatches to."""
    return _ACTIVE_ENGINE


def set_engine(mode: str) -> str:
    """Set the active engine mode; returns the previous mode."""
    global _ACTIVE_ENGINE
    previous = _ACTIVE_ENGINE
    _ACTIVE_ENGINE = _validate(mode)
    return previous


@contextmanager
def engine_scope(mode: Optional[str]) -> Iterator[str]:
    """Temporarily activate an engine mode (``None`` keeps the current one).

    The scope is how the mode threads through the layered entry points
    (``evaluate_many``, ``decide_pairs``, :class:`~repro.session.Workspace`)
    and how worker processes restore the parent's mode around each task.
    """
    if mode is None:
        yield _ACTIVE_ENGINE
        return
    previous = set_engine(mode)
    try:
        yield mode
    finally:
        set_engine(previous)
