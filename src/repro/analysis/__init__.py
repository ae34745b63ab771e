"""repro.analysis — static invariant checks and the kernel-source verifier.

Two layers guard the invariants the test suite only samples:

* **Static analysis** (``python -m repro.analysis``): an AST-based checker
  framework (:mod:`repro.analysis.framework`) with five repo-specific rules
  (:mod:`repro.analysis.checkers`) — cache discipline, seeded randomness,
  verdict soundness, fork safety, and the engine boundary — run over the
  package source and exit-code gated in CI.  Inline suppressions
  (``# repro: allow[rule] -- reason``) require a reason.
* **Kernel verification** (:mod:`repro.analysis.kernelcheck`): every
  code-generated kernel from :mod:`repro.engine.compile` is parsed and
  validated against a closed whitelist grammar before ``exec`` when
  ``REPRO_VERIFY_KERNELS=1`` — once per compiled kernel, so the warm path
  never pays for it.
"""

from .checkers import ALL_CHECKERS
from .cli import analyze_paths, default_root, main
from .framework import (
    Checker,
    Finding,
    Program,
    SourceModule,
    Suppression,
    run_checkers,
)
from .kernelcheck import STORE_API, verify_kernel_source

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "Program",
    "STORE_API",
    "SourceModule",
    "Suppression",
    "analyze_paths",
    "default_root",
    "main",
    "run_checkers",
    "verify_kernel_source",
]
