"""Machine-readable benchmark records (the ``--json PATH`` flag).

Each benchmark script emits a list of ``{"name": ..., "wall_s": ...,
"speedup": ..., "engine": ...}`` objects — one per headline measurement — so
a perf trajectory can be tracked across PRs by collecting the files CI (or a
developer) writes per run.  ``speedup`` is relative to the record's stated
baseline (1.0 for the baselines themselves).  ``engine`` names the evaluation
back end (``naive`` | ``compiled``) that produced the measurement; records
that do not pin one explicitly are stamped with the process-wide active
engine, so a trajectory never silently mixes back ends.
``counters`` snapshots the metrics registry (:data:`repro.obs.REGISTRY`) at
record time, so a perf regression can be cross-read against the work the run
actually performed (kernel compiles, subsets enumerated, pool forks, ...).
"""

from __future__ import annotations

import json
from typing import Optional, Sequence


def json_record(
    name: str,
    wall_s: float,
    speedup: Optional[float],
    engine: str = "compiled",
    counters: Optional[dict] = None,
) -> dict:
    """One benchmark record; ``speedup`` may be None when no baseline applies.

    ``engine`` names the back end the record measured: ``"compiled"`` (the
    one engine) unless the record times the naive reference.
    ``counters`` defaults to a snapshot of the metrics registry at the time
    the record is built — the cumulative work counters of the run so far.
    """
    if counters is None:
        from repro.obs import REGISTRY

        counters = REGISTRY.snapshot()
    return {
        "name": name,
        "wall_s": round(float(wall_s), 6),
        "speedup": None if speedup is None else round(float(speedup), 3),
        "engine": engine,
        "counters": dict(counters),
    }


def write_json_records(path: str, records: Sequence[dict]) -> None:
    """Write the records as a JSON array (one file per benchmark run)."""
    for record in records:
        missing = {"name", "wall_s", "speedup", "engine"} - set(record)
        if missing:
            raise ValueError(f"benchmark record {record!r} lacks keys: {sorted(missing)}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(list(records), handle, indent=2)
        handle.write("\n")
