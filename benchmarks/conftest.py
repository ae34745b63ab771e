"""Shared configuration for the benchmark harness.

Each ``bench_*.py`` file measures one subsystem against its floor; the
module docstring of each file names what it measures.  Tables 1 and 2 of
the paper are regenerated by ``examples/decision_procedures_tour.py``.

Besides the timing numbers collected by pytest-benchmark, every benchmark
appends one or more human-readable result rows to a session-wide report; the
report is printed at the end of the run and written to
``benchmarks/reproduction_summary.txt`` so two runs can be diffed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.store import reset_shared_store

_SUMMARY_PATH = Path(__file__).resolve().parent / "reproduction_summary.txt"


@pytest.fixture(autouse=True)
def _isolated_verdict_store(monkeypatch, tmp_path):
    """Benchmarks measure decision work, so no benchmark may be fed verdicts
    another one settled: drop the process-wide store around each, and point
    an inherited ``REPRO_STORE_PATH`` at a per-test file (the store
    benchmark manages its own paths explicitly)."""
    import os

    if os.environ.get("REPRO_STORE_PATH"):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "verdicts.sqlite3"))
    reset_shared_store()
    yield
    reset_shared_store()


def pytest_configure(config):
    config.addinivalue_line("markers", "paper_artifact(name): maps a benchmark to a paper artifact")


@pytest.fixture(scope="session")
def report_lines():
    """Collector for human-readable result rows written at the end of the run."""
    lines: list[str] = []
    yield lines
    if not lines:
        return
    header = [
        "=" * 78,
        "Reproduction summary (paper artifact -> measured)",
        "=" * 78,
    ]
    body = header + lines
    _SUMMARY_PATH.write_text("\n".join(body) + "\n")
    print()
    for line in body:
        print(line)
    print(f"(written to {_SUMMARY_PATH})")
