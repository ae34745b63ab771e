"""The runtime cache registry and the caches it must reset.

The contract under test is the one the ``cache-discipline`` checker
enforces statically: every module-level cache is registered under the
public clear entry that owns it, and calling that entry actually empties
the cache and zeroes its counters.  The ``_SETUP_MEMO`` leak test is the
counters-based proof the registration works end to end.
"""

from __future__ import annotations

import pytest

from repro.caches import (
    EXEMPT_CACHES,
    put_bounded,
    register_cache,
    registered_cache_keys,
    registered_caches,
)
from repro.engine import clear_evaluation_caches, clear_symbolic_caches
from repro.obs import REGISTRY
from repro.parallel import tasks


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_evaluation_caches()
    yield
    clear_evaluation_caches()


class TestRegistry:
    def test_core_caches_are_registered(self):
        keys = registered_cache_keys()
        assert "engine/compile.py:_KERNEL_CACHE" in keys
        assert "engine/columnar.py:_STORE_CACHE" in keys
        assert "parallel/tasks.py:_SETUP_MEMO" in keys
        assert any(key.startswith("engine/symbolic.py:") for key in keys)

    def test_registrations_and_exemptions_are_disjoint(self):
        overlap = registered_cache_keys() & set(EXEMPT_CACHES)
        assert not overlap

    def test_every_registration_names_a_known_clearer(self):
        for registration in registered_caches():
            assert registration.clearer in (
                "clear_evaluation_caches",
                "clear_symbolic_caches",
                "clear_service_caches",
            ), registration.key

    def test_every_exemption_carries_a_reason(self):
        for key, reason in EXEMPT_CACHES.items():
            assert reason.strip(), f"exemption {key} has no reason"

    def test_reregistration_replaces(self):
        first = register_cache("tests:_TMP", "clear_evaluation_caches", None)
        calls: list[str] = []
        second = register_cache("tests:_TMP", "clear_evaluation_caches", lambda: calls.append("x"))
        try:
            assert first != second
            clear_evaluation_caches()
            assert calls == ["x"]
        finally:
            from repro.caches import _REGISTRATIONS

            _REGISTRATIONS.pop("tests:_TMP", None)

    def test_clearers_only_run_their_own_caches(self):
        evaluation: list[str] = []
        symbolic: list[str] = []
        register_cache("tests:_EVAL", "clear_evaluation_caches", lambda: evaluation.append("e"))
        register_cache("tests:_SYM", "clear_symbolic_caches", lambda: symbolic.append("s"))
        try:
            clear_evaluation_caches()
            assert evaluation == ["e"] and symbolic == []
            clear_symbolic_caches()
            assert symbolic == ["s"]
        finally:
            from repro.caches import _REGISTRATIONS

            _REGISTRATIONS.pop("tests:_EVAL", None)
            _REGISTRATIONS.pop("tests:_SYM", None)


def test_put_bounded_evicts_the_oldest_quarter():
    cache = {index: index for index in range(8)}
    put_bounded(cache, "new", "value", 8)
    assert list(cache) == [2, 3, 4, 5, 6, 7, "new"]
    put_bounded(cache, "next", "value", 8)
    assert len(cache) == 8


class TestSetupMemoLeak:
    """``_SETUP_MEMO`` must reset through ``clear_evaluation_caches`` —
    proven through its own counters, not by peeking alone."""

    def test_memo_counts_builds_and_hits(self):
        sentinel = object()
        key = ("test-leak", 1)
        assert tasks._memoized_setup(key, lambda: sentinel) is sentinel
        assert tasks._memoized_setup(key, lambda: object()) is sentinel
        assert REGISTRY.get("parallel.setup.builds") == 1
        assert REGISTRY.get("parallel.setup.hits") == 1

    def test_clear_evaluation_caches_drops_the_memo_and_its_counters(self):
        key = ("test-leak", 2)
        tasks._memoized_setup(key, lambda: object())
        tasks._memoized_setup(key, lambda: object())
        assert key in tasks._SETUP_MEMO
        assert REGISTRY.get("parallel.setup.builds") == 1

        clear_evaluation_caches()

        assert key not in tasks._SETUP_MEMO
        assert not tasks._SETUP_MEMO
        assert REGISTRY.get("parallel.setup.builds") == 0
        assert REGISTRY.get("parallel.setup.hits") == 0

        # a post-clear lookup rebuilds rather than resurrecting stale state
        rebuilt = tasks._memoized_setup(key, lambda: "fresh")
        assert rebuilt == "fresh"
        assert REGISTRY.get("parallel.setup.builds") == 1
        assert REGISTRY.get("parallel.setup.hits") == 0

    def test_memo_eviction_keeps_the_cap(self):
        for index in range(tasks._SETUP_MEMO_LIMIT + 8):
            tasks._memoized_setup(("test-cap", index), object)
        assert len(tasks._SETUP_MEMO) <= tasks._SETUP_MEMO_LIMIT
