"""The kernel-source verifier and its REPRO_VERIFY_KERNELS wiring.

Two directions: every kernel the compiled engine actually generates across
the scenario catalogs passes verification (and the ``engine.kernel.verified``
counter proves verification ran, once per compile, never on the warm path);
and hostile kernel sources — imports, dunder access, names outside the
generated vocabulary, namespace injection — are rejected.
"""

from __future__ import annotations

import pytest

from repro import evaluate, parse_query
from repro.analysis import verify_kernel_source
from repro.engine import clear_evaluation_caches
from repro.engine.compile import (
    _KERNEL_CACHE,
    kernel_cache_stats,
    kernel_verification_enabled,
)
from repro.errors import KernelVerificationError
from repro.obs import REGISTRY
from repro.workloads import build_warehouse
from repro.workloads.scenarios import build_view_scenario


@pytest.fixture
def verified_kernels(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY_KERNELS", "1")
    clear_evaluation_caches()
    yield
    clear_evaluation_caches()


GOOD_KERNEL = (
    "def _kernel(store):\n"
    "    out = []\n"
    "    _append = out.append\n"
    "    _lo0, _hi0 = store.bounds('p')\n"
    "    for _row0 in store.rows('p'):\n"
    "        _v0 = _row0[0]\n"
    "        if not _v0 > _c0:\n"
    "            continue\n"
    "        _append((_v0, _row0[1]))\n"
    "    return out\n"
)


class TestGeneratedKernelsVerify:
    def test_warehouse_catalog_kernels_verify(self, verified_kernels):
        scenario = build_warehouse(stores=3, products=5, sales_per_store=6, seed=11)
        scenario.evaluate_all()
        stats = kernel_cache_stats()
        assert stats["compiles"] > 0
        assert REGISTRY.get("engine.kernel.verified") == stats["compiles"]

    def test_view_scenario_kernels_verify(self, verified_kernels):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=5, seed=7)
        database = scenario.materialized()
        for query in scenario.queries.values():
            evaluate(query, database)
        stats = kernel_cache_stats()
        assert stats["compiles"] > 0
        assert REGISTRY.get("engine.kernel.verified") == stats["compiles"]

    def test_every_cached_kernel_source_reverifies_standalone(self, verified_kernels):
        scenario = build_warehouse(stores=3, products=5, sales_per_store=6, seed=11)
        scenario.evaluate_all()
        assert _KERNEL_CACHE
        for kernel in _KERNEL_CACHE.values():
            verify_kernel_source(kernel._source)

    def test_warm_path_skips_verification(self, verified_kernels):
        query = parse_query("q(x, sum(y)) :- p(x, y), y > 0")
        from repro import parse_database

        database = parse_database("p(1, 2). p(1, 3). p(2, 5).")
        evaluate(query, database)
        verified = REGISTRY.get("engine.kernel.verified")
        assert verified == kernel_cache_stats()["compiles"]
        evaluate(query, database)
        assert REGISTRY.get("engine.kernel.verified") == verified
        assert kernel_cache_stats()["hits"] > 0

    def test_verification_is_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_KERNELS", raising=False)
        assert not kernel_verification_enabled()
        monkeypatch.setenv("REPRO_VERIFY_KERNELS", "0")
        assert not kernel_verification_enabled()
        monkeypatch.setenv("REPRO_VERIFY_KERNELS", "1")
        assert kernel_verification_enabled()


class TestHostileKernelsRejected:
    def test_the_reference_kernel_is_accepted(self):
        verify_kernel_source(GOOD_KERNEL, {"_c0": 3, "_op0": None})

    @pytest.mark.parametrize(
        "source",
        [
            # an import smuggled into the body
            "def _kernel(store):\n    import os\n    return out\n",
            # __import__ is not an allowed name
            "def _kernel(store):\n    _v0 = __import__('os')\n    return out\n",
            # dunder attribute access
            "def _kernel(store):\n    _v0 = store.__class__\n    return out\n",
            # attribute outside the store API
            "def _kernel(store):\n    _v0 = store.relations\n    return out\n",
            # name outside the generated vocabulary
            "def _kernel(store):\n    _v0 = open('x')\n    return out\n",
            "def _kernel(store):\n    evil = 1\n    return out\n",
            # returning anything but out
            "def _kernel(store):\n    return store\n",
            # a second top-level statement
            "def _kernel(store):\n    return out\nx = 1\n",
            # wrong function name / signature
            "def kernel(store):\n    return out\n",
            "def _kernel(store, extra):\n    return out\n",
            # disallowed statement and expression forms
            "def _kernel(store):\n    while store:\n        pass\n    return out\n",
            "def _kernel(store):\n    _v0 = [r for r in store.rows('p')]\n    return out\n",
            "def _kernel(store):\n    _v0 = _c0 + _c1\n    return out\n",
            "def _kernel(store):\n    _v0 = -1\n    return out\n",
            # exec/eval by name
            "def _kernel(store):\n    exec('1')\n    return out\n",
            # calling with keywords
            "def _kernel(store):\n    _rows0 = store.rows(name='p')\n    return out\n",
        ],
    )
    def test_hostile_source_is_rejected(self, source):
        with pytest.raises(KernelVerificationError):
            verify_kernel_source(source)

    def test_unparseable_source_is_rejected(self):
        with pytest.raises(KernelVerificationError):
            verify_kernel_source("def _kernel(store:\n")

    def test_namespace_injection_is_rejected(self):
        with pytest.raises(KernelVerificationError):
            verify_kernel_source(GOOD_KERNEL, {"os": object()})
