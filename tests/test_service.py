"""Tests for the multi-tenant service layer (:mod:`repro.service`).

Everything HTTP-shaped goes through a real server: ``start_in_thread``
boots the asyncio loop on a daemon thread and the tests talk to it with
stdlib ``http.client`` over the loopback, so request framing, routing,
error serialization, and the snapshot read path are exercised exactly as a
client would.  Protocol and admission logic are additionally unit-tested
without a socket.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro import Workspace
from repro.errors import ReproError, WorkerCrashError
from repro.obs import REGISTRY
from repro.service import (
    AddRequest,
    AdmissionError,
    AdmissionPolicy,
    ExplainRequest,
    ProtocolError,
    RewriteRequest,
    TenantRegistry,
    ViewRequest,
    clear_service_caches,
    error_payload,
    start_in_thread,
)
from repro.service import snapshots as snapshot_store
from repro.service.protocol import decode_body

#: A small catalog with equivalent, non-equivalent, and cross-aggregate
#: pairs, so matrices exercise several dispatch classes.
CATALOG = {
    "a": "q(x, sum(y)) :- p(x, y)",
    "b": "q(x, sum(z)) :- p(x, z)",
    "c": "q(x, max(y)) :- p(x, y)",
    "d": "q(x, count()) :- p(x, y), y > 0",
}


class Client:
    """A minimal JSON-over-HTTP client for the test server."""

    def __init__(self, address: tuple[str, int], timeout: float = 120.0):
        self.host, self.port = address
        self.timeout = timeout

    def request(self, method: str, path: str, payload=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            conn.close()

    def fill(self, tenant: str, catalog: dict) -> None:
        for name, text in catalog.items():
            status, _data = self.request(
                "POST", f"/tenant/{tenant}/add", {"query": text, "name": name}
            )
            assert status == 200


@pytest.fixture
def service():
    handle = start_in_thread(workers=1)
    yield handle
    handle.stop()


def _verdicts(cells: list) -> dict:
    return {(cell["first"], cell["second"]): (cell["verdict"], cell["method"]) for cell in cells}


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_served_matrix_matches_direct_workspace(self, service):
        client = Client(service.address)
        client.fill("t", CATALOG)
        status, data = client.request("POST", "/tenant/t/equivalences")
        assert status == 200
        with Workspace(workers=1) as direct:
            for name, text in CATALOG.items():
                direct.add(text, name=name)
            expected = direct.equivalences()
        served = _verdicts(data["cells"])
        assert served.keys() == expected.keys()
        for pair, result in expected.items():
            assert served[pair] == (result.verdict.value, result.method)

    def test_snapshot_read_and_explain(self, service):
        client = Client(service.address)
        client.fill("t", CATALOG)
        status, decided = client.request("POST", "/tenant/t/equivalences")
        assert status == 200
        status, read = client.request("GET", "/tenant/t/equivalences")
        assert status == 200
        assert _verdicts(read["cells"]) == _verdicts(decided["cells"])
        assert read["version"] == decided["version"]

        status, explanation = client.request("GET", "/tenant/t/explain?first=b&second=a")
        assert status == 200
        assert explanation["pair"] == ["a", "b"]
        assert explanation["verdict"] == "equivalent"
        assert explanation["cache_served"] is False
        assert explanation["decision_path"] != "unknown"
        # Unsettled pairs stay errors — snapshot explains never decide.
        status, error = client.request("GET", "/tenant/t/explain?first=a&second=zzz")
        assert status == 400
        assert error["error"]["type"] == "ReproError"

    def test_view_registration_and_rewrite(self, service):
        client = Client(service.address)
        status, _data = client.request(
            "POST",
            "/tenant/t/view",
            {"name": "v", "definition": "v(x, y) :- p(x, y)"},
        )
        assert status == 200
        status, report = client.request(
            "POST", "/tenant/t/rewrite", {"query": "q(x, sum(y)) :- p(x, y)"}
        )
        assert status == 200
        with Workspace(workers=1) as direct:
            direct.register_view("v", "v(x, y) :- p(x, y)")
            expected = direct.rewrite("q(x, sum(y)) :- p(x, y)")
        assert [entry["name"] for entry in report["safe"]] == [
            verified.candidate.name for verified in expected.safe
        ]
        assert report["best"] == (
            expected.best.candidate.name if expected.best else None
        )

    def test_stats_and_metrics_surface_service_counters(self, service):
        client = Client(service.address)
        client.fill("t", dict(list(CATALOG.items())[:2]))
        status, _data = client.request("POST", "/tenant/t/equivalences")
        assert status == 200
        status, stats = client.request("GET", "/tenant/t/stats")
        assert status == 200
        assert stats["queries"] == 2
        assert stats["decided_cells"] == 1
        status, metrics = client.request("GET", "/metrics")
        assert status == 200
        service_counters = metrics["counters"]["service"]
        assert service_counters["requests"] >= 5
        assert service_counters["queue_depth"] == 0

    def test_healthz_and_tenant_listing(self, service):
        client = Client(service.address)
        status, health = client.request("GET", "/healthz")
        assert (status, health["status"]) == (200, "ok")
        client.fill("t1", {"a": CATALOG["a"]})
        client.fill("t2", {"a": CATALOG["a"]})
        status, listing = client.request("GET", "/tenants")
        assert status == 200
        assert sorted(listing["tenants"]) == ["t1", "t2"]
        status, deleted = client.request("DELETE", "/tenant/t1")
        assert (status, deleted["deleted"]) == (200, "t1")
        status, listing = client.request("GET", "/tenants")
        assert listing["tenants"] == ["t2"]


# ----------------------------------------------------------------------
# Tenant isolation
# ----------------------------------------------------------------------
class TestTenantIsolation:
    def test_catalogs_and_matrices_do_not_leak_across_tenants(self, service):
        client = Client(service.address)
        client.fill("red", {"a": CATALOG["a"], "b": CATALOG["b"]})
        client.fill("blue", {"c": CATALOG["c"], "d": CATALOG["d"]})
        status, red = client.request("POST", "/tenant/red/equivalences")
        assert status == 200
        status, blue = client.request("POST", "/tenant/blue/equivalences")
        assert status == 200
        assert {cell["first"] for cell in red["cells"]} == {"a"}
        assert {cell["first"] for cell in blue["cells"]} == {"c"}
        # A name that exists in one tenant is a 400 in the other's explain.
        status, _err = client.request("GET", "/tenant/blue/explain?first=a&second=b")
        assert status == 400

    def test_versions_advance_independently(self, service):
        client = Client(service.address)
        client.fill("red", {"a": CATALOG["a"]})
        client.fill("blue", {"c": CATALOG["c"]})
        status, more = client.request(
            "POST", "/tenant/red/add", {"query": CATALOG["b"], "name": "b"}
        )
        assert (status, more["version"]) == (200, 2)
        status, read = client.request("GET", "/tenant/blue/equivalences")
        assert (status, read["version"]) == (200, 1)

    def test_metrics_keys_do_not_grow_with_tenants(self, service):
        # Each tenant re-adds its queries under new names, so its second
        # matrix holds cells identical to cells it settled before; no
        # counter may be keyed by the tenant that settled them.
        client = Client(service.address)
        tenants = ["tenantkiwi", "tenantlime", "tenantplum"]
        pair = {"a": CATALOG["a"], "c": CATALOG["c"]}
        for tenant in tenants:
            client.fill(tenant, pair)
            status, _data = client.request("POST", f"/tenant/{tenant}/equivalences")
            assert status == 200
            client.fill(tenant, {f"{name}2": text for name, text in pair.items()})
            status, data = client.request("POST", f"/tenant/{tenant}/equivalences")
            assert status == 200
            assert len(data["cells"]) == 6
        named = [key for key in REGISTRY.snapshot() if any(t in key for t in tenants)]
        assert named == []


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_query_budget_rejects_with_429(self):
        handle = start_in_thread(
            workers=1, policy=AdmissionPolicy(max_queries=2)
        )
        try:
            client = Client(handle.address)
            client.fill("t", {"a": CATALOG["a"], "b": CATALOG["b"]})
            status, rejection = client.request(
                "POST", "/tenant/t/add", {"query": CATALOG["c"], "name": "c"}
            )
            assert status == 429
            assert rejection["error"]["code"] == "query-budget"
        finally:
            handle.stop()

    def test_policy_checks_raise_structured_admission_errors(self):
        policy = AdmissionPolicy(max_queries=3, max_queued=2)
        policy.admit_query(2)
        with pytest.raises(AdmissionError) as caught:
            policy.admit_query(3)
        status, payload = error_payload(caught.value)
        assert (status, payload["error"]["code"]) == (429, "query-budget")
        with pytest.raises(AdmissionError) as caught:
            policy.admit_mutation(2)
        assert caught.value.service_code == "queue-full"

    def test_policy_reads_environment(self):
        env = {
            "REPRO_SERVICE_MAX_TENANTS": "3",
            "REPRO_SERVICE_MAX_QUERIES": "7",
            "REPRO_SERVICE_MAX_SUBSETS": "1000",
            "REPRO_SERVICE_MAX_QUEUED": "2",
        }
        policy = AdmissionPolicy.from_env(env)
        assert (policy.max_tenants, policy.max_queries) == (3, 7)
        assert (policy.max_subsets, policy.max_queued) == (1000, 2)
        with pytest.raises(ReproError):
            AdmissionPolicy.from_env({"REPRO_SERVICE_MAX_QUEUED": "zero"})
        with pytest.raises(ReproError):
            AdmissionPolicy.from_env({"REPRO_SERVICE_MAX_TENANTS": "0"})


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
class TestEviction:
    def test_lru_eviction_closes_workspace_and_drops_snapshot(self):
        handle = start_in_thread(
            workers=1, policy=AdmissionPolicy(max_tenants=2)
        )
        try:
            client = Client(handle.address)
            client.fill("t1", {"a": CATALOG["a"]})
            client.fill("t2", {"a": CATALOG["a"]})
            # HTTP reads are recency touches too: after this GET the order
            # is t2 (oldest), t1.  Grabbing references below via
            # ``registry.get`` also touches, so grab the victim first.
            status, _stats = client.request("GET", "/tenant/t1/stats")
            assert status == 200
            victim = handle.service.registry.get("t2")
            survivor = handle.service.registry.get("t1")
            # A third tenant now evicts t2 through Workspace.close().
            client.fill("t3", {"a": CATALOG["a"]})
            status, listing = client.request("GET", "/tenants")
            assert sorted(listing["tenants"]) == ["t1", "t3"]
            assert victim.workspace.closed
            assert not survivor.workspace.closed
            assert snapshot_store.current(victim.key) is None
            status, _err = client.request("GET", "/tenant/t2/stats")
            assert status == 404
        finally:
            handle.stop()

    def test_clear_service_caches_closes_every_tenant(self):
        policy = AdmissionPolicy(max_tenants=4)
        registry = TenantRegistry(policy=policy, workers=1)
        tenant = registry.get_or_create("ephemeral")
        tenant.workspace.add(CATALOG["a"], name="a")
        snapshot_store.publish(tenant.key, tenant.name, 1, tenant.workspace)
        assert snapshot_store.current(tenant.key) is not None
        clear_service_caches()
        assert tenant.workspace.closed
        assert snapshot_store.current(tenant.key) is None
        assert len(registry) == 0


# ----------------------------------------------------------------------
# Protocol errors
# ----------------------------------------------------------------------
class TestProtocolErrors:
    def test_malformed_json_and_missing_fields_are_400(self, service):
        client = Client(service.address)
        conn = http.client.HTTPConnection(*service.address, timeout=30)
        try:
            conn.request("POST", "/tenant/t/add", body=b"{not json")
            response = conn.getresponse()
            payload = json.loads(response.read().decode())
            assert response.status == 400
            assert payload["error"]["code"] == "bad-request"
        finally:
            conn.close()
        status, payload = client.request("POST", "/tenant/t/add", {"name": "a"})
        assert (status, payload["error"]["code"]) == (400, "bad-request")

    def test_query_syntax_error_maps_to_structured_400(self, service):
        client = Client(service.address)
        status, payload = client.request(
            "POST", "/tenant/t/add", {"query": "q(x :-"}
        )
        assert status == 400
        assert payload["error"]["code"] == "query-syntax"
        assert "position" in payload["error"]["message"]

    def test_unknown_tenant_and_route_are_404(self, service):
        client = Client(service.address)
        status, payload = client.request("GET", "/tenant/nope/stats")
        assert (status, payload["error"]["code"]) == (404, "unknown-tenant")
        status, payload = client.request("GET", "/nope")
        assert (status, payload["error"]["code"]) == (404, "not-found")
        status, payload = client.request("DELETE", "/tenant/nope")
        assert (status, payload["error"]["code"]) == (404, "unknown-tenant")

    def test_bad_tenant_name_is_rejected(self, service):
        client = Client(service.address)
        status, payload = client.request(
            "POST", "/tenant/bad.name/add", {"query": CATALOG["a"]}
        )
        assert (status, payload["error"]["code"]) == (400, "bad-request")

    def test_request_dataclasses_validate_fields(self):
        assert AddRequest.from_payload({"query": "q() :- p(1)"}).name is None
        with pytest.raises(ProtocolError):
            AddRequest.from_payload({"query": 7})
        with pytest.raises(ProtocolError):
            ViewRequest.from_payload({"sql": "CREATE ...", "name": "v"})
        with pytest.raises(ProtocolError):
            ViewRequest.from_payload({"name": "v"})
        with pytest.raises(ProtocolError):
            RewriteRequest.from_payload({"query": "q() :- p(1)", "limit": -1})
        with pytest.raises(ProtocolError):
            RewriteRequest.from_payload({"query": "q() :- p(1)", "limit": True})
        request = ExplainRequest.from_payload({"first": "a", "second": "b"})
        assert (request.first, request.second) == ("a", "b")
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2]")

    def test_cli_has_no_engine_option(self, capsys):
        # One engine serves every tenant: the command line offers no switch.
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--port", "0", "--engine", "naive"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine naive" in capsys.readouterr().err

    def test_worker_crash_error_serializes_as_retryable_503(self):
        status, payload = error_payload(WorkerCrashError("pool worker died"))
        assert status == 503
        assert payload["error"]["code"] == "worker-crashed"
        assert payload["error"]["retryable"] is True
        assert payload["error"]["retry_after_s"] >= 1


# ----------------------------------------------------------------------
# Crash recovery over HTTP
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_worker_kill_yields_503_then_retry_heals(self):
        handle = start_in_thread(workers=2)
        try:
            client = Client(handle.address)
            client.fill("c", CATALOG)
            status, _data = client.request("POST", "/tenant/c/equivalences")
            assert status == 200
            executor = handle.service.registry.get("c").workspace.executor
            assert executor is not None and executor.alive
            heals_before = REGISTRY.get("parallel.pool.heals")

            # Grow the delta so the next sweep has real in-flight work, then
            # kill every pool worker while (or just before) it runs.
            for index in range(6):
                status, _data = client.request(
                    "POST",
                    "/tenant/c/add",
                    {
                        "query": f"q(x, sum(y)) :- p(x, y), y > {index}",
                        "name": f"grow_{index}",
                    },
                )
                assert status == 200

            responses = []

            def mutate():
                responses.append(client.request("POST", "/tenant/c/equivalences"))

            mutation = threading.Thread(target=mutate)
            mutation.start()
            deadline = time.monotonic() + 10.0
            killed = False
            while not killed and time.monotonic() < deadline:
                pool = getattr(executor, "_pool", None)
                workers = list(getattr(pool, "_pool", []) or [])
                for process in workers:
                    if process.pid is not None:
                        try:
                            os.kill(process.pid, signal.SIGKILL)
                            killed = True
                        except ProcessLookupError:
                            pass
                time.sleep(0.01)
            mutation.join(120.0)
            assert not mutation.is_alive()
            assert killed, "never saw a pool worker to kill"

            status, payload = responses[0]
            if status != 503:
                # The sweep finished before the kill landed; the dead pool
                # is then detected at the next dispatch, before any work.
                assert status == 200
                status, payload = client.request("POST", "/tenant/c/equivalences")
            assert status == 503
            assert payload["error"]["code"] == "worker-crashed"
            assert payload["error"]["retryable"] is True

            # The retry the 503 asked for: the executor re-forks and the
            # full matrix comes back.
            status, payload = client.request("POST", "/tenant/c/equivalences")
            assert status == 200
            expected_cells = 10 * 9 // 2
            assert len(payload["cells"]) == expected_cells
            assert REGISTRY.get("parallel.pool.heals") > heals_before
            status, metrics = client.request("GET", "/metrics")
            assert metrics["counters"]["parallel"]["pool.heals"] > heals_before
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Serial / parallel parity
# ----------------------------------------------------------------------
class TestWorkerParity:
    def test_serial_and_two_worker_services_agree(self):
        # Both services run in one process, so they share the process-wide
        # verdict store: the serial service decides every cell, and the
        # two-worker service may legitimately serve some (or all) of its
        # cells from the store instead of re-deciding them.  Parity is on
        # the *matrices*; the counters must only be consistent — every cell
        # of the second run is either decided fresh or store-served.
        matrices = {}
        stats_by_workers = {}
        for workers in (1, 2):
            handle = start_in_thread(workers=workers)
            try:
                client = Client(handle.address)
                client.fill("p", CATALOG)
                status, data = client.request("POST", "/tenant/p/equivalences")
                assert status == 200
                matrices[workers] = _verdicts(data["cells"])
                status, stats = client.request("GET", "/tenant/p/stats")
                assert status == 200
                stats_by_workers[workers] = stats
            finally:
                handle.stop()
        assert matrices[1] == matrices[2]
        assert stats_by_workers[1]["queries"] == stats_by_workers[2]["queries"]
        cells = len(matrices[1])
        first, second = stats_by_workers[1], stats_by_workers[2]
        for stats in (first, second):
            settled = stats["decided_cells"] + stats["store_hits"]
            assert settled == cells
        assert first["store_hits"] == 0
        assert second["decided_cells"] <= first["decided_cells"]


# ----------------------------------------------------------------------
# Cross-tenant verdict sharing
# ----------------------------------------------------------------------
class TestCrossTenantStore:
    def test_tenants_share_renamed_duplicates_through_the_store(self, service):
        """Tenant A's settled cells serve tenant B's variable-renamed
        duplicates through the process-wide verdict store: B re-decides
        nothing, and the two matrices agree cell for cell."""
        renamed = {
            "a": "q(u, sum(v)) :- p(u, v)",
            "b": "q(n, sum(m)) :- p(n, m)",
            "c": "q(k, max(j)) :- p(k, j)",
            "d": "q(t, count()) :- p(t, s), s > 0",
        }
        client = Client(service.address)
        client.fill("alpha", CATALOG)
        status, first = client.request("POST", "/tenant/alpha/equivalences")
        assert status == 200
        client.fill("beta", renamed)
        status, second = client.request("POST", "/tenant/beta/equivalences")
        assert status == 200
        assert _verdicts(first["cells"]) == _verdicts(second["cells"])
        status, stats = client.request("GET", "/tenant/beta/stats")
        assert status == 200
        assert stats["decided_cells"] == 0
        assert stats["store_hits"] == len(second["cells"])
