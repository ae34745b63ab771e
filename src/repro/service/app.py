"""The asyncio HTTP/JSON front end: equivalence decisions as a service.

One :class:`ReproService` is one multi-tenant server over named
:class:`~repro.session.Workspace` sessions, built on nothing but
``asyncio.start_server`` and a minimal HTTP/1.1 framing layer (request
line + headers + ``Content-Length`` body; keep-alive by default) — no
runtime dependencies beyond the stdlib.

Concurrency model, in one paragraph: the event loop owns all bookkeeping
(tenant LRU, admission counters, queue depth) and never blocks on a
decision procedure.  **Mutations** — ``add``, ``view``, ``equivalences``,
``rewrite`` — are admitted against the tenant's budgets, queued on the
tenant's ``asyncio.Lock`` (one writer per tenant; tenants are mutually
concurrent), and executed on a thread pool via ``run_in_executor`` so a
multi-second sweep never stalls the loop; while still holding the lock the
service publishes a frozen :class:`~repro.service.snapshots.TenantSnapshot`.
**Read-only GETs** (``equivalences``, ``explain``) resolve against that
snapshot on the loop thread itself — no lock, no thread hop — so readers
are never queued behind a writer (``serialize_reads=True`` disables the
snapshot path and locks reads too; it exists as the measured-against
baseline of ``benchmarks/bench_service.py``).

Failure containment: a pool worker dying mid-sweep surfaces as
:class:`~repro.errors.WorkerCrashError`, serialized as a structured 503
with ``retryable: true`` — the process executor has already discarded
the dead pool, so the client's retry re-forks a fresh one
(``parallel.pool.heals`` counts those).  Every other library error maps to
its :mod:`repro.service.protocol` code; unexpected exceptions become an
opaque 500 without killing the connection loop.

Routes::

    GET    /healthz                      liveness + tenant count
    GET    /metrics                      the process metrics registry
    GET    /tenants                      this service's tenants (LRU order)
    POST   /tenant/{id}/add              {"query": ..., "name"?: ...}
    POST   /tenant/{id}/view             {"sql": ...} | {"name","definition"}
    POST   /tenant/{id}/equivalences     decide the delta, return the matrix
    POST   /tenant/{id}/rewrite          {"query": ..., "limit"?: ...}
    GET    /tenant/{id}/equivalences     snapshot read of the settled matrix
    GET    /tenant/{id}/explain?first=&second=   snapshot cell provenance
    GET    /tenant/{id}/stats            live workspace reuse counters
    DELETE /tenant/{id}                  evict (close workspace, drop snapshot)
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, TypeVar
from urllib.parse import parse_qs

from ..errors import ReproError
from ..obs import REGISTRY as _OBS
from ..obs import span as _span
from . import snapshots
from .admission import AdmissionPolicy
from .protocol import (
    AddRequest,
    ExplainRequest,
    ProtocolError,
    RewriteRequest,
    RouteError,
    ViewRequest,
    decode_body,
    encode,
    error_payload,
    explanation_payload,
    matrix_payload,
    rewriting_payload,
    stats_payload,
)
from .snapshots import TenantSnapshot
from .tenants import Tenant, TenantRegistry, UnknownTenantError

_T = TypeVar("_T")

#: Bodies above this are rejected before reading (one query or view
#: definition is a few hundred bytes; a megabyte is a client bug).
_MAX_BODY_BYTES = 1 << 20

#: HTTP reason phrases for the statuses the service emits.
_STATUS_TEXT: dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


# ----------------------------------------------------------------------
# HTTP framing
# ----------------------------------------------------------------------
async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[tuple[str, str, dict[str, str], bytes]]:
    """One ``(method, target, headers, body)`` request, or ``None`` on a
    clean EOF before the next request line."""
    request_line = await reader.readline()
    if not request_line:
        return None
    pieces = request_line.decode("latin-1").split()
    if len(pieces) != 3:
        raise ProtocolError(f"malformed request line {request_line!r}")
    method, target = pieces[0].upper(), pieces[1]
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            return None
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError("content-length must be an integer") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise ProtocolError(f"request body of {length} bytes exceeds the limit")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _render_response(
    status: int, payload: Mapping[str, object], keep_alive: bool
) -> bytes:
    body = encode(payload)
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Response')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class ReproService:
    """A multi-tenant equivalence server (see the module docstring).

    ``workers`` is threaded into every tenant workspace (``None``: consult
    ``REPRO_WORKERS`` once at workspace construction); ``policy`` defaults to
    :meth:`AdmissionPolicy.from_env`; ``serialize_reads=True`` makes GETs
    take the tenant mutation lock instead of reading snapshots (the
    benchmark baseline); ``mutation_threads`` caps concurrently executing
    mutations across all tenants.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: Optional[int] = None,
        policy: Optional[AdmissionPolicy] = None,
        serialize_reads: bool = False,
        mutation_threads: int = 8,
    ) -> None:
        self._host = host
        self._port = port
        self._policy = policy if policy is not None else AdmissionPolicy.from_env()
        self._registry = TenantRegistry(policy=self._policy, workers=workers)
        self._serialize_reads = serialize_reads
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, mutation_threads),
            thread_name_prefix="repro-service-mutation",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open client connections, so aclose() can end them gracefully
        #: instead of leaving handler tasks to be cancelled mid-await.
        self._connections: set[asyncio.StreamWriter] = set()

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0 was asked)."""
        return self._port

    @property
    def registry(self) -> TenantRegistry:
        return self._registry

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise ReproError("service already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        sockets = self._server.sockets
        if sockets:
            self._port = int(sockets[0].getsockname()[1])

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, tear down every tenant, release the threads."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        # Closed transports deliver EOF to their handlers within a few loop
        # iterations; wait (bounded) so no handler task dies cancelled.
        for _attempt in range(100):
            if not self._connections:
                break
            await asyncio.sleep(0.01)
        self._registry.close()
        self._pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ProtocolError as error:
                    status, payload = error_payload(error)
                    writer.write(_render_response(status, payload, False))
                    await writer.drain()
                    break
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload = await self._dispatch(method, target, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                writer.write(_render_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, object]]:
        _OBS.inc("service.requests")
        path, _sep, query_string = target.partition("?")
        params: dict[str, object] = {
            key: values[-1] for key, values in parse_qs(query_string).items()
        }
        try:
            with _span("service.request", method=method, path=path):
                return await self._route(method, path, params, body)
        except ReproError as error:
            _OBS.inc("service.errors")
            return error_payload(error)
        except Exception as error:  # noqa: BLE001 - the connection must survive
            _OBS.inc("service.errors")
            return 500, {
                "error": {
                    "code": "internal",
                    "message": str(error),
                    "type": type(error).__name__,
                }
            }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, params: Mapping[str, object], body: bytes
    ) -> tuple[int, dict[str, object]]:
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok", "tenants": len(self._registry)}
        if method == "GET" and path == "/metrics":
            return 200, {"counters": _OBS.tree()}
        if method == "GET" and path == "/tenants":
            return 200, {"tenants": list(self._registry.names())}
        parts = [segment for segment in path.split("/") if segment]
        if len(parts) == 2 and parts[0] == "tenant" and method == "DELETE":
            if not self._registry.evict(parts[1]):
                raise UnknownTenantError(f"no tenant named {parts[1]!r}")
            return 200, {"deleted": parts[1]}
        if len(parts) == 3 and parts[0] == "tenant":
            name, action = parts[1], parts[2]
            if method == "POST":
                if action == "add":
                    return await self._handle_add(name, body)
                if action == "view":
                    return await self._handle_view(name, body)
                if action == "equivalences":
                    return await self._handle_equivalences(name)
                if action == "rewrite":
                    return await self._handle_rewrite(name, body)
            elif method == "GET":
                if action == "equivalences":
                    return await self._read_equivalences(name)
                if action == "explain":
                    return await self._read_explain(name, params)
                if action == "stats":
                    return await self._read_stats(name)
        raise RouteError(f"no route for {method} {path}")

    # ------------------------------------------------------------------
    # Mutations (serialized per tenant, executed off the loop)
    # ------------------------------------------------------------------
    async def _mutate(self, tenant: Tenant, operation: Callable[[], _T]) -> _T:
        self._policy.admit_mutation(tenant.queued)
        tenant.queued += 1
        _OBS.inc("service.queue_depth")
        try:
            async with tenant.lock:
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(self._pool, operation)
                self._publish(tenant)
                return result
        finally:
            tenant.queued -= 1
            _OBS.inc("service.queue_depth", -1)

    def _publish(self, tenant: Tenant) -> None:
        tenant.version += 1
        snapshots.publish(tenant.key, tenant.name, tenant.version, tenant.workspace)

    async def _handle_add(
        self, name: str, body: bytes
    ) -> tuple[int, dict[str, object]]:
        request = AddRequest.from_payload(decode_body(body))
        tenant = self._registry.get_or_create(name)
        self._policy.admit_query(len(tenant.workspace))

        def mutate() -> str:
            return tenant.workspace.add(request.query, name=request.name)

        label = await self._mutate(tenant, mutate)
        return 200, {
            "tenant": name,
            "name": label,
            "queries": len(tenant.workspace),
            "version": tenant.version,
        }

    async def _handle_view(
        self, name: str, body: bytes
    ) -> tuple[int, dict[str, object]]:
        request = ViewRequest.from_payload(decode_body(body))
        tenant = self._registry.get_or_create(name)

        def mutate() -> str:
            if request.sql is not None:
                return tenant.workspace.register_view(request.sql).name
            if request.name is None or request.definition is None:
                raise ProtocolError("a view needs 'sql' or 'name'+'definition'")
            return tenant.workspace.register_view(
                request.name, request.definition
            ).name

        registered = await self._mutate(tenant, mutate)
        return 200, {"tenant": name, "view": registered, "version": tenant.version}

    async def _handle_equivalences(self, name: str) -> tuple[int, dict[str, object]]:
        tenant = self._registry.get(name)

        def mutate() -> dict[str, object]:
            return matrix_payload(tenant.workspace.equivalences())

        payload = await self._mutate(tenant, mutate)
        return 200, {"tenant": name, "version": tenant.version, **payload}

    async def _handle_rewrite(
        self, name: str, body: bytes
    ) -> tuple[int, dict[str, object]]:
        request = RewriteRequest.from_payload(decode_body(body))
        tenant = self._registry.get(name)

        def mutate() -> dict[str, object]:
            return rewriting_payload(
                tenant.workspace.rewrite(request.query, limit=request.limit)
            )

        payload = await self._mutate(tenant, mutate)
        return 200, {"tenant": name, "version": tenant.version, **payload}

    # ------------------------------------------------------------------
    # Reads (snapshot path: no lock, no thread hop)
    # ------------------------------------------------------------------
    def _snapshot_of(self, tenant: Tenant) -> TenantSnapshot:
        snapshot = snapshots.current(tenant.key)
        return snapshot if snapshot is not None else TenantSnapshot.empty(tenant.name)

    async def _read_equivalences(self, name: str) -> tuple[int, dict[str, object]]:
        tenant = self._registry.get(name)
        if self._serialize_reads:
            async with tenant.lock:
                payload = matrix_payload(tenant.workspace.settled_cells())
                version = tenant.version
        else:
            snapshot = self._snapshot_of(tenant)
            payload = matrix_payload(snapshot.cells)
            version = snapshot.version
        return 200, {"tenant": name, "version": version, **payload}

    async def _read_explain(
        self, name: str, params: Mapping[str, object]
    ) -> tuple[int, dict[str, object]]:
        request = ExplainRequest.from_payload(params)
        tenant = self._registry.get(name)
        if self._serialize_reads:
            async with tenant.lock:
                explanation = tenant.workspace.explain(request.first, request.second)
                version = tenant.version
        else:
            snapshot = self._snapshot_of(tenant)
            explanation = snapshot.explain(request.first, request.second)
            version = snapshot.version
        return 200, {
            "tenant": name,
            "version": version,
            **explanation_payload(explanation),
        }

    async def _read_stats(self, name: str) -> tuple[int, dict[str, object]]:
        tenant = self._registry.get(name)
        return 200, {
            "tenant": name,
            "version": tenant.version,
            **stats_payload(tenant.workspace.stats()),
        }


# ----------------------------------------------------------------------
# Background-thread hosting (tests, benchmarks, the demo)
# ----------------------------------------------------------------------
class _StartupBox:
    """What the server thread hands back to the starting thread."""

    loop: Optional[asyncio.AbstractEventLoop] = None
    stop: Optional[asyncio.Event] = None
    error: Optional[BaseException] = None


@dataclass
class ServiceHandle:
    """A service running its own event loop on a daemon thread."""

    service: ReproService
    thread: threading.Thread
    _loop: asyncio.AbstractEventLoop
    _stop: asyncio.Event

    @property
    def address(self) -> tuple[str, int]:
        return self.service.host, self.service.port

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the loop to shut the service down and join the thread."""
        self._loop.call_soon_threadsafe(self._stop.set)
        self.thread.join(timeout)


def start_in_thread(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: Optional[int] = None,
    policy: Optional[AdmissionPolicy] = None,
    serialize_reads: bool = False,
    mutation_threads: int = 8,
) -> ServiceHandle:
    """Start a :class:`ReproService` on a fresh event loop in a daemon
    thread and block until it is accepting (default ``port=0``: pick a free
    port, read it back from :attr:`ServiceHandle.address`)."""
    service = ReproService(
        host=host,
        port=port,
        workers=workers,
        policy=policy,
        serialize_reads=serialize_reads,
        mutation_threads=mutation_threads,
    )
    started = threading.Event()
    box = _StartupBox()

    async def _run() -> None:
        box.loop = asyncio.get_running_loop()
        box.stop = asyncio.Event()
        try:
            await service.start()
        except BaseException as error:  # noqa: BLE001 - reported to the starter
            box.error = error
            started.set()
            return
        started.set()
        try:
            await box.stop.wait()
        finally:
            await service.aclose()

    thread = threading.Thread(
        target=lambda: asyncio.run(_run()), name="repro-service", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30.0):
        raise ReproError("service did not start within 30s")
    if box.error is not None:
        thread.join(timeout=5.0)
        raise ReproError(f"service failed to start: {box.error}") from box.error
    if box.loop is None or box.stop is None:  # pragma: no cover - defensive
        raise ReproError("service thread reported no event loop")
    return ServiceHandle(service, thread, box.loop, box.stop)
