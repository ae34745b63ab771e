"""Workload ``served-churn``: point reads against a served tenant while a
writer churns fresh tenants through the shared verdict store.

The server is ``python -m repro.service --port 0`` in its own process, with
default workers and a fresh store file.  Set-up warms tenant ``main`` with
the audit catalog (the only sweep of the run) and fills the tenant LRU, so
every writer round evicts exactly one tenant.  A writer round is a fresh
tenant, the 28 catalog queries renamed afresh for that round, and one
``POST /equivalences`` whose 378 cells must all be served from the store.
The reader meanwhile point-reads settled cells of ``main`` in a closed
loop over its own connection.  HTTP framing, snapshots, tenant eviction,
canonicalization and the store's serve path do all the work; a change that
speeds the writer but holds the interpreter lock longer shows up as a
worse read latency.

Reported as ``decide_ms`` (median writer round) and ``answer_ms`` (median
read); the traced run adds the reads' 99th percentile.  Every
:data:`ROUNDS_PER_SETUP` rounds a second server is set up the same way,
timed, and stopped, with the reader paused meanwhile.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Optional

from catalog import audit_catalog, expected_equivalent
from harness import CheckFailed, Recorder, percentile, require
from layers import LayerTotals, Tracer, load_totals

from repro.service import AdmissionPolicy

#: Tenants the service keeps: set-up fills its LRU, so every round's fresh
#: tenant evicts one.
MAX_TENANTS = AdmissionPolicy.max_tenants

#: Cells the reader cycles through: equivalent and non-equivalent ones.
READ_CELLS = (
    ("audit_01", "audit_02"),
    ("audit_03", "audit_dup"),
    ("unit_count", "unit_sum"),
    ("audit_05", "audit_keep"),
)

#: Writer rounds per interleaved set-up (which costs about as much).
ROUNDS_PER_SETUP = 15

_HERE = os.path.dirname(os.path.abspath(__file__))
_TIMEOUT_S = 60.0


def _flatten(tree: dict) -> dict[str, int]:
    return {
        f"{scope}.{name}" if name != scope else scope: value
        for scope, values in tree.items()
        for name, value in values.items()
    }


def _pin(position: int):  # noqa: ANN202
    """A callable that pins the calling process to one of its allowed CPUs
    (by position), or ``None`` on a machine with a single allowed CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    cpu = cpus[position]
    return lambda: os.sched_setaffinity(0, {cpu})


#: The server runs on the last allowed CPU and the load generator on the
#: first, so the two processes never trade cores between runs.
SERVER_CPU, CLIENT_CPU = -1, 0


class Server:
    """One ``repro.service`` process.  With ``trace`` it runs under
    ``serve_traced.py``, which wraps the layers on :meth:`start_tracing`
    and writes the trace to that path when it exits."""

    def __init__(self, root: str, store_path: str, trace: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["REPRO_STORE_PATH"] = store_path
        if trace is None:
            command = [sys.executable, "-m", "repro.service", "--port", "0"]
        else:
            command = [
                sys.executable, os.path.join(_HERE, "serve_traced.py"),
                "--trace", trace, "--port", "0",
            ]
        # The server's log goes to a file: its shutdown may report
        # connections it cancelled, which is not the benchmark's output.
        self.log_path = os.path.join(os.path.dirname(store_path), "server.log")
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
                preexec_fn=_pin(SERVER_CPU),
            )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            with open(self.log_path, encoding="utf-8") as log:
                sys.stderr.write(log.read()[-4000:])
            raise

    def _read_line(self) -> str:
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], _TIMEOUT_S)
        return stdout.readline() if ready else ""

    def _read_port(self) -> int:
        banner = self._read_line()
        if "listening on http://" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        return int(banner.rsplit(":", 1)[1])

    def start_tracing(self) -> None:
        """Signal the traced launcher to wrap the layers; wait until it has."""
        self.process.send_signal(signal.SIGUSR1)
        answer = self._read_line()
        if answer.strip() != "tracing":
            raise RuntimeError(f"server did not start tracing: {answer!r}")

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=_TIMEOUT_S)

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = json.dumps(payload).encode() if payload is not None else None
        try:
            self.connection.request(method, path, body=body)
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            self.connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=_TIMEOUT_S)
            raise
        if response.status != 200:
            raise CheckFailed(f"{method} {path}: HTTP {response.status} {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.connection.close()


class ServedChurn:
    """The ``served-churn`` workload over one seeded catalog."""

    meaning = {
        "decide_ms": "round_ms, a fresh tenant's 28 adds and 378-cell matrix from the store",
        "answer_ms": "read_p50_ms, one point read of a settled cell",
    }

    registry = None

    def __init__(self, seed: int, scratch: str, trace_path: Optional[str]) -> None:
        pin = _pin(CLIENT_CPU)
        if pin is not None:
            pin()
        self.seed = seed
        self.trace_path = trace_path
        self.root = os.path.dirname(_HERE)
        self.scratch = scratch
        self.expected = expected_equivalent(audit_catalog(seed))
        self.setups = 0
        self.server: Optional[Server] = None
        self.writer: Optional[Client] = None
        self.spare: Optional[tuple[Server, Client]] = None
        self.reader: Optional[threading.Thread] = None
        self.stop_reading = threading.Event()
        self.may_read = threading.Event()
        self.reads: list[float] = []
        self.read_failures: list[str] = []
        self.metrics_before: dict[str, int] = {}
        self.metrics_after: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _expected_verdict(self, pair: tuple[str, str]) -> bool:
        return self.expected[pair if pair[0] < pair[1] else (pair[1], pair[0])]

    def _check_matrix(self, response: dict) -> None:
        cells = response["cells"]
        require(len(cells) == len(self.expected), f"{len(cells)} cells")
        for cell in cells:
            equivalent = cell["verdict"] == "equivalent"
            require(
                equivalent == self._expected_verdict((cell["first"], cell["second"])),
                f"cell {cell['first']}/{cell['second']} is {cell['verdict']}",
            )

    def _add_catalog(self, client: Client, tenant: str, suffix: str) -> None:
        for name, (text, _class) in audit_catalog(self.seed, suffix).items():
            client.request("POST", f"/tenant/{tenant}/add", {"query": text, "name": name})

    @staticmethod
    def _stop(server: Optional[Server], client: Optional[Client]) -> None:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()

    def _shutdown(self) -> None:
        self._stop(self.server, self.writer)
        self.server = self.writer = None

    def prepare_setup(self) -> None:
        """Pause the reader; a set-up never shares the machine with reads."""
        self.may_read.clear()
        self.setups += 1
        directory = os.path.join(self.scratch, f"server-{self.setups}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        self.store_path = os.path.join(directory, "verdicts.sqlite")

    def setup(self) -> None:
        """Launch a server, fill its tenant LRU, warm ``main`` and run one
        writer round.  The first server is the one measured; a later one,
        set up between rounds, is stopped right after."""
        measured = self.server is None
        server = Server(self.root, self.store_path, self.trace_path if measured else None)
        self.spare = (server, Client(server.port))
        try:
            self._warm(self.spare[1])
        except BaseException:
            self.finish_setup()
            raise
        if measured:
            self.server, self.writer = self.spare
            self.spare = None

    def _warm(self, client: Client) -> None:
        for index in range(MAX_TENANTS - 1):
            client.request(
                "POST", f"/tenant/filler{index:02d}/add",
                {"query": "fill(s, count()) :- premium_store(s)"},
            )
        self._add_catalog(client, "main", "")
        self._check_matrix(client.request("POST", "/tenant/main/equivalences"))
        # One writer round first: the store revalidates each stored witness
        # on its first serve only, so this makes every measured round alike.
        self._add_catalog(client, "prime", "p")
        self._check_matrix(client.request("POST", "/tenant/prime/equivalences"))

    def finish_setup(self) -> None:
        """Stop a server set up between rounds, with its directory, and let
        the reader go on."""
        if self.spare is not None:
            self._stop(*self.spare)
            self.spare = None
            shutil.rmtree(os.path.dirname(self.store_path), ignore_errors=True)
        self.may_read.set()

    def close(self) -> None:
        self._shutdown()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        assert self.server is not None
        client = Client(self.server.port)
        paths = [
            (f"/tenant/main/explain?first={first}&second={second}",
             self._expected_verdict((first, second)))
            for first, second in READ_CELLS
        ]
        index = 0
        try:
            while not self.stop_reading.is_set():
                self.may_read.wait()
                path, equivalent = paths[index % len(paths)]
                index += 1
                try:
                    start = time.perf_counter()
                    payload = client.request("GET", path)
                    elapsed = time.perf_counter() - start
                    require(
                        (payload["verdict"] == "equivalent") == equivalent,
                        f"{path} read {payload['verdict']}",
                    )
                except Exception as error:  # noqa: BLE001 - counted as a failed read
                    self.read_failures.append(f"{type(error).__name__}: {error}")
                    continue
                self.reads.append(elapsed * 1e3)
        finally:
            client.close()

    def _scrape(self) -> dict[str, int]:
        assert self.writer is not None
        return _flatten(self.writer.request("GET", "/metrics")["counters"])

    def begin_phase(self, recorder: Recorder) -> None:
        self.metrics_before = self._scrape()
        self.reads, self.read_failures = [], []
        self.stop_reading.clear()
        self.reader = threading.Thread(target=self._read_loop, name="perfbench-reader")
        self.reader.start()

    def end_phase(self, recorder: Recorder) -> None:
        self.stop_reading.set()
        self.may_read.set()
        if self.reader is not None:
            self.reader.join()
        self.metrics_after = self._scrape()
        recorder.samples["read_ms"].extend(self.reads)
        recorder.attempted += len(self.reads) + len(self.read_failures)
        for failure in self.read_failures:
            recorder.fail(failure)

    def cycle(self, recorder: Recorder, index: int) -> None:
        tenant = f"round{index:05d}"

        def round_trip() -> dict:
            assert self.writer is not None
            self._add_catalog(self.writer, tenant, f"r{index}")
            return self.writer.request("POST", f"/tenant/{tenant}/equivalences")

        def check(response: object) -> None:
            self._check_matrix(response)  # type: ignore[arg-type]
            assert self.writer is not None
            stats = self.writer.request("GET", f"/tenant/{tenant}/stats")
            require(stats["decided_cells"] == 0, f"{tenant} decided {stats['decided_cells']} cells")
            require(stats["store_hits"] == len(self.expected), f"{tenant}: {stats['store_hits']} store hits")

        recorder.op("round_ms", round_trip, check)
        if index % ROUNDS_PER_SETUP == ROUNDS_PER_SETUP - 1:
            recorder.resetup(self)

    def end_to_end(self, recorder: Recorder) -> dict[str, float]:
        reads = recorder.samples.get("read_ms", [])
        return {
            "decide_ms": recorder.median("round_ms"),
            "answer_ms": percentile(reads, 0.50),
        }

    # ------------------------------------------------------------------
    def start_tracing(self, _tracer: Tracer) -> None:
        """Have the server install the wrappers in its own process."""
        assert self.server is not None
        self.server.start_tracing()

    def finish_tracing(self, _tracer: Tracer, recorder: Recorder, path: str) -> tuple[LayerTotals, dict[str, int]]:
        """Stop the server, which writes its trace to ``path``; return the
        trace's totals and the server's counter deltas over the traced
        rounds."""
        self._shutdown()
        counters = {
            name: value - self.metrics_before.get(name, 0)
            for name, value in self.metrics_after.items()
        }
        return load_totals(path), counters

    def layer_extras(
        self, recorder: Recorder, totals: LayerTotals, counters: dict[str, int]
    ) -> dict[str, float]:
        """The server-side service layer: handler time per read and per
        add, the client's read latency beyond it, and requests per round
        other than the reader's."""
        explain_calls = totals.calls.get("service.explain_cell", 0)
        explain_ns = sum(
            totals.total_ns.get(name, 0)
            for name in ("service.explain_cell", "service.explanation_payload", "service.encode_explain")
        )
        explain_ms = explain_ns / 1e6 / explain_calls if explain_calls else 0.0
        add_calls = totals.calls.get("session.add", 0)
        reads = recorder.samples.get("read_ms", [])
        reader_requests = len(reads) + len(self.read_failures)
        return {
            "service.explain_ms": explain_ms,
            "service.add_ms": totals.total_ns.get("session.add", 0) / 1e6 / add_calls if add_calls else 0.0,
            "service.read_wait_ms": sum(reads) / len(reads) - explain_ms if reads else 0.0,
            "service.read_p99_ms": percentile(reads, 0.99),
            # The closing /metrics scrape is counted too.
            "service.requests":
                (counters.get("service.requests", 0) - reader_requests - 1) / max(1, recorder.cycles),
        }
