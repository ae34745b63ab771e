"""Experiment E14 — served snapshot reads vs lock-serialized reads.

The service layer (:mod:`repro.service`) publishes a frozen copy-on-write
snapshot of each tenant's settled state after every mutation, so read-only
``GET`` requests resolve on the event loop without taking the tenant's
writer lock.  This benchmark measures what that buys under contention, over
real HTTP against a real server:

1. a ``workers=2`` service is booted on the loopback and one tenant is
   warmed with the rewriting-audit catalog of E11 (28 queries at full
   scale) plus a decided equivalence matrix,
2. two writer threads churn batches of fresh audit renamings +
   ``POST /equivalences`` — each delta sweep holds the tenant lock for its
   full duration (the pool workers do the deciding, so the lock — not the
   GIL — is what readers contend on),
3. eight reader threads point-read one settled cell
   (``GET /explain?first=...&second=...``, the "are these two equivalent?"
   serving pattern) for a fixed window and record per-request latency.

The same workload then runs against a ``serialize_reads=True`` service,
where every read queues behind the writer on the tenant lock — the
behaviour a lock-per-tenant server without snapshots would have.  The
acceptance floor (ISSUE 9) is snapshot read throughput >= 5x the serialized
throughput at full scale.

Run under pytest (``pytest benchmarks/bench_service.py``) or standalone
(``python benchmarks/bench_service.py [--quick] [--json PATH]``).
``REPRO_BENCH_QUICK=1`` selects quick mode under pytest.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_catalog_sweep import build_audit_catalog  # noqa: E402

from repro.service import AdmissionPolicy, start_in_thread  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Reader threads hammering GET /equivalences concurrently (ISSUE 9: >= 8).
READERS = 8

#: Writer threads churning mutations.  Two, so one mutation is always queued
#: on the tenant lock while the other's sweep runs — the lock stays held for
#: the whole window instead of going free between a writer's roundtrips.
WRITERS = 2

TENANT = "bench"


def _floor(quick: bool) -> float:
    """Acceptance floor for snapshot-vs-serialized read throughput (ISSUE 9
    demands >= 5x at full scale; the quick catalog's sweeps hold the lock
    for less time, so CI smoke keeps a cushion)."""
    return 3.0 if quick else 5.0


def _window(quick: bool) -> float:
    """Seconds each read-throughput measurement runs."""
    return 1.2 if quick else 3.0


SPEEDUP_FLOOR = _floor(QUICK)


def _request(address, method: str, path: str, payload=None):
    connection = http.client.HTTPConnection(*address, timeout=300)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


def _warm(address, catalog) -> None:
    for name, query in catalog.items():
        status, _body = _request(
            address, "POST", f"/tenant/{TENANT}/add", {"query": str(query), "name": name}
        )
        assert status == 200, f"warm add {name} failed: {status}"
    status, _body = _request(address, "POST", f"/tenant/{TENANT}/equivalences")
    assert status == 200, "warm sweep failed"


#: Queries each writer iteration adds before re-sweeping.  The delta a sweep
#: decides (and so how long it holds the tenant lock) scales with the batch.
WRITER_BATCH = 8


def _writer_loop(address, stop: threading.Event, prefix: str) -> int:
    """Churn mutations until stopped: each iteration adds a batch of fresh
    audit variants and re-sweeps, holding the tenant lock for the whole
    batch-sized delta sweep.  One keep-alive connection serves the whole
    loop so connection setup does not open lock-free gaps between
    mutations."""
    iterations = 0
    connection = http.client.HTTPConnection(*address, timeout=300)
    try:
        while not stop.is_set():
            for member in range(WRITER_BATCH):
                # A fresh variable renaming of the audit view: equivalent to
                # the whole catalog, so the delta row is all decided cells.
                tag = f"{prefix}{iterations}x{member}"
                s, p = f"s{tag}", f"p{tag}"
                query = (
                    f"audit({s}, count()) :- returns({s}, {p}), "
                    f"premium_store({s}) ; discontinued({p}), returns({s}, {p})"
                )
                payload = {"query": query, "name": f"churn_{tag}"}
                connection.request(
                    "POST",
                    f"/tenant/{TENANT}/add",
                    body=json.dumps(payload).encode(),
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 200, f"writer add failed: {response.status}"
            connection.request("POST", f"/tenant/{TENANT}/equivalences")
            response = connection.getresponse()
            response.read()
            assert response.status == 200, f"writer sweep failed: {response.status}"
            iterations += 1
    finally:
        connection.close()
    return iterations


#: The settled cell the readers point-read: the first two catalog members
#: are fresh renamings of the same audit view, settled during warm-up.
READ_PATH = f"/tenant/{TENANT}/explain?first=audit_01&second=audit_02"


def _reader_loop(address, stop: threading.Event, sink: list, lock: threading.Lock):
    """Point-read one settled cell until stopped — the serving pattern the
    snapshot path exists for ("are these two queries equivalent?"), with a
    response whose size does not grow with the churned catalog."""
    latencies = []
    connection = http.client.HTTPConnection(*address, timeout=300)
    try:
        while not stop.is_set():
            start = time.perf_counter()
            connection.request("GET", READ_PATH)
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200 and body, "read failed mid-benchmark"
            latencies.append(time.perf_counter() - start)
    finally:
        connection.close()
    with lock:
        sink.extend(latencies)


def _percentile(latencies: list, fraction: float) -> float:
    ranked = sorted(latencies)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


def _measure_phase(quick: bool, serialize_reads: bool) -> dict:
    """Boot a service, warm the tenant, then measure read throughput for one
    window while a writer churns mutations.  Returns req/s and latency
    percentiles for the read side."""
    # Two pool workers: sweeps run in worker processes, so the mutation
    # thread blocks on IPC instead of holding the GIL — the event loop can
    # actually serve snapshot reads while a sweep holds the tenant lock.
    handle = start_in_thread(
        workers=2,
        serialize_reads=serialize_reads,
        policy=AdmissionPolicy(max_queries=4096),
    )
    try:
        address = handle.address
        _warm(address, build_audit_catalog(quick))

        writer_stop = threading.Event()
        reader_stop = threading.Event()
        writers = [
            threading.Thread(
                target=_writer_loop,
                args=(address, writer_stop, f"w{index}"),
                daemon=True,
            )
            for index in range(WRITERS)
        ]
        latencies: list = []
        lock = threading.Lock()
        readers = [
            threading.Thread(
                target=_reader_loop,
                args=(address, reader_stop, latencies, lock),
                daemon=True,
            )
            for _ in range(READERS)
        ]
        window = _window(quick)
        for writer in writers:
            writer.start()
        for reader in readers:
            reader.start()
        time.sleep(window)
        reader_stop.set()
        for reader in readers:
            reader.join(300.0)
        writer_stop.set()
        for writer in writers:
            writer.join(300.0)
            assert not writer.is_alive(), "writer did not drain"
        assert latencies, "readers completed no requests"
        return {
            "serialize_reads": serialize_reads,
            "requests": len(latencies),
            "rps": len(latencies) / window,
            "p50_ms": _percentile(latencies, 0.50) * 1e3,
            "p99_ms": _percentile(latencies, 0.99) * 1e3,
            "window_s": window,
        }
    finally:
        handle.stop(timeout=300.0)


def run_benchmark(quick: bool) -> dict:
    snapshot = _measure_phase(quick, serialize_reads=False)
    serialized = _measure_phase(quick, serialize_reads=True)
    return {
        "quick": quick,
        "queries": len(build_audit_catalog(quick)),
        "readers": READERS,
        "snapshot": snapshot,
        "serialized": serialized,
        "speedup": snapshot["rps"] / serialized["rps"],
    }


def _render(result: dict) -> list[str]:
    mode = "quick" if result["quick"] else "full"
    snapshot, serialized = result["snapshot"], result["serialized"]
    return [
        f"[E14:{mode}] served reads under a concurrent writer: {result['readers']} "
        f"clients against a warm {result['queries']}-query tenant",
        f"[E14:{mode}] snapshot reads {snapshot['rps']:.0f} req/s "
        f"(p50 {snapshot['p50_ms']:.1f}ms, p99 {snapshot['p99_ms']:.1f}ms) vs "
        f"lock-serialized {serialized['rps']:.0f} req/s "
        f"(p50 {serialized['p50_ms']:.1f}ms, p99 {serialized['p99_ms']:.1f}ms)",
        f"[E14:{mode}] snapshot/serialized throughput: {result['speedup']:.1f}x "
        f"(floor {_floor(result['quick'])}x)",
    ]


def test_service_snapshot_read_throughput(report_lines):
    result = run_benchmark(QUICK)
    report_lines.extend(_render(result))
    assert result["snapshot"]["requests"] >= READERS
    assert result["serialized"]["requests"] >= 1
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"snapshot read throughput {result['speedup']:.2f}x the serialized "
        f"baseline, below the {SPEEDUP_FLOOR}x floor"
    )


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small catalog + relaxed floor (CI smoke)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write {name, wall_s, speedup} records to PATH"
    )
    arguments = parser.parse_args()
    quick = arguments.quick or QUICK
    floor = _floor(quick)
    result = run_benchmark(quick)
    for line in _render(result):
        print(line)
    if arguments.json:
        from _jsonlog import json_record, write_json_records

        def record(name: str, phase: dict, speedup: float) -> dict:
            entry = json_record(name, phase["window_s"], speedup)
            entry.update(
                requests=phase["requests"],
                rps=round(phase["rps"], 1),
                p50_ms=round(phase["p50_ms"], 2),
                p99_ms=round(phase["p99_ms"], 2),
                readers=READERS,
            )
            return entry

        write_json_records(
            arguments.json,
            [
                record("service.serialized_reads", result["serialized"], 1.0),
                record("service.snapshot_reads", result["snapshot"], result["speedup"]),
            ],
        )
        print(f"(json records written to {arguments.json})")
    if result["speedup"] < floor:
        print(f"FAIL: snapshot reads {result['speedup']:.2f}x below the {floor}x floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
