"""Run ``python -m repro.service`` with the layer wrappers on call.

Usage: ``python perfbench/serve_traced.py --trace PATH [service options]``.
The service arguments pass through unchanged.  SIGUSR1 wraps the layers
(the server answers ``tracing`` on standard output once they are), so
set-up before it runs untraced; the trace is written to PATH when the
server exits (on SIGINT, as ``repro.service`` handles it).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Tracer, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", required=True, help="where to write the trace on exit")
    arguments, service_arguments = parser.parse_known_args()
    tracer = Tracer()

    def start_tracing(_signal: int, _frame: object) -> None:
        install(tracer)
        print("tracing", flush=True)

    signal.signal(signal.SIGUSR1, start_tracing)
    from repro.service.__main__ import main as serve

    try:
        return serve(service_arguments)
    finally:
        tracer.dump(arguments.trace)


if __name__ == "__main__":
    raise SystemExit(main())
