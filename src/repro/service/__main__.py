"""``python -m repro.service`` — serve equivalence decisions over HTTP.

The CLI is a thin wrapper over :class:`repro.service.app.ReproService`:
parse the listen address and worker count, start the server, run until
interrupted.  Budgets come from the ``REPRO_SERVICE_*`` environment
variables (:meth:`repro.service.admission.AdmissionPolicy.from_env`).
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional, Sequence

from .app import ReproService


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Multi-tenant equivalence-decision server over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument("--port", type=int, default=8765, help="listen port (0: pick a free one)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool workers per tenant workspace (default: REPRO_WORKERS)",
    )
    parser.add_argument(
        "--serialize-reads",
        action="store_true",
        help="take the tenant mutation lock on GETs too (benchmark baseline)",
    )
    args = parser.parse_args(argv)
    service = ReproService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        serialize_reads=bool(args.serialize_reads),
    )

    async def _run() -> None:
        await service.start()
        print(f"repro.service listening on http://{service.host}:{service.port}")
        try:
            await service.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
        finally:
            await service.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
