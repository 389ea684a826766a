"""Start ``RPQServer`` for one benchmark workload, as its own process.

    python3 perfbench/launcher.py --workload NAME [--plan-dir DIR]
        [--data-dir DIR] [--trace-out FILE]

Builds the workload's tenants with the public constructors ``repro
serve`` uses, binds an ephemeral port, prints it on one stdout line and
serves until ``POST /shutdown``.  With ``--trace-out`` the layers'
entry points are timed (see ``spans.py``) and the spans are written to
that file after shutdown.  The launcher never receives the run seed.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


async def _serve(server) -> None:
    await server.start()
    print(server.port, flush=True)
    await server.serve_until_shutdown()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--plan-dir")
    parser.add_argument("--data-dir")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import spans
    from workloads import server_options, tenant_configs

    from repro.service.server import RPQServer

    recorder = spans.install() if args.trace_out else None
    server = RPQServer(
        tenant_configs(args.workload, plan_dir=args.plan_dir),
        **server_options(args.workload, data_dir=args.data_dir),
    )
    if recorder is not None:
        recorder.attach(server)
    asyncio.run(_serve(server))
    if recorder is not None:
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    main()
