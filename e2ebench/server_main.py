"""Run the program's ingest server for the ``serve`` workload.

``python3 e2ebench/server_main.py [--trace-out FILE]`` starts a
``jobs=1`` ring-transport ``run_server`` on an ephemeral loopback port
and prints its address; SIGTERM drains and stops it.  With
``--trace-out`` the server-side layer entry points are wrapped for the
server's lifetime and their totals are written to FILE on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import procs
    from repro.serve.server import ServeConfig, run_server

    tracer = None
    if args.trace_out:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(layers.server_hooks())
    # No heartbeat: the server stays idle between passes, so the probe
    # guard can demand that it used no CPU while the probe ran.
    try:
        asyncio.run(run_server(ServeConfig(jobs=1, transport="ring", heartbeat_s=0)))
    finally:
        # The shared-memory rings started a resource tracker; end it
        # here, or it outlives this process as an orphan.
        procs.stop_resource_tracker()
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(layers.dump(tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
