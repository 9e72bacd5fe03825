"""Launch ``python -m repro serve``, with the layer probes when traced.

Usage (the orchestrator runs this with a clean environment)::

    python3 perfbench/daemon.py --store-dir DIR --port-file FILE [--trace-dir DIR]

The daemon runs with every serve default except the port (0, written to
``--port-file``) and the disk store directory.  With ``--trace-dir`` the
layer probes are installed and the spans are written there when the daemon
stops.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    common.require_sources()
    recorder = None
    if args.trace_dir:
        import probes

        recorder = probes.Recorder(args.trace_dir)
        probes.install(recorder, serve=True)
        recorder.counters["probe.span_cost_ms"] = probes.span_cost_ms(recorder)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(
            ["serve", "--port", "0", "--store-dir", args.store_dir, "--port-file", args.port_file]
        )
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
