"""The casestudy workload's analysing process.

``python3 perfbench/casestudy.py --seconds S --out FILE [--trace-dir DIR]``
runs the cold 12-app ``case_study()`` (the set-up: recording included), then
repeats ``case_study(force=True)`` on the warm in-memory store until ``S``
seconds have passed, and writes timings, rendered tables and peak memory
to ``FILE`` as JSON.  The orchestrator checks the tables.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: The subset pinned by the repository's case-study golden file.
GOLDEN_WORKLOADS = ["fluidSim", "Realtime Raytracing", "Normal Mapping"]


def render(tables) -> str:
    return (
        tables.render_table2()
        + "\n\n"
        + tables.render_table3()
        + "\n\n"
        + tables.render_speedups()
        + "\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    common.require_sources()
    recorder = None
    if args.trace_dir:
        import probes

        recorder = probes.Recorder(args.trace_dir)
        probes.install(recorder)
        recorder.counters["probe.span_cost_ms"] = probes.span_cost_ms(recorder)

    from repro.analysis.tables import build_tables
    from repro.api import AnalysisSession

    session = AnalysisSession()
    case_study = session.case_study
    if recorder is not None:
        case_study = recorder.wrap(case_study, "casestudy.sweep")

    cold = case_study()
    cold_done = time.perf_counter()
    tables = render(cold.tables)
    subset = [analysis for analysis in cold.analyses if analysis.name in GOLDEN_WORKLOADS]
    golden_subset = render(build_tables(subset))

    calib_before = common.calibrate()
    timed_start = time.perf_counter()
    sweeps = []
    mismatched = 0
    while not sweeps or time.perf_counter() - timed_start < args.seconds:
        started = time.perf_counter()
        result = case_study(force=True)
        sweeps.append(time.perf_counter() - started)
        if render(result.tables) != tables:
            mismatched += 1
    timed_end = time.perf_counter()
    calib_after = common.calibrate()
    session.close()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": cold_done - STARTED,
        "sweeps_s": sweeps,
        "timed_start": timed_start,
        "timed_s": timed_end - timed_start,
        "mismatched_sweeps": mismatched,
        "tables": tables,
        "golden_subset": golden_subset,
        "peak_rss_mb": max(own, children) / 1024.0,
        "calib_ms": [calib_before, calib_after],
    }
    if recorder is not None:
        recorder.dump()
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
