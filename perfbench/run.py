"""The repository's benchmark: serve-warm and casestudy.

Run from the repository root::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

It launches the analysing processes with a clean environment (no
``REPRO_*`` variable, fixed ``PYTHONHASHSEED``), drives them, checks every
output, prints a readable table, one diagnostics line, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
layer probes (``probes.py``) are installed and the metrics are per layer.
See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("serve-warm", "casestudy")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Times are median self time per call.
PER_LAYER_UNITS = {
    "serve.overhead_ms": "ms",
    "serve.encode_json_ms": "ms",
    "serve.response_bytes": "bytes",
    "api.results.to_dict_ms": "ms",
    "engine.cache.scriptcache_get_ms": "ms",
    "api.session.run_ms.warm": "ms",
    **{f"jsvm.hooks.replay_ms.{common.modeset_label(m)}": "ms" for m in common.MODESETS},
    "jsvm.hooks.replay_events": "count",
    "ceres.dependence.report_ms": "ms",
    "serve.store.find_ms": "ms",
    "serve.store.disk_hits": "count",
    "jsvm.tracecodec.decode_ms": "ms",
    "api.session.run_ms.cold": "ms",
    "api.session.record_ms": "ms",
    "jsvm.hooks.recorded_events": "count",
    "engine.cache.scriptcache_misses": "count",
    "jsvm.tracecodec.encode_ms": "ms",
    "jsvm.tracecodec.encoded_bytes": "bytes",
    "serve.store.put_ms": "ms",
    "serve.store.segments_written": "count",
    "serve.dedup.queued_ms": "ms",
    "serve.dedup.coalesced": "count",
    "serve.dedup.rejected": "count",
    "serve.store.recordings": "count",
    "engine.pipeline.analyze_many_ms": "ms",
    "engine.pipeline.shipped_bytes": "bytes",
    "engine.stages.record_ms": "ms",
    "engine.stages.profile_ms": "ms",
    "engine.stages.loop-profile_ms": "ms",
    "engine.stages.dependence_ms": "ms",
    "engine.stages.parallel-model_ms": "ms",
    "engine.stages.profile.replay_ms": "ms",
    "engine.stages.loop-profile.replay_ms": "ms",
    "engine.stages.dependence.replay_ms": "ms",
    "analysis.tables.build_ms": "ms",
    "proc.gc_ms": "ms",
    "host.calib_ms": "ms",
    "trace.spans": "count",
    "trace.unattributed_share": "share",
    **{f"trace.overhead.{name}": "%" for name in END_TO_END_UNITS},
}

#: Per-layer metrics of layers a workload never runs.  The traced run
#: still prints them (as 0) and lists them as not applicable; every other
#: per-layer metric must get samples, or the traced run fails.
NOT_APPLICABLE = {
    "serve-warm": {
        "engine.pipeline.analyze_many_ms",
        "engine.pipeline.shipped_bytes",
        "analysis.tables.build_ms",
        *(f"engine.stages.{stage}_ms"
          for stage in ("record", "profile", "loop-profile", "dependence", "parallel-model")),
        *(f"engine.stages.{stage}.replay_ms"
          for stage in ("profile", "loop-profile", "dependence")),
    },
    "casestudy": {
        "api.results.to_dict_ms",
        "api.session.run_ms.warm",
        "api.session.run_ms.cold",
        "api.session.record_ms",
        *(f"jsvm.hooks.replay_ms.{common.modeset_label(m)}" for m in common.MODESETS),
        "jsvm.hooks.replay_events",
        "jsvm.hooks.recorded_events",
        "jsvm.tracecodec.decode_ms",
        "jsvm.tracecodec.encode_ms",
        "jsvm.tracecodec.encoded_bytes",
        *(name for name in PER_LAYER_UNITS
          if name.startswith("serve.") and name != "serve.store.find_ms"),
    },
}

#: Span name -> per-layer time metric (median self ms per call).
SPAN_METRICS = {
    "serve.encode_json": "serve.encode_json_ms",
    "api.results.to_dict": "api.results.to_dict_ms",
    "engine.cache.scriptcache_get": "engine.cache.scriptcache_get_ms",
    "ceres.dependence.report": "ceres.dependence.report_ms",
    "serve.store.find": "serve.store.find_ms",
    "jsvm.tracecodec.decode": "jsvm.tracecodec.decode_ms",
    "api.session.record_trace": "api.session.record_ms",
    "jsvm.tracecodec.encode": "jsvm.tracecodec.encode_ms",
    "serve.store.put": "serve.store.put_ms",
    "engine.pipeline.analyze_many": "engine.pipeline.analyze_many_ms",
    "analysis.tables.build": "analysis.tables.build_ms",
    **{f"engine.stages.{stage}": f"engine.stages.{stage}_ms"
       for stage in ("record", "profile", "loop-profile", "dependence", "parallel-model")},
    **{f"jsvm.hooks.replay.{common.modeset_label(m)}":
       f"jsvm.hooks.replay_ms.{common.modeset_label(m)}" for m in common.MODESETS},
}

#: Layers measured in set-up even though they also run (trivially) later:
#: the casestudy record stage only records in the cold sweep.
SETUP_SPANS = {"engine.stages.record"}
#: Bytes one in-memory span costs, for the memory-overhead estimate.
SPAN_BYTES = 200


#: A single request slower than this is a transport failure (the slowest
#: warm request takes ~3 s).
REQUEST_TIMEOUT_S = 60
#: The timed phase gives up this long after its deadline (wedged daemon).
OVERRUN_LIMIT_S = 100


class BenchError(Exception):
    """The benchmark could not run (not a failed output check)."""


def work_root() -> Path:
    return common.ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


# ------------------------------------------------------------------ processes
class Process:
    """A launched analysing process, always stopped and reaped."""

    def __init__(self, argv: List[str], log: Path) -> None:
        self.log = log
        self._log_handle = open(log, "wb")
        self.popen = subprocess.Popen(
            [sys.executable] + argv,
            cwd=str(common.ROOT),
            env=common.clean_env(),
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    def peak_rss_mb(self) -> float:
        """High-water resident memory (Linux ``VmHWM``) of the live process."""
        with open(f"/proc/{self.popen.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def wait(self, timeout: float) -> int:
        try:
            return self.popen.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"process timed out after {timeout}s; log {self.log}")

    def stop(self) -> int:
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self._log_handle.close()
        return self.popen.returncode

    def kill(self) -> None:
        if self.popen.poll() is None:
            try:
                os.killpg(self.popen.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.popen.wait()

    def log_tail(self, lines: int = 30) -> str:
        try:
            return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""


# ---------------------------------------------------------------------- serve
class Daemon(Process):
    def __init__(self, work: Path, tag: str, store: Path, trace_dir: Optional[Path]):
        port_file = work / f"port-{tag}"
        argv = [str(common.HERE / "daemon.py"),
                "--store-dir", str(store), "--port-file", str(port_file)]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        super().__init__(argv, work / f"daemon-{tag}.log")
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            if self.popen.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"daemon did not start:\n{self.log_tail()}")
            time.sleep(0.01)
        self.port = int(port_file.read_text())
        while True:
            try:
                status, _body = self.get("/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError("daemon never became healthy")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str):
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> dict:
        status, body = self.get("/v1/stats")
        if status != 200:
            raise BenchError(f"/v1/stats answered {status}")
        return json.loads(body)


def post(connection, entry: dict, request_id: str):
    """One closed-loop request: (status or None on transport error, body, seconds)."""
    body = json.dumps({"workload": entry["workload"], "modes": list(entry["modes"])})
    started = time.perf_counter()
    try:
        connection.request(
            "POST", "/v1/analyze", body=body,
            headers={"Content-Type": "application/json", "X-Request-Id": request_id},
        )
        response = connection.getresponse()
        data = response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        status, data = None, b""
    return status, data, time.perf_counter() - started


RESULT_PREFIX = b'{"protocol":1,"result":'


def split_envelope(body: bytes):
    """(raw result bytes, server block) of a canonical response envelope."""
    cut = body.rfind(b',"server":')
    if not body.startswith(RESULT_PREFIX) or cut < 0:
        raise ValueError("not a canonical response envelope")
    return body[len(RESULT_PREFIX):cut], json.loads(body[cut + len(b',"server":'):-2])


class Checker:
    """Checks served bodies against the in-process reference digests."""

    def __init__(self, reference: dict) -> None:
        import reference as ref

        self.ref = ref
        self.results = reference["results"]
        self.errors: List[str] = []

    def check(self, entry: dict, status, body: bytes) -> Optional[dict]:
        """Server block of a correct response, else ``None`` (error recorded)."""
        label = f"{entry['workload']} {common.modeset_label(entry['modes'])}"
        if status != 200:
            self.errors.append(f"{label}: HTTP {status}")
            return None
        try:
            raw, server = split_envelope(body)
        except ValueError as exc:
            self.errors.append(f"{label}: {exc}")
            return None
        cache = "cold" if entry["cold"] else "warm"
        problems = []
        if server.get("cache") != cache:
            problems.append(f"server cache {server.get('cache')!r}, expected {cache!r}")
        if server.get("coalesced_waiters") != 1:
            problems.append("coalesced with another request")
        if self.ref.sha(raw) != self.results[self.ref.key(entry["workload"], entry["modes"])]:
            problems.append("result bytes differ from the in-process run")
        if problems:
            self.errors.append(f"{label}: " + "; ".join(problems))
            return None
        return server


def ensure_reference() -> dict:
    """The in-process reference digests, computed once per program version."""
    import reference

    path = work_root() / f"reference-{reference.sources_digest()[:16]}.json"
    if not path.exists():
        log = work_root() / "reference.log"
        process = Process([str(common.HERE / "reference.py"), str(path)], log)
        try:
            code = process.wait(timeout=800)
        finally:
            process.stop()
        if code != 0 or not path.exists():
            raise BenchError(f"reference run failed:\n{process.log_tail()}")
    return json.loads(path.read_text(encoding="utf-8"))


def run_serve(args, work: Path) -> dict:
    checker = Checker(ensure_reference())
    store = work / "store"
    trace_dir = work / "trace" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir()
    attempted = failed = 0

    def setup_request(connection, app: str, cold: bool) -> None:
        nonlocal attempted, failed
        entry = {"workload": app, "modes": common.LIGHTWEIGHT, "cold": cold}
        status, body, _seconds = post(connection, entry, f"setup-{'record' if cold else 'touch'}-{app}")
        attempted += 1
        if checker.check(entry, status, body) is None:
            failed += 1

    # Set-up: record the twelve apps into a fresh store, restart the daemon
    # on that store, and touch each app once (index load + first decode).
    setup_started = time.perf_counter()
    first = Daemon(work, "setup", store, trace_dir)
    try:
        connection = first.connect()
        for app in common.APPS:
            setup_request(connection, app, True)
        connection.close()
        setup_stats = first.stats()
        setup_rss_mb = first.peak_rss_mb()
    finally:
        first.stop()
    if setup_stats["recordings"] != len(common.APPS):
        checker.errors.append("set-up did not record each app exactly once")
    daemon = Daemon(work, "timed", store, trace_dir)
    try:
        connection = daemon.connect()
        for app in common.APPS:
            setup_request(connection, app, False)
        connection.close()
        setup_s = time.perf_counter() - setup_started

        # Timed phase: one closed-loop connection runs whole cycles until the
        # deadline (a second connection made latencies depend on which
        # requests happened to overlap under the interpreter lock).
        calib_before = common.calibrate()
        stats_before = daemon.stats()
        done = []
        cycles_run = 0
        timed_start = time.perf_counter()
        deadline = timed_start + args.seconds
        connection = daemon.connect()
        try:
            for cycle_number, cycle in enumerate(common.plan_cycles(args.seed)):
                if time.perf_counter() >= deadline:
                    break
                cycles_run += 1
                for number, entry in enumerate(cycle):
                    if time.perf_counter() >= deadline + OVERRUN_LIMIT_S:
                        break
                    request_id = f"{cycle_number}-{number}"
                    status, body, seconds = post(connection, entry, request_id)
                    done.append((entry, status, body, seconds, request_id))
                    if status is None:
                        connection.close()
                        connection = daemon.connect()
        finally:
            connection.close()
        timed_end = time.perf_counter()
        stats_after = daemon.stats()
        peak_rss_mb = max(setup_rss_mb, daemon.peak_rss_mb())
        calib_after = common.calibrate()
    finally:
        code = daemon.stop()
    if code not in (0, 130):
        raise BenchError(f"daemon exited with {code}:\n{daemon.log_tail()}")

    latency_ms, overhead_ms, queued_ms = [], [], []
    latency_by_rid = {}
    for entry, status, body, seconds, request_id in done:
        attempted += 1
        server = checker.check(entry, status, body)
        if server is None:
            failed += 1
            continue
        latency_ms.append(seconds * 1000.0)
        latency_by_rid[request_id] = seconds * 1000.0
        overhead_ms.append(seconds * 1000.0 - server["run_ms"] - server["queued_ms"])
        queued_ms.append(server["queued_ms"])
    recordings = stats_after["recordings"] - stats_before["recordings"]
    if recordings:
        checker.errors.append(f"daemon recorded {recordings} traces in the timed phase")
    queues = (setup_stats["queue"], stats_after["queue"])
    coalesced = sum(queue["coalesced"] for queue in queues)
    rejected = sum(queue["rejected"] for queue in queues)
    if coalesced:
        checker.errors.append(f"{coalesced} requests coalesced; the plan forbids shared keys")
    if not latency_ms:
        raise BenchError("no request completed in the timed phase")
    tail_ms, tail_pct = common.tail(latency_ms)
    stores = (setup_stats["store"], stats_after["store"])
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": checker.errors,
        "e2e": {
            "setup_s": setup_s,
            "latency_p50_ms": common.median(latency_ms),
            "throughput_rps": len(done) / (timed_end - timed_start),
            "peak_rss_mb": peak_rss_mb,
        },
        "diagnostics": {
            "latency_tail_ms": tail_ms,
            "tail_percentile": round(tail_pct, 2),
            "samples": len(latency_ms),
            "cycles": cycles_run,
            "timed_s": timed_end - timed_start,
            "host.calib_ms": [calib_before, calib_after],
        },
        "layers_untraced": {
            "serve.overhead_ms": common.median(overhead_ms),
            "serve.dedup.queued_ms": sum(queued_ms) / len(queued_ms),
            "serve.dedup.coalesced": coalesced,
            "serve.dedup.rejected": rejected,
            "serve.store.recordings": setup_stats["recordings"] + stats_after["recordings"],
            "serve.store.disk_hits": sum(store["disk_hits"] for store in stores),
            "serve.store.segments_written": sum(store["segments_written"] for store in stores),
            "host.calib_ms": (calib_before + calib_after) / 2.0,
        },
        "phase": {"rid": latency_by_rid, "timed": (timed_start, timed_end),
                  "requests": attempted},
    }
    if trace_dir is not None:
        out["layers"] = analyze_trace(trace_dir, out, args.workload)
    return out


# ------------------------------------------------------------------ casestudy
def run_casestudy(args, work: Path) -> dict:
    out_file = work / "casestudy.json"
    argv = [str(common.HERE / "casestudy.py"), "--seconds", str(args.seconds),
            "--out", str(out_file)]
    trace_dir = None
    if args.trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        argv += ["--trace-dir", str(trace_dir)]
    process = Process(argv, work / "casestudy.log")
    try:
        code = process.wait(timeout=170)
    finally:
        process.stop()
    if code != 0 or not out_file.exists():
        raise BenchError(f"casestudy process exited with {code}:\n{process.log_tail()}")
    data = json.loads(out_file.read_text(encoding="utf-8"))
    errors = []
    attempted = 1 + len(data["sweeps_s"])
    failed = data["mismatched_sweeps"]
    if failed:
        errors.append(f"{failed} warm sweeps rendered tables unlike the set-up sweep")
    golden = (common.ROOT / "tests" / "goldens" / "case_study_tables.txt").read_text(
        encoding="utf-8"
    )
    if data["golden_subset"] != golden:
        errors.append("fluidSim/Raytracing/Normal Mapping tables differ from the golden file")
        failed += 1
    sweeps_ms = [seconds * 1000.0 for seconds in data["sweeps_s"]]
    timed_s = data["timed_s"]
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "e2e": {
            "setup_s": data["setup_s"],
            "latency_p50_ms": common.median(sweeps_ms),
            "throughput_rps": 12 * len(sweeps_ms) / timed_s,
            "peak_rss_mb": data["peak_rss_mb"],
        },
        "diagnostics": {
            "sweeps_ms": sweeps_ms,
            "timed_s": timed_s,
            "host.calib_ms": data["calib_ms"],
        },
        "layers_untraced": {"host.calib_ms": sum(data["calib_ms"]) / 2.0},
        "phase": {"timed": (data["timed_start"], data["timed_start"] + timed_s),
                  "requests": attempted},
    }
    if trace_dir is not None:
        out["layers"] = analyze_trace(trace_dir, out, args.workload)
    return out


# -------------------------------------------------------------------- tracing
def load_spans(trace_dir: Path):
    spans, counters = [], {}
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                if "counters" in row:
                    for name, value in row["counters"].items():
                        if name == "probe.span_cost_ms":
                            counters[name] = max(counters.get(name, 0.0), value)
                        else:
                            counters[name] = counters.get(name, 0) + value
                else:
                    spans.append(row)
    return spans, counters


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def analyze_trace(trace_dir: Path, run: dict, workload: str) -> dict:
    spans, counters = load_spans(trace_dir)
    children: Dict[str, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    timed_start, timed_end = run["phase"]["timed"]

    def self_ms(span) -> float:
        inner = [
            (max(child["start"], span["start"]), min(child["end"], span["end"]))
            for child in children.get(span["id"], ())
            if child["end"] > span["start"] and child["start"] < span["end"]
        ]
        return (span["end"] - span["start"] - covered(inner)) * 1000.0

    # Each layer is measured in the timed phase when it runs there, else in
    # set-up (recording and first decode only run in set-up).  Replays run
    # by a casestudy stage are reported per stage.
    names = {span["id"]: span["name"] for span in spans}
    values: Dict[str, Dict[bool, List[float]]] = {}

    def note(metric: str, in_timed: bool, value: float) -> None:
        values.setdefault(metric, {True: [], False: []})[in_timed].append(value)

    for span in spans:
        name = span["name"]
        in_timed = timed_start <= span["start"] <= timed_end
        if in_timed and name in SETUP_SPANS:
            continue
        extra = span.get("extra") or {}
        parent = names.get(span["parent"], "")
        if name.startswith("jsvm.hooks.replay.") and parent.startswith("engine.stages."):
            note(f"{parent}.replay_ms", in_timed, self_ms(span))
            continue
        if name == "api.session.run":
            kids = {child["name"] for child in children.get(span["id"], ())}
            warmth = "cold" if "api.session.record_trace" in kids else "warm"
            note(f"api.session.run_ms.{warmth}", in_timed, self_ms(span))
            continue
        metric = SPAN_METRICS.get(name)
        if metric is not None:
            note(metric, in_timed, self_ms(span))
        if name.startswith("jsvm.hooks.replay.") and extra.get("events") is not None:
            note("jsvm.hooks.replay_events", in_timed, extra["events"])
        elif name == "api.session.record_trace" and extra.get("events") is not None:
            note("jsvm.hooks.recorded_events", in_timed, extra["events"])
        elif name == "jsvm.tracecodec.encode" and "bytes" in extra:
            note("jsvm.tracecodec.encoded_bytes", in_timed, extra["bytes"])
        elif name == "serve.encode_json" and "bytes" in extra:
            note("serve.response_bytes", in_timed, extra["bytes"])
        elif name == "engine.pipeline.worker_task":
            note("engine.pipeline.shipped_bytes", in_timed, extra["shipped_bytes"])

    layers = {metric: common.median(by_phase[True] or by_phase[False])
              for metric, by_phase in values.items()}
    layers.update(run["layers_untraced"])
    if "proc.gc_ms" in counters:
        layers["proc.gc_ms"] = counters["proc.gc_ms"] / run["phase"]["requests"]
    if "engine.cache.scriptcache_misses" in counters:
        layers["engine.cache.scriptcache_misses"] = counters["engine.cache.scriptcache_misses"]
    timed_spans = [span for span in spans if timed_start <= span["start"] <= timed_end]
    layers["trace.spans"] = len(spans)

    # Unattributed share: time inside each root not covered by any layer span.
    cost_ms = counters.get("probe.span_cost_ms", 0.0)
    setup_spans = sum(1 for span in spans if span["start"] < timed_start)
    if workload == "serve-warm":
        roots = {span["rid"]: span for span in spans if span["name"] == "serve.request"}
        by_rid: Dict[str, list] = {}
        for span in timed_spans:
            if span["name"] != "serve.request" and span["rid"] is not None:
                by_rid.setdefault(span["rid"], []).append(span)
        total = unattributed = 0.0
        shares = []
        for rid, latency_ms in run["phase"]["rid"].items():
            inner = [(span["start"], span["end"]) for span in by_rid.get(rid, ())]
            total += latency_ms
            unattributed += max(latency_ms - covered(inner) * 1000.0, 0.0)
            spans_here = len(by_rid.get(rid, ())) + (1 if rid in roots else 0)
            shares.append(100.0 * spans_here * cost_ms / latency_ms)
        layers["trace.unattributed_share"] = unattributed / total if total else 0.0
        overhead = {"latency_p50_ms": common.median(shares)}
    else:
        sweeps = [span for span in spans if span["name"] == "casestudy.sweep"]
        others = [span for span in spans if span["name"] != "casestudy.sweep"]
        total = unattributed = 0.0
        for sweep in sweeps:
            inner = [
                (max(span["start"], sweep["start"]), min(span["end"], sweep["end"]))
                for span in others
                if span["end"] > sweep["start"] and span["start"] < sweep["end"]
            ]
            total += sweep["end"] - sweep["start"]
            unattributed += sweep["end"] - sweep["start"] - covered(inner)
        layers["trace.unattributed_share"] = unattributed / total if total else 0.0
        per_sweep = len(timed_spans) * cost_ms / max(len(sweeps) - 1, 1)
        overhead = {"latency_p50_ms": 100.0 * per_sweep / run["e2e"]["latency_p50_ms"]}
    overhead["setup_s"] = 100.0 * setup_spans * cost_ms / (run["e2e"]["setup_s"] * 1000.0)
    wall_ms = (timed_end - timed_start) * 1000.0
    overhead["throughput_rps"] = 100.0 * len(timed_spans) * cost_ms / wall_ms
    overhead["peak_rss_mb"] = 100.0 * len(spans) * SPAN_BYTES / (
        run["e2e"]["peak_rss_mb"] * 1024 * 1024
    )
    for name in END_TO_END_UNITS:
        layers[f"trace.overhead.{name}"] = overhead[name]

    # A probe that stops matching (a renamed class or method) leaves its
    # metric without samples: that fails the run instead of reading as 0.
    not_applicable = NOT_APPLICABLE[workload]
    missing = [name for name in PER_LAYER_UNITS if name not in layers and name not in not_applicable]
    if missing:
        run["errors"].append("traced run got no samples for " + ", ".join(missing))
    run["diagnostics"]["not_applicable"] = sorted(not_applicable)
    return {name: layers.get(name, 0.0) for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------- main
def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_sources()
    # A terminated run still stops the processes it launched.
    signal.signal(signal.SIGTERM, _interrupt)
    work = work_root() / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        run = (run_casestudy if args.workload == "casestudy" else run_serve)(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in run["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not run["errors"] and run["failed"] == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: correct={correct}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<22} {run['e2e'][name]:.4f} {unit}")
    if args.trace:
        not_applicable = NOT_APPLICABLE[args.workload]
        for name, value in run["layers"].items():
            note = "  (not applicable)" if name in not_applicable else ""
            print(f"  {name:<40} {value:.4f} {PER_LAYER_UNITS[name]}{note}")
    diagnostics = dict(run["diagnostics"], host=common.host_info(),
                       traced_e2e=run["e2e"] if args.trace else None)
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": run["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
