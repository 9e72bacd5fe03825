"""Span recording for the traced run, attached from outside the program.

:func:`install` wraps the public entry points of each layer so every
call records a span: name, start, end, parent
span, request id, process and thread.  Spans stay in memory and are written
as JSON lines by :meth:`Recorder.dump` when the traced process ends.  Only
the traced run installs these wrappers; end-to-end metrics come from runs
that never import this module.

Within a thread spans nest through a per-thread stack.  A serve job hops
threads (HTTP handler -> single-flight worker), so the executor's ``submit``
is wrapped to carry the request id and parent span across, and the queue
wait becomes a synthetic ``serve.dedup.queue`` span.  Fork-per-batch fan-out
workers inherit the wrappers and dump their spans after every task.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """In-memory span and counter sink for one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_started = 0.0
        self.pid = os.getpid()

    # ------------------------------------------------------------ context
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "rid", None)

    def set_context(self, request_id: Optional[str], parent: Optional[int]) -> None:
        self._local.rid = request_id
        self._local.stack = [parent] if parent is not None else []

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start: float, end: float, parent: Optional[int], extra=None) -> int:
        span_id = next(self._ids)
        self.spans.append(
            (span_id, parent, name, start, end, self.request_id, threading.get_ident(), extra)
        )
        return span_id

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -------------------------------------------------------------- spans
    def wrap(self, func: Callable, name, extra: Optional[Callable] = None) -> Callable:
        """Return ``func`` recording one span per call.

        ``name`` is a string or a callable ``(args, kwargs, result) -> str``
        (for spans classified by their outcome); ``extra`` maps
        ``(args, kwargs, result)`` to a small dict stored on the span.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = _clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs, result)
                info = extra(args, kwargs, result) if extra is not None else None
                self.spans.append(
                    (span_id, parent, label, start, end, self.request_id,
                     threading.get_ident(), info)
                )

        traced.__wrapped_by_probe__ = True
        return traced

    def patch(self, owner: Any, attr: str, name, extra: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_probe__", False):
            return
        setattr(owner, attr, self.wrap(original, name, extra))

    # ----------------------------------------------------------------- gc
    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.count("proc.gc_ms", (_clock() - self._gc_started) * 1000.0)
            self.count("proc.gc_collections")

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # --------------------------------------------------------------- dump
    def reset_after_fork(self) -> None:
        """Drop the parent's spans in a freshly forked worker."""
        self.spans = []
        self.counters = {}
        self.pid = os.getpid()

    def dump(self, tag: str = "") -> str:
        """Append this process's spans and counters to its own JSON-lines file."""
        path = os.path.join(self.out_dir, f"spans-{self.pid}{tag}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                span_id, parent, name, start, end, rid, tid, info = span
                handle.write(
                    json.dumps(
                        {
                            "id": f"{self.pid}:{span_id}",
                            "parent": None if parent is None else f"{self.pid}:{parent}",
                            "name": name,
                            "start": start,
                            "end": end,
                            "rid": rid,
                            "pid": self.pid,
                            "tid": tid,
                            "extra": info,
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counters": self.counters, "pid": self.pid}) + "\n")
        self.spans = []
        self.counters = {}
        return path


def span_cost_ms(recorder: Recorder, calls: int = 20000) -> float:
    """Measured cost of one recorded span (wrapped call minus bare call)."""

    def noop():
        return None

    wrapped = recorder.wrap(noop, "probe.calibration")
    started = _clock()
    for _ in range(calls):
        noop()
    bare = _clock() - started
    started = _clock()
    for _ in range(calls):
        wrapped()
    traced = _clock() - started
    recorder.spans = [span for span in recorder.spans if span[2] != "probe.calibration"]
    return max(traced - bare, 0.0) * 1000.0 / calls


# ------------------------------------------------------------- installation
def _modeset_of_replay(args, kwargs, result) -> str:
    tracers = args[1] if len(args) > 1 else kwargs.get("tracers", [])
    names = sorted(type(tracer).__name__ for tracer in tracers)
    labels = {
        "LightweightProfiler": "lightweight",
        "GeckoProfiler": "gecko",
        "LoopProfiler": "loop_profile",
        "DependenceAnalyzer": "dependence",
    }
    modes = [labels.get(name, name) for name in names]
    if len(modes) == 4:
        return "jsvm.hooks.replay.all"
    return "jsvm.hooks.replay." + "+".join(sorted(modes))


def _replay_extra(args, kwargs, result):
    trace = args[0].trace
    events = getattr(trace, "events", None)
    if events is not None:
        return {"events": len(events)}
    return {"events": getattr(trace, "event_count", None)}


def _trace_events(args, kwargs, result):
    events = getattr(result, "events", None)
    return {"events": len(events) if events is not None else None}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return None


def _response_bytes(args, kwargs, result):
    return {"bytes": len(result)} if isinstance(result, (bytes, bytearray)) else None


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap every layer entry point the benchmark times."""
    from repro.api import results, session
    from repro.ceres import dependence
    from repro.engine import cache, pipeline, stages
    from repro.jsvm import hooks, tracecodec

    recorder.watch_gc()
    patch = recorder.patch

    patch(session.AnalysisSession, "run", "api.session.run")
    patch(session.AnalysisSession, "record_trace", "api.session.record_trace", _trace_events)
    patch(results.RunResult, "to_dict", "api.results.to_dict")
    patch(cache.ScriptCache, "get", "engine.cache.scriptcache_get")
    _patch_scriptcache_misses(recorder, cache.ScriptCache)
    patch(cache.TraceStore, "find", "serve.store.find")
    patch(cache.TraceStore, "find_source", "serve.store.find")
    patch(tracecodec, "write_binary_trace", "jsvm.tracecodec.encode", _file_bytes)
    patch(tracecodec.BinaryTraceSource, "load", "jsvm.tracecodec.decode")
    patch(hooks.TraceReplayer, "replay", _modeset_of_replay, _replay_extra)
    patch(dependence.DependenceAnalyzer, "report", "ceres.dependence.report")
    patch(pipeline.AnalysisPipeline, "analyze_many", "engine.pipeline.analyze_many")
    patch(pipeline, "build_tables", "analysis.tables.build")
    _patch_stages(recorder, stages)
    _patch_fan_out_worker(recorder, pipeline)
    if serve:
        _install_serve(recorder)


def _patch_scriptcache_misses(recorder: Recorder, script_cache_cls) -> None:
    original = script_cache_cls.get

    @functools.wraps(original)
    def counted(self, path, source):
        before = self.misses
        entry = original(self, path, source)
        if self.misses != before:
            recorder.count("engine.cache.scriptcache_misses")
        return entry

    counted.__wrapped_by_probe__ = True
    script_cache_cls.get = counted


def _patch_stages(recorder: Recorder, stages) -> None:
    """Stages are frozen dataclasses held in module tuples: rebuild them."""
    import dataclasses

    def traced_stage(stage):
        return dataclasses.replace(
            stage, run=recorder.wrap(stage.run, f"engine.stages.{stage.name}")
        )

    stages._RECORD_STAGE = traced_stage(stages._RECORD_STAGE)
    stages._ANALYSIS_STAGES = tuple(traced_stage(stage) for stage in stages._ANALYSIS_STAGES)
    stages._DEFAULT_STAGES = (stages._RECORD_STAGE,) + stages._ANALYSIS_STAGES
    stages._LIVE_STAGES = stages._ANALYSIS_STAGES


def _patch_fan_out_worker(recorder: Recorder, pipeline) -> None:
    """Fork-per-batch workers: record the shipped payload size, dump per task."""
    import pickle

    original = pipeline._analyze_in_worker
    pid_seen = {"pid": os.getpid()}

    def worker(payload):
        if os.getpid() != pid_seen["pid"]:
            pid_seen["pid"] = os.getpid()
            recorder.reset_after_fork()
        started = _clock()
        try:
            return original(payload)
        finally:
            recorder.add(
                "engine.pipeline.worker_task",
                started,
                _clock(),
                None,
                {"shipped_bytes": len(pickle.dumps(payload)), "workload": payload[0]},
            )
            recorder.dump()

    worker.__module__ = original.__module__
    worker.__qualname__ = original.__qualname__
    worker.__name__ = original.__name__
    pipeline._analyze_in_worker = worker


def _install_serve(recorder: Recorder) -> None:
    from repro.serve import dedup, server, store

    patch = recorder.patch
    patch(store.DiskTraceStore, "put", "serve.store.put")
    patch(store.DiskTraceStore, "find_source", "serve.store.find")
    patch(server, "encode_json", "serve.encode_json", _response_bytes)

    traced_post = recorder.wrap(server._Handler.do_POST, "serve.request")

    @functools.wraps(traced_post)
    def do_post(handler):
        recorder.set_context(handler.headers.get("X-Request-Id"), None)
        return traced_post(handler)

    server._Handler.do_POST = do_post

    original_submit = dedup.SingleFlightExecutor.submit

    @functools.wraps(original_submit)
    def submit(executor, key, fn):
        request_id = recorder.request_id
        parent = recorder.current()
        submitted = _clock()

        def job_fn(job):
            recorder.set_context(request_id, parent)
            recorder.add("serve.dedup.queue", submitted, _clock(), parent)
            return recorder.wrap(fn, "serve.job")(job)

        return original_submit(executor, key, job_fn)

    dedup.SingleFlightExecutor.submit = submit
