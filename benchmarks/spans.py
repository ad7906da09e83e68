"""In-memory span tracing around the program's cross-module calls.

The tracer replaces module attributes with wrappers that record one span
per call: name, start, end, parent span and request. Spans stay in memory
and are written out once, when the run ends. Nothing in the program is
changed; uninstall() puts the original functions back, so the end-to-end
timings are always taken with tracing off.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from rrauth import authcore, evalx, learners
from rrauth import signal as ecgsig

# (module, attribute, span name): every call between the benchmark and the
# program, and every call one module of the program makes into another.
TARGETS = (
    (ecgsig, "load_csv", "signal.load_csv"),
    (authcore, "preprocess", "signal.preprocess"),
    (authcore, "detect_rpeaks", "beat.detect_rpeaks"),
    (authcore, "frame_rr", "beat.frame_rr"),
    (authcore, "train_dt", "learners.train_dt"),
    (learners, "train_dt", "learners.train_dt"),
    (authcore, "predict_curve", "learners.predict_curve"),
    (learners, "train_svr", "learners.train_svr"),
    (authcore, "enroll", "authcore.enroll"),
    (authcore, "authenticate", "authcore.authenticate"),
    (authcore, "score_frames", "authcore.score_frames"),
    (evalx, "score_frames", "authcore.score_frames"),
    (authcore, "decide", "authcore.decide"),
    (evalx, "decide", "authcore.decide"),
    (authcore, "db_to_json", "authcore.db_to_json"),
    (authcore, "save_db", "authcore.save_db"),
    (authcore, "load_db", "authcore.load_db"),
    (evalx, "sweep_ucl", "evalx.sweep_ucl"),
    (evalx, "run_trials", "evalx.run_trials"),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    self_s: float = 0.0  # duration minus the time covered by child spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request = 0
        self._saved: list[tuple[object, str, object]] = []
        self.peaks: list[tuple[str, object]] = []  # (subject id, PeakList) per detection
        self.decide_keys: list[tuple[int, float]] = []  # (frame table id, gate) per decide

    def install(self) -> None:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    @contextmanager
    def request(self, name: str):
        """A top-level span; the spans of the calls inside share its request id."""
        self._request += 1
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._request, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.self_s += span.end - span.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].self_s -= span.end - span.start

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "beat.detect_rpeaks":
                self.peaks.append((args[0].subject_id, result))
            elif name == "authcore.decide":
                self.decide_keys.append((id(args[1]), float(args[2])))
            return result
        return traced

    # -- summaries ---------------------------------------------------------

    def median(self, name: str, scale: float, self_time: bool = False) -> float:
        """Median span duration (or self time) times `scale`; 0.0 if never called."""
        values = [(s.self_s if self_time else s.end - s.start) * scale
                  for s in self.spans if s.name == name]
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent,
                                     "request": s.request, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "self": s.self_s}) + "\n")
