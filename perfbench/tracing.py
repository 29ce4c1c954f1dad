"""Spans recorded from outside the program, by wrapping public calls.

The traced run installs wrappers around the public functions of each
layer (``video``, ``session``, ``graph``, ``dtcwt``, ``core``,
``serve``, ``serve.shard``) for the duration of one drive and restores
the originals afterwards; nothing under ``src/`` knows it is being
timed.  Spans stay in memory until the run ends and are then written
out as a Chrome/Perfetto trace.

A span records its name, start, end, thread and depth.  Depth counts
the wrapped calls already open on the same thread, so a depth-0 span
is a *top-level* span: the benchmark's source pull, or a layer call
the executor or a service worker made directly.  Wrappers that share a
``group`` do not nest: a ``fuse_many`` that calls ``fuse`` records one
rule span, not two.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple

#: what a span carries besides its duration (see :func:`_span_value`)
_FRAMES_IN = "frames_in"
_GRANTED = "granted"

#: (span name, owner import path, attribute names, group, value kind)
#: — the public calls the traced run wraps

WRAPPED: Tuple[Tuple[str, str, Tuple[str, ...], str, Optional[str]], ...] = (
    ("video.capture", "repro.video.capture:CaptureChain",
     ("capture_pair",), "video.capture", None),
    ("video.webcam", "repro.video.webcam:WebcamSimulator",
     ("capture",), "video.webcam", None),
    ("video.thermal_encode", "repro.video.thermal:ThermalCameraSimulator",
     ("capture_bt656",), "video.thermal", None),
    ("video.bt656_decode", "repro.video.bt656:Bt656Decoder",
     ("push_bytes",), "video.bt656", None),
    ("video.scale", "repro.video.scaler:VideoScaler",
     ("scale",), "video.scale", None),
    ("graph.lower", "repro.graph.planner:Planner",
     ("lower",), "graph", None),
    ("dtcwt.forward", "repro.dtcwt.transform2d:Dtcwt2D",
     ("forward", "forward_batch"), "dtcwt.forward", _FRAMES_IN),
    ("dtcwt.inverse", "repro.dtcwt.transform2d:Dtcwt2D",
     ("inverse", "inverse_batch"), "dtcwt.inverse", None),
    ("dtcwt.kernel.numpy", "repro.dtcwt.backend:KernelBackend",
     ("analysis_u", "synthesis_u", "analysis_d", "synthesis_d"),
     "dtcwt.kernel", None),
    ("dtcwt.kernel.jit", "repro.dtcwt.jit_backend:JitBackend",
     ("analysis_u", "synthesis_u", "analysis_d", "synthesis_d"),
     "dtcwt.kernel", None),
    ("dtcwt.kernel.hls", "repro.hw.fpga:HlsBackend",
     ("analysis_u", "synthesis_u", "analysis_d", "synthesis_d"),
     "dtcwt.kernel", None),
    ("core.fuse_rule", "repro.core.fusion_rules:FusionRule",
     ("fuse", "fuse_stack", "fuse_many", "fuse_stack_many"),
     "core.rule", None),
    # the session calls the name it imported, so the module global it
    # resolves at call time is the one to wrap
    ("core.quality", "repro.session.session", ("fusion_report",),
     "core.quality", None),
    ("serve.try_lease", "repro.serve.pool:EnginePool",
     ("try_lease",), "serve.lease", _GRANTED),
    ("shard.start", "repro.serve.shard.service:ShardedFusionService",
     ("start",), "shard.start", None),
    ("shard.ring_put", "repro.serve.shard.ring:FrameRing",
     ("put",), "shard.ring", None),
    ("shard.ring_get", "repro.serve.shard.ring:FrameRing",
     ("get",), "shard.ring", None),
)


#: spans that mostly wait (a parent-side ring get blocks until a shard
#: sends a result); they never count as attributed time
WAITING = frozenset({"shard.ring_get"})


def _span_value(kind: Optional[str], args: tuple, result) -> float:
    if kind == _FRAMES_IN:
        # forward(image) is one frame; forward_batch(frames) stacks
        # every leading axis of its (..., H, W) input
        shape = getattr(args[1], "shape", ())
        frames = 1
        for extent in shape[:-2]:
            frames *= int(extent)
        return float(frames)
    if kind == _GRANTED:
        return 0.0 if result is None else 1.0
    return 1.0


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, attr) if attr else module


class Recorder:
    """In-memory span store; one instance per traced drive."""

    def __init__(self) -> None:
        #: (name, start_s, end_s, thread ident, depth, value)
        self.spans: List[Tuple[str, float, float, int, int, float]] = []
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span (the benchmark's own
        source wrappers use this directly)."""
        stack = self._stack()
        depth = len(stack)
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, threading.get_ident(),
                               depth, 1.0))

    def _wrap(self, original: Callable, name: str, group: str,
              kind: Optional[str]) -> Callable:
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if group in stack:
                return original(*args, **kwargs)
            depth = len(stack)
            stack.append(group)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((name, start, end, threading.get_ident(),
                              depth, _span_value(kind, args, result)))
        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every call in :data:`WRAPPED` (idempotent per instance)."""
        if self._installed:
            return
        for name, path, attrs, group, kind in WRAPPED:
            owner = _resolve(path)
            for attr in attrs:
                own = attr in vars(owner)
                saved = vars(owner)[attr] if own else None
                setattr(owner, attr,
                        self._wrap(getattr(owner, attr), name, group,
                                   kind))
                self._installed.append((owner, attr, saved, own))

    def uninstall(self) -> None:
        """Put every original back, newest wrapper first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries -----------------------------------------------------
    def calls(self, name: str) -> Tuple[int, float, float]:
        """(calls, total seconds, total value) of spans named ``name``."""
        count, seconds, value = 0, 0.0, 0.0
        for span_name, start, end, _, _, span_value in self.spans:
            if span_name == name:
                count += 1
                seconds += end - start
                value += span_value
        return count, seconds, value

    def mean_ms(self, name: str) -> float:
        count, seconds, _ = self.calls(name)
        return 1e3 * seconds / count if count else 0.0

    def covered_s(self, begin: float, end: float) -> float:
        """Seconds of ``[begin, end]`` inside at least one top-level
        span of any thread (the union, so overlapping threads count
        once), :data:`WAITING` spans excluded."""
        intervals = sorted((max(start, begin), min(stop, end))
                           for name, start, stop, _, depth, _ in self.spans
                           if depth == 0 and name not in WAITING
                           and stop > begin and start < end)
        covered = 0.0
        cursor = begin
        for start, stop in intervals:
            if stop <= cursor:
                continue
            covered += stop - max(start, cursor)
            cursor = stop
        return covered

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome/Perfetto ``X`` events."""
        if not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        events = [{"name": name, "ph": "X", "pid": os.getpid(),
                   "tid": tid, "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"depth": depth, "value": value}}
                  for name, start, end, tid, depth, value in self.spans]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
