"""Load generation, timing and output checking shared by the workloads.

Closed-loop drives pull through :class:`TimedSource`, which notes when
each pull starts, so a frame's latency runs from the start of its
source pull to its delivery.  Open-loop drives pull through
:class:`PacedSource`: the pacing lives inside the source the service
pulls, so the generator starts no thread of its own.  A paced frame is
due at ``epoch + phase + index * period``; due times are fixed when
the first pull of the drive sets the epoch and never shift when the
system slows, and the source notes how late after its due time each
frame was pulled.
"""

from __future__ import annotations

import math
import multiprocessing
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.metrics import petrovic_qabf
from repro.session import FrameSource
from repro.video.scaler import resize_to
from repro.video.scene import SyntheticScene


@dataclass
class Delivery:
    """One fused frame as the benchmark received it."""

    stream: str
    index: int
    pixels: np.ndarray
    engine: str
    model_seconds: float
    model_millijoules: float
    visible: np.ndarray
    thermal: np.ndarray
    delivered_s: float
    latency_s: float


def delivery(stream: str, result, delivered_s: float,
             started_s: float) -> Delivery:
    return Delivery(stream=stream, index=result.index,
                    pixels=result.pixels, engine=result.engine,
                    model_seconds=result.model_seconds,
                    model_millijoules=result.model_millijoules,
                    visible=result.visible, thermal=result.thermal,
                    delivered_s=delivered_s,
                    latency_s=delivered_s - started_s)


class _Wrapped(FrameSource):
    """Delegates ``closed``/``close`` and transport counters (the
    session reads ``fifo_dropped``/``decode_errors`` off its source)
    to the wrapped source."""

    def __init__(self, inner: FrameSource, recorder=None):
        self.inner = inner
        self.recorder = recorder

    @property
    def closed(self) -> bool:
        return bool(getattr(self.inner, "closed", False))

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str):
        if name in ("fifo_dropped", "decode_errors"):
            return getattr(self.inner, name)
        raise AttributeError(name)

    def _pull(self, iterator):
        if self.recorder is None:
            return next(iterator)
        with self.recorder.span("session.source_pull"):
            return next(iterator)


class TimedSource(_Wrapped):
    """Closed-loop source wrapper: records each pull's start time."""

    def __init__(self, inner: FrameSource, recorder=None):
        super().__init__(inner, recorder)
        self.pull_starts: List[float] = []

    def frames(self):
        iterator = iter(self.inner)
        while True:
            started = time.perf_counter()
            try:
                group = self._pull(iterator)
            except StopIteration:
                return
            self.pull_starts.append(started)
            yield group


class PaceClock:
    """The drive's shared epoch, set by the first pull of any source."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.epoch: Optional[float] = None

    def start(self) -> float:
        with self._lock:
            if self.epoch is None:
                self.epoch = time.perf_counter()
            return self.epoch


class PacedSource(_Wrapped):
    """Open-loop source wrapper: frame ``i`` is released at its due
    time; the sleep happens in whichever thread pulls."""

    def __init__(self, inner: FrameSource, clock: PaceClock,
                 phase_s: float, period_s: float, recorder=None):
        super().__init__(inner, recorder)
        self.clock = clock
        self.phase_s = phase_s
        self.period_s = period_s
        self.due_s: List[float] = []
        self.lag_s: List[float] = []

    def frames(self):
        iterator = iter(self.inner)
        epoch = self.clock.start()
        index = 0
        while True:
            due = epoch + self.phase_s + index * self.period_s
            pulled = time.perf_counter()
            if pulled < due:
                time.sleep(due - pulled)
            try:
                group = self._pull(iterator)
            except StopIteration:
                return
            self.due_s.append(due)
            self.lag_s.append(max(0.0, pulled - due))
            index += 1
            yield group


# -- inputs ------------------------------------------------------------
def render_footage(seed: int, shape: Sequence[int], frames: int):
    """``frames`` (visible, thermal) pairs of the seeded synthetic
    world, resized to ``shape`` = (width, height) before any timing."""
    scene = SyntheticScene(seed=seed)
    rows_cols = (int(shape[1]), int(shape[0]))
    visible, thermal = [], []
    for index in range(frames):
        t_s = index / 25.0
        visible.append(resize_to(scene.render_visible(t_s), rows_cols))
        thermal.append(resize_to(scene.render_thermal(t_s), rows_cols))
    return visible, thermal


# -- host speed ---------------------------------------------------------
class HostSpeed:
    """Times a fixed calibration kernel between frames, so compute-bound
    timings can be scaled to a reference host speed.

    On a shared host the same frames take up to 1.5x longer for minutes
    at a time; a kernel timed in the same minutes slows alike.  The
    kernel is the benchmark's own and never calls the program: a
    pure-Python byte state machine (like the BT.656 decoder's inner
    loop) plus NumPy arithmetic on a 640x480 plane (like capture and
    scaling).  ``factor`` is the median sample over ``reference_s``;
    dividing a time by it (or multiplying a rate) gives the figure at
    reference speed.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.samples: List[float] = []
        # made on the first sample, then kept: the program's frames
        # evict them between samples, as they evict its own data
        self._bytes: Optional[bytes] = None
        self._plane: Optional[np.ndarray] = None

    def _state_machine(self) -> int:
        state = count = 0
        for byte in self._bytes:
            if state == 0:
                if byte == 0xFF:
                    state = 1
                else:
                    count += byte & 3
            elif state == 1:
                state = 2 if byte == 0x00 else 0
            else:
                state = 0
        return count

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        if self._plane is None:
            rng = np.random.default_rng(0)
            self._bytes = bytes(rng.integers(0, 256, 150_000,
                                             dtype=np.uint8))
            self._plane = rng.random((480, 640))
        started = time.perf_counter()
        self._state_machine()
        plane = self._plane
        for _ in range(10):
            plane = np.sqrt(plane * 0.5 + 0.25)
        took = time.perf_counter() - started
        self.samples.append(took)
        return took

    @property
    def factor(self) -> float:
        """Median sample over the reference; 1.0 before any sample."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / self.reference_s


# -- statistics --------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_peak_rss_kib() -> Dict[int, int]:
    """Peak resident KiB of every live child process, by pid."""
    return {child.pid: _vm_hwm_kib(child.pid)
            for child in multiprocessing.active_children()}


def stop_helper_processes(timeout_s: float = 10.0) -> None:
    """Stop and reap every process this one started: live
    :mod:`multiprocessing` children (shards the program failed to join)
    and the resource tracker that creating shared memory starts, which
    would otherwise outlive this process until it notices the exit."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker
    # closing the tracker's pipe makes it unlink anything still
    # registered and exit; _stop() then waits for it
    resource_tracker._resource_tracker._stop()


def own_peak_rss_kib() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return peak // 1024 if sys.platform == "darwin" else peak


# -- output check ------------------------------------------------------
def check_outputs(deliveries: Sequence[Delivery],
                  reference: Callable[[str, int], Optional[object]],
                  ) -> List[str]:
    """Compare every delivered frame bitwise with its reference frame:
    the engine, the fused pixels and the ingested visible and thermal
    inputs it was fused from.

    ``reference(stream, index)`` returns the reference
    :class:`~repro.session.FusedFrameResult` (or ``None`` when there is
    none).  Returns one message per frame that differs.
    """
    problems = []
    for item in deliveries:
        ref = reference(item.stream, item.index)
        mismatches = []
        if ref is None:
            mismatches.append("no reference frame")
        else:
            if ref.engine != item.engine:
                mismatches.append(f"engine {item.engine} != reference "
                              f"{ref.engine}")
            if ref.pixels.shape != item.pixels.shape:
                mismatches.append(f"shape {item.pixels.shape} != reference "
                              f"{ref.pixels.shape}")
            elif not np.array_equal(ref.pixels, item.pixels):
                diff = np.abs(ref.pixels.astype(np.int16)
                              - item.pixels.astype(np.int16))
                mismatches.append(f"{int(np.count_nonzero(diff))} pixels "
                              f"differ from the reference (max |diff| "
                              f"{int(diff.max())})")
            for modality in ("visible", "thermal"):
                ours = getattr(item, modality)
                theirs = getattr(ref, modality)
                if ours.shape != theirs.shape:
                    mismatches.append(f"{modality} input shape "
                                      f"{ours.shape} != reference "
                                      f"{theirs.shape}")
                elif not np.array_equal(ours, theirs):
                    mismatches.append(
                        f"{int(np.count_nonzero(ours != theirs))} "
                        f"{modality} input samples differ from the "
                        f"reference")
        if mismatches:
            problems.append(f"{item.stream}[{item.index}]: "
                            + "; ".join(mismatches))
    return problems


def mean_qabf(deliveries: Sequence[Delivery]) -> float:
    """Mean Petrovic Q^AB/F of the delivered frames against the inputs
    they were fused from."""
    if not deliveries:
        return 0.0
    return float(np.mean([
        petrovic_qabf(item.visible, item.thermal,
                      item.pixels.astype(np.float64))
        for item in deliveries]))
