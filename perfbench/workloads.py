"""The benchmark workloads.

Each workload is generated from the seed alone; the program sees only
the generated inputs.  Constants (shapes, rates, phases, pool, tenant
mix) live in ``spec.json`` beside this file and are never calibrated
per host or per run.

* ``capture-default`` — closed loop over every default: the adaptive
  engine (FPGA at 88x72), serial executor, quality metrics on, pulling
  from the default capture chain.  The path a user runs.
* ``serve-paced`` — open loop: four tenants at the paper's sizes on
  one default :class:`~repro.serve.FusionService`, each camera paced
  at a fixed rate with staggered phases.
* ``serve-paced-sharded`` — the same traffic through
  :class:`~repro.serve.shard.ShardedFusionService`.

``spec.json`` also lists workloads that were tried and dropped as
unsteady, with the measurements behind the decision.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.serve import FusionService
from repro.serve.shard import ShardedFusionService
from repro.session import ArraySource, FusionConfig, FusionSession

from harness import (Delivery, HostSpeed, PaceClock, PacedSource,
                     TimedSource, child_peak_rss_kib, delivery,
                     render_footage)

HERE = os.path.dirname(os.path.abspath(__file__))


def spec() -> dict:
    """The benchmark's constants, layer map and records (``spec.json``)."""
    with open(os.path.join(HERE, "spec.json")) as handle:
        return json.load(handle)


def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    the order ``BENCHMARK.json`` (at the checkout root) declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) \
            as handle:
        return {entry["name"]: entry["unit"]
                for entry in json.load(handle)[kind]}

#: seconds a sharded drive waits for missing frames before it reads the
#: shards' peak RSS anyway
DRAIN_TIMEOUT_S = 90.0

#: a closed-loop drive times the host-speed kernel after every this
#: many deliveries
CALIBRATE_EVERY = 5


@dataclass
class Drive:
    """Everything one drive of a workload produced."""

    #: every delivered frame, warm-up included (closed loop: in
    #: delivery order; paced: in (stream, index) order)
    deliveries: List[Delivery]
    #: the frames of the timed phase (the latency samples)
    timed: List[Delivery]
    #: frames the drive asked the program for
    attempted: int
    #: construction to first delivered frame
    setup_s: float
    #: wall interval the fps figure divides by
    wall_s: float
    #: [begin, end] of the drive, construction included (trace window)
    begin_s: float
    end_s: float
    #: the public per-stream reports of the drive
    reports: list = field(default_factory=list)
    service_report: object = None
    pull_lag_s: List[float] = field(default_factory=list)
    child_rss_kib: int = 0


class ClosedLoop:
    """One stream over every default, next frame pulled as soon as the
    last is delivered."""

    closed_loop = True

    def __init__(self, name: str):
        self.name = name
        self.config: Optional[FusionConfig] = None

    def prepare(self, seed: int) -> None:
        self.config = FusionConfig(seed=seed)

    def setup_sample(self) -> float:
        started = time.perf_counter()
        with FusionSession(self.config) as session:
            with closing(session.stream(session.capture_source())) \
                    as results:
                next(results)
            return time.perf_counter() - started

    def drive(self, seconds: float, samples: int,
              recorder=None, host: Optional[HostSpeed] = None) -> Drive:
        """Time exactly ``samples`` frames after the first (warm-up)
        delivery; ``seconds`` does not apply to a closed loop.

        With ``host``, the calibration kernel runs after every
        ``CALIBRATE_EVERY``-th delivery, before the next pull starts, so
        it lies outside every frame's latency and is taken out of the
        fps wall."""
        begin = time.perf_counter()
        session = FusionSession(self.config)
        # what FusionSession.run() pulls from by default
        source = TimedSource(session.capture_source(), recorder)
        deliveries: List[Delivery] = []
        calibrating_s = 0.0
        try:
            with closing(session.stream(source, limit=samples + 1)) \
                    as results:
                for result in results:
                    deliveries.append(delivery(
                        "main", result, time.perf_counter(),
                        source.pull_starts[len(deliveries)]))
                    if (host is not None and len(deliveries) <= samples
                            and len(deliveries) % CALIBRATE_EVERY == 0):
                        calibrating_s += host.sample()
            report = session.report()
        finally:
            session.close()
        end = time.perf_counter()
        first = deliveries[0]
        return Drive(
            deliveries=deliveries, timed=deliveries[1:],
            attempted=samples + 1,
            setup_s=first.delivered_s - begin,
            wall_s=(deliveries[-1].delivered_s - first.delivered_s
                    - calibrating_s),
            begin_s=begin, end_s=end, reports=[report])

    def reference(self, drive: Drive) -> Callable[[str, int], object]:
        """Reference frames from a fresh default session's plain
        serial ``run`` over its own seeded capture chain, so capture,
        BT.656 transport, the PL scaler and ingest are replayed rather
        than reused (the capture chain never reads the clock)."""
        with FusionSession(self.config) as session:
            records = session.run(len(drive.deliveries)).records
        by_index = {record.index: record for record in records}
        return lambda stream, index: by_index.get(index)


class Paced:
    """Open loop: fixed-rate cameras on one (optionally sharded)
    service."""

    closed_loop = False

    def __init__(self, name: str, shards: int = 0):
        self.name = name
        self.shards = shards
        self.paced = spec()["paced"]
        self.configs: Dict[str, FusionConfig] = {}
        self.footage: Dict[str, tuple] = {}

    def prepare(self, seed: int) -> None:
        for slot, tenant in enumerate(self.paced["tenants"]):
            name = tenant["name"]
            self.configs[name] = FusionConfig(
                seed=seed, fusion_shape=tuple(tenant["fusion_shape"]),
                temporal=tenant.get("temporal", False),
                registration=tenant.get("registration", False))
            # one world per camera, all derived from the workload seed
            self.footage[name] = render_footage(
                seed * 16 + slot, tenant["fusion_shape"],
                self.paced["footage_frames"])

    def frames_per_tenant(self, seconds: float, samples: int) -> int:
        tenants = len(self.paced["tenants"])
        return max(1, math.ceil(seconds * self.paced["rate_fps_per_camera"]),
                   math.ceil(samples / tenants))

    def _service(self):
        pool = self.paced["pool"]
        if self.shards:
            return ShardedFusionService(pool=pool, shards=self.shards)
        return FusionService(pool=pool)

    def _paced(self, recorder=None) -> Dict[str, PacedSource]:
        clock = PaceClock()
        period = 1.0 / self.paced["rate_fps_per_camera"]
        step = self.paced["phase_step_periods"] * period
        return {
            name: PacedSource(ArraySource(*self.footage[name], loop=True),
                              clock, phase_s=slot * step,
                              period_s=period, recorder=recorder)
            for slot, name in enumerate(self.configs)}

    def _run(self, frames: int, sources: dict):
        arrivals: List[tuple] = []

        def collector(stream: str):
            def on_result(result) -> None:
                arrivals.append((stream, result, time.perf_counter()))
            return on_result

        begin = time.perf_counter()
        service = self._service()
        child_rss = 0
        try:
            for name, config in self.configs.items():
                service.add_stream(name, config=config,
                                   source=sources[name], frames=frames,
                                   on_result=collector(name))
            service.start()
            if self.shards:
                child_rss = self._shard_peak_rss(arrivals,
                                                 frames * len(sources))
            report = service.wait()
        finally:
            service.close()
        return arrivals, report, begin, child_rss

    @staticmethod
    def _shard_peak_rss(arrivals: list, expected: int) -> int:
        """Peak RSS of the shard processes: their high-water marks,
        read once every frame has arrived, while the shards are still
        alive (the service joins them when the drive ends)."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while len(arrivals) < expected and time.perf_counter() < deadline:
            time.sleep(0.2)
        return sum(child_peak_rss_kib().values())

    def setup_sample(self) -> float:
        arrivals, _, begin, _ = self._run(1, self._paced())
        return min(arrived for _, _, arrived in arrivals) - begin

    def drive(self, seconds: float, samples: int,
              recorder=None) -> Drive:
        """Offer ``seconds`` of paced frames per camera (at least
        ``samples`` in all)."""
        frames = self.frames_per_tenant(seconds, samples)
        sources = self._paced(recorder)
        arrivals, report, begin, child_rss = self._run(frames, sources)
        end = time.perf_counter()
        # (stream, index) order, so sums over frames are exact at a
        # fixed seed whatever order the frames arrived in
        deliveries = sorted(
            (delivery(stream, result, arrived,
                      sources[stream].due_s[result.index])
             for stream, result, arrived in arrivals),
            key=lambda item: (item.stream, item.index))
        epoch = next(iter(sources.values())).clock.epoch
        first = min(item.delivered_s for item in deliveries)
        last = max(item.delivered_s for item in deliveries)
        return Drive(
            deliveries=deliveries, timed=deliveries,
            attempted=frames * len(sources),
            setup_s=first - begin, wall_s=last - epoch,
            begin_s=begin, end_s=end,
            reports=list(report.streams.values()),
            service_report=report,
            pull_lag_s=[lag for source in sources.values()
                        for lag in source.lag_s],
            child_rss_kib=child_rss)

    def reference(self, drive: Drive) -> Callable[[str, int], object]:
        """Each tenant's frames from its own solo session, serially,
        over the same footage (temporal and registration tenants keep
        state, so the solo run covers every frame in order)."""
        frames: Dict[str, int] = {}
        for item in drive.deliveries:
            frames[item.stream] = max(frames.get(item.stream, 0),
                                      item.index + 1)
        solo: Dict[str, list] = {}
        for name, count in frames.items():
            with FusionSession(self.configs[name]) as session:
                solo[name] = session.run(count, source=ArraySource(
                    *self.footage[name], loop=True)).records

        def lookup(stream: str, index: int):
            records = solo.get(stream, [])
            return records[index] if index < len(records) else None
        return lookup


WORKLOADS = {
    "capture-default": lambda: ClosedLoop("capture-default"),
    "serve-paced": lambda: Paced("serve-paced"),
    "serve-paced-sharded": lambda: Paced(
        "serve-paced-sharded", shards=spec()["paced"]["shards"]),
}
