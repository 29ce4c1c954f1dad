"""Turn workload drives into the benchmark's named metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List

from harness import (HostSpeed, check_outputs, mean_qabf, own_peak_rss_kib,
                     percentile)
from tracing import Recorder
from workloads import Drive, declared_units, spec

ENGINES = ("arm", "neon", "fpga")

#: host-speed kernel samples taken before each set-up sample
SETUP_CALIBRATIONS = 3


@dataclass
class Result:
    """Metrics of one run plus the output check's verdict."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: printed beside the metrics, not part of the JSON result
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def table(self) -> List[str]:
        rows = list(self.metrics.items()) + list(self.notes.items())
        width = max(len(name) for name, _ in rows)
        return [f"{name:<{width}}  {value:.6g} {self.units[name]}"
                for name, value in rows]

    def as_json(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()},
        }


def _verify(workload, drive: Drive):
    """Untimed: bitwise check of every delivered frame.  A frame fails
    when it is missing (never delivered: errored or shed included) or
    differs from its reference."""
    problems = check_outputs(drive.deliveries, workload.reference(drive))
    failed = len(problems)
    missing = drive.attempted - len(drive.deliveries)
    if missing > 0:
        problems.append(f"{missing} of {drive.attempted} attempted frames "
                        f"were never delivered")
        failed += missing
    return problems, failed


def _setup_samples(workload, reps: int, reference_s: float):
    """``reps`` set-up times, each after a few host-speed samples, and
    the host-speed factor over them.  The kernel's inputs are dropped on
    return, before the drive (and any shard it forks) starts."""
    host = HostSpeed(reference_s)
    setups = []
    for _ in range(reps):
        for _ in range(SETUP_CALIBRATIONS):
            host.sample()
        setups.append(workload.setup_sample())
    return setups, host.factor


def end_to_end(workload, seed: int, seconds: float,
               samples: int = None, setup_reps: int = None) -> Result:
    """Set-up samples, one timed drive, then the untimed check.

    Compute-bound timings are scaled to the reference host speed of
    ``spec.json``: ``setup_s`` on every workload, and ``fps`` and the
    latencies on a closed loop.  The kernel (:class:`HostSpeed`) is
    timed before each set-up sample and, on a closed loop, between
    frames; the figures as measured are printed beside them with a
    ``_wall`` suffix.
    """
    constants = spec()
    if samples is None:
        samples = constants["latency_samples"]
    if setup_reps is None:
        setup_reps = constants["setup_reps"]
    workload.prepare(seed)
    reference_s = constants["host_speed"]["reference_s"]
    setups, setup_factor = _setup_samples(workload, setup_reps,
                                          reference_s)
    drive_host = HostSpeed(reference_s)
    if workload.closed_loop:
        drive = workload.drive(seconds, samples, host=drive_host)
    else:
        # paced timings are set by the pacing and the service's
        # admission, not by host speed: they are reported as measured
        drive = workload.drive(seconds, samples)
    setups.append(drive.setup_s)
    rss_kib = own_peak_rss_kib() + drive.child_rss_kib

    problems, failed = _verify(workload, drive)
    latencies = [item.latency_s for item in drive.timed]
    delivered = len(drive.deliveries)
    wall = {
        "fps": len(drive.timed) / drive.wall_s if drive.wall_s > 0 else 0.0,
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "setup_s": median(setups),
    }
    # compute-bound timings at reference host speed (HostSpeed)
    metrics = {
        "fps": wall["fps"] * drive_host.factor,
        "latency_p50_ms": wall["latency_p50_ms"] / drive_host.factor,
        "latency_p90_ms": wall["latency_p90_ms"] / drive_host.factor,
        "qabf": mean_qabf(drive.deliveries),
        "setup_s": wall["setup_s"] / setup_factor,
        "peak_rss_mib": rss_kib / 1024.0,
    }
    notes = {
        **{f"{name}_wall": value for name, value in wall.items()},
        "host_speed_factor_setup": setup_factor,
        "host_speed_factor_drive": drive_host.factor,
        "mj_per_frame": (sum(i.model_millijoules for i in drive.deliveries)
                         / delivered if delivered else 0.0),
        "model_ms_per_frame": (1e3 * sum(i.model_seconds
                                         for i in drive.deliveries)
                               / delivered if delivered else 0.0),
        "failed_frac": failed / drive.attempted,
        "latency_samples": float(len(latencies)),
    }
    units = declared_units("end_to_end")
    units.update({f"{name}_wall": units[name] for name in wall})
    units.update({name: guard["unit"]
                  for name, guard in constants["guards"].items()})
    units.update(host_speed_factor_setup="ratio",
                 host_speed_factor_drive="ratio")
    return Result(metrics=metrics, units=units, attempted=drive.attempted,
                  failed=failed, problems=problems, notes=notes)


def _per_frame_cost(drive: Drive) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for engine in ENGINES:
        frames = [item for item in drive.deliveries if item.engine == engine]
        n = len(frames)
        out[f"hw.frames.{engine}"] = float(n)
        out[f"hw.model_ms.{engine}"] = (
            1e3 * sum(i.model_seconds for i in frames) / n if n else 0.0)
        out[f"hw.mj.{engine}"] = (
            sum(i.model_millijoules for i in frames) / n if n else 0.0)
    return out


def _exec_metrics(drive: Drive) -> Dict[str, float]:
    """Per-stage wall time from the public reports' ``throughput``."""
    out: Dict[str, float] = {}
    frames = sum(int(r.throughput.get("frames", 0)) for r in drive.reports)
    stage_wall: Dict[str, float] = {}
    occupancy: Dict[str, float] = {}
    queue_peak = 0
    drive_wall = 0.0
    for report in drive.reports:
        throughput = report.throughput
        for stage, seconds in throughput.get("stage_wall_s", {}).items():
            stage_wall[stage] = stage_wall.get(stage, 0.0) + seconds
        for bucket, frac in throughput.get("stage_occupancy", {}).items():
            occupancy[bucket] = occupancy.get(bucket, 0.0) + frac
        peaks = throughput.get("queue_peak", {}) or {}
        queue_peak = max([queue_peak, *map(int, peaks.values())])
        drive_wall += float(throughput.get("wall_seconds", 0.0))
    for stage in ("ingest", "register", "visible", "thermal", "fuse",
                  "finalize"):
        out[f"exec.stage_ms.{stage}"] = (
            1e3 * stage_wall.get(stage, 0.0) / frames if frames else 0.0)
    for bucket in ("ingest", "forward", "fuse", "finalize"):
        out[f"exec.occupancy.{bucket}"] = occupancy.get(bucket, 0.0)
    out["exec.queue_peak"] = float(queue_peak)
    out["exec.unattributed_frac"] = (
        1.0 - sum(stage_wall.values()) / drive_wall if drive_wall > 0
        else 0.0)
    return out


def _serve_metrics(drive: Drive, recorder: Recorder) -> Dict[str, float]:
    attempts, _, grants = recorder.calls("serve.try_lease")
    out = {
        "serve.lease_attempts": float(attempts),
        "serve.lease_grant_ratio": grants / attempts if attempts else 0.0,
        "serve.pool_waits": 0.0,
        "serve.peak_in_flight": 0.0,
        "serve.frames_shed": 0.0,
        "serve.frames_errored": 0.0,
        "gen.pull_lag_p90_ms": 1e3 * percentile(drive.pull_lag_s, 90),
    }
    report = drive.service_report
    occupancy = report.engine_occupancy if report is not None else {}
    for label in ("arm[0]", "neon[0]", "fpga[0]", "fpga[1]"):
        key = label.replace("[", "").replace("]", "")
        out[f"serve.engine_occupancy.{key}"] = float(occupancy.get(label,
                                                                   0.0))
    if report is not None:
        totals = report.ledger.get("totals", {})
        out["serve.pool_waits"] = float(report.pool.get("waits", 0))
        out["serve.peak_in_flight"] = float(
            report.admission.get("peak_in_flight", 0))
        out["serve.frames_shed"] = float(totals.get("shed", 0))
        out["serve.frames_errored"] = float(totals.get("errored", 0))
    return out


def traced(workload, seed: int, seconds: float, trace_dir: str = None,
           samples: int = None) -> Result:
    """An untraced drive, then a traced one; per-layer metrics of the
    traced drive, checked like an end-to-end run."""
    constants = spec()
    if samples is None:
        samples = constants["latency_samples"]
    workload.prepare(seed)
    plain = workload.drive(seconds, samples)
    recorder = Recorder()
    with recorder.installed():
        drive = workload.drive(seconds, samples, recorder=recorder)
    problems, failed = _verify(workload, drive)

    frames = len(drive.deliveries)
    metrics: Dict[str, float] = {}
    for name in ("video.capture", "video.webcam", "video.thermal_encode",
                 "video.bt656_decode", "video.scale"):
        metrics[f"{name}_ms"] = recorder.mean_ms(name)
    fields, _, _ = recorder.calls("video.thermal_encode")
    metrics["video.fields_per_frame"] = fields / frames if frames else 0.0
    metrics["video.decode_errors"] = float(
        sum(r.decode_errors for r in drive.reports))
    metrics["video.fifo_dropped"] = float(
        sum(r.fifo_dropped for r in drive.reports))
    metrics["session.source_pull_ms"] = recorder.mean_ms(
        "session.source_pull")
    metrics.update(_exec_metrics(drive))
    metrics["graph.lower_ms"] = recorder.mean_ms("graph.lower")
    metrics["graph.lowerings"] = float(recorder.calls("graph.lower")[0])
    metrics["dtcwt.forward_ms"] = recorder.mean_ms("dtcwt.forward")
    metrics["dtcwt.inverse_ms"] = recorder.mean_ms("dtcwt.inverse")
    calls, _, stacked = recorder.calls("dtcwt.forward")
    metrics["dtcwt.frames_per_call"] = stacked / calls if calls else 0.0
    for backend in ("numpy", "jit", "hls"):
        _, seconds_in, _ = recorder.calls(f"dtcwt.kernel.{backend}")
        metrics[f"dtcwt.kernel_ms.{backend}"] = (
            1e3 * seconds_in / frames if frames else 0.0)
    metrics["core.fuse_rule_ms"] = recorder.mean_ms("core.fuse_rule")
    metrics["core.quality_ms"] = recorder.mean_ms("core.quality")
    metrics.update(_per_frame_cost(drive))
    metrics.update(_serve_metrics(drive, recorder))
    _, start_s, _ = recorder.calls("shard.start")
    metrics["shard.start_s"] = start_s
    metrics["shard.ring_put_ms"] = recorder.mean_ms("shard.ring_put")
    metrics["shard.ring_get_ms"] = recorder.mean_ms("shard.ring_get")
    # on the sharded workload the parent's pool leases only to the
    # broker, so its grants are the broker's
    metrics["shard.broker_grants"] = (
        recorder.calls("serve.try_lease")[2]
        if getattr(workload, "shards", 0) else 0.0)
    metrics["trace.overhead_frac"] = _overhead(workload, plain, drive)
    window = drive.end_s - drive.begin_s
    metrics["trace.unattributed_frac"] = (
        1.0 - recorder.covered_s(drive.begin_s, drive.end_s) / window
        if window > 0 else 0.0)

    if trace_dir is not None:
        recorder.write_chrome_trace(
            f"{trace_dir}/trace-{workload.name}-seed{seed}.json")
    units = declared_units("per_layer")
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"per-layer metrics out of step with "
                           f"BENCHMARK.json: "
                           f"missing {missing}, unexpected {extra}")
    return Result(metrics={name: metrics[name] for name in units},
                  units=units, attempted=drive.attempted, failed=failed,
                  problems=problems)


def _overhead(workload, plain: Drive, traced_drive: Drive) -> float:
    """Traced over untraced wall per frame (closed loop) or p50
    latency (paced: the wall is fixed by the pacing), minus 1."""
    if workload.closed_loop:
        def per_frame(drive: Drive) -> float:
            return drive.wall_s / max(1, len(drive.timed))
        base, with_trace = per_frame(plain), per_frame(traced_drive)
    else:
        base = percentile([i.latency_s for i in plain.timed], 50)
        with_trace = percentile([i.latency_s for i in traced_drive.timed],
                                50)
    return with_trace / base - 1.0 if base > 0 else 0.0
