"""Kernel-backend throughput: float64 NumPy vs float32 vs JIT datapath.

The compiled-kernel claim is that the halo-extension JIT backend plus
the float32 datapath buys serial-loop throughput without touching the
engine seam: same primitives, same filter banks, same session API.
This bench measures end-to-end serial FPS of one seeded synthetic
stream across the datapath matrix — the float64 NumPy baseline, the
engine-native float32 path and the JIT backend at both precisions —
and verifies the parity contract on the side (the JIT backend is
bitwise-identical to NumPy at the same precision).

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_kernel_backends.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_kernel_backends.py --quick
      PYTHONPATH=src python benchmarks/bench_kernel_backends.py \
          --frames 64 --min-speedup 2.0

``--min-speedup`` turns the report into an assertion (exit code 1 when
the JIT float32 datapath misses the bar against the float64 NumPy
baseline).  The gated figure is the median speedup of interleaved
numpy/f64 vs jit/f32 trial pairs (5 with ``--quick``, else 11, after
one untimed warm-up pair), not the single-shot ratio of the table.  The bar holds on one core: the speedup comes from the
halo-extension formulation, preplanned taps and pooled scratch — and
from Numba compilation when it is installed — not from concurrency.
``--json-out`` (default ``BENCH_kernels.json``) writes the rows for CI
artifact diffing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.dtcwt import NUMBA_AVAILABLE
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

#: (label, engine, precision) datapath matrix; row 0 is the baseline.
DATAPATHS = (
    ("numpy/f64", "arm", "float64"),
    ("numpy/f32", "arm", "float32"),
    ("jit/f64", "jit", "float64"),
    ("jit/f32", "jit", "float32"),
)


def prerender(frames: int, size: FrameShape, seed: int = 7) -> List:
    """A pre-rendered frame-pair prefix shared by every datapath, so
    synthetic-scene rendering cost never dilutes the kernel
    comparison (same trick the plan autotuner uses)."""
    scene = SyntheticScene(width=size.width, height=size.height,
                           seed=seed)
    return [(scene.render_visible(i / 25.0),
             scene.render_thermal(i / 25.0)) for i in range(frames)]


def measure(engine: str, precision: Optional[str], pairs: List,
            size: FrameShape, levels: int, seed: int = 7) -> Dict:
    """Wall-clock FPS of one serial datapath over the shared prefix."""
    config = FusionConfig(engine=engine, executor="serial",
                          precision=precision,
                          fusion_shape=size, levels=levels, seed=seed,
                          quality_metrics=False, keep_records=False)
    with FusionSession(config) as session:
        start = time.perf_counter()
        count = sum(1 for _ in session.stream(list(pairs)))
        elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "precision": precision or "native",
        "frames": count,
        "elapsed_s": elapsed,
        "fps": count / elapsed if elapsed > 0 else 0.0,
    }


def check_parity(size: FrameShape, levels: int, frames: int = 4,
                 seed: int = 7) -> bool:
    """Spot-check the invariant the speedup must not cost: at each
    precision the JIT backend's fused frames are bitwise-identical to
    the NumPy backend's."""
    pairs = prerender(frames, size, seed)
    for precision in ("float32", "float64"):
        outputs = []
        for engine in ("arm", "jit"):
            config = FusionConfig(engine=engine, executor="serial",
                                  precision=precision, fusion_shape=size,
                                  levels=levels, seed=seed,
                                  quality_metrics=False,
                                  keep_records=False)
            with FusionSession(config) as session:
                outputs.append([r.pixels for r in
                                session.stream(list(pairs))])
        if not all(np.array_equal(a, b) for a, b in zip(*outputs)):
            return False
    return True


def run_bench(frames: int, size: FrameShape, levels: int) -> tuple:
    pairs = prerender(frames, size)
    rows = [dict(measure(engine, precision, pairs, size, levels),
                 label=label)
            for label, engine, precision in DATAPATHS]
    base = rows[0]
    parity_ok = check_parity(size, levels)

    lines = [f"Kernel-backend serial throughput ({frames} frames @ "
             f"{size}, levels={levels}, cpus={os.cpu_count()}, "
             f"numba={'yes' if NUMBA_AVAILABLE else 'no'}):",
             f"  {'datapath':>10} {'engine':>6} {'dtype':>8} {'fps':>8} "
             f"{'vs f64':>8}"]
    for row in rows:
        speedup = row["fps"] / base["fps"] if base["fps"] > 0 else 0.0
        lines.append(f"  {row['label']:>10} {row['engine']:>6} "
                     f"{row['precision']:>8} {row['fps']:>8.2f} "
                     f"{speedup:>7.2f}x")
    lines.append("")
    lines.append(f"  jit bitwise-identical to numpy per precision: "
                 f"{'OK' if parity_ok else 'FAILED'}")
    return "\n".join(lines), rows, base, parity_ok


def gate_speedup(frames: int, size: FrameShape, levels: int,
                 trials: int) -> tuple:
    """Median jit/f32 over numpy/f64 fps ratio of ``trials`` interleaved
    pairs (after one untimed warm-up pair), with the per-pair ratios."""
    pairs = prerender(frames, size)
    ratios: List[float] = []
    for trial in range(trials + 1):
        base = measure("arm", "float64", pairs, size, levels)
        best = measure("jit", "float32", pairs, size, levels)
        if trial and base["fps"] > 0:  # trial 0 is the warm-up
            ratios.append(best["fps"] / base["fps"])
    return (statistics.median(ratios) if ratios else 0.0), ratios


def test_kernel_backend_throughput(report):
    """Pytest entry: quick pass; parity asserted, speedup reported
    (the hard >= 2x bar lives in the script/CI invocation)."""
    text, rows, base, parity_ok = run_bench(
        frames=12, size=FrameShape(40, 40), levels=2)
    report(text)
    assert parity_ok
    assert all(r["frames"] == 12 for r in rows)
    assert all(r["fps"] > 0 for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=64,
                        help="stream length per measurement (default 64)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 24 frames, paper geometry")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median jit/f32 fps over "
                             "numpy/f64 baseline fps ratio of interleaved "
                             "pairs is at least this")
    parser.add_argument("--json-out", default="BENCH_kernels.json",
                        help="machine-readable results path "
                             "('' disables the write)")
    args = parser.parse_args(argv)

    frames = 24 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)
    text, rows, _, parity_ok = run_bench(frames, size, args.levels)
    print(text)

    trials = 5 if args.quick else 11
    speedup, ratios = gate_speedup(frames, size, args.levels, trials)
    print(f"  jit/f32 vs numpy/f64, median of {trials} interleaved pairs: "
          f"{speedup:.2f}x (pairs: "
          + ", ".join(f"{r:.2f}" for r in ratios) + ")")

    if args.json_out:
        payload = {
            "bench": "kernel_backends",
            "frames": frames,
            "size": str(size),
            "levels": args.levels,
            "cpus": os.cpu_count(),
            "numba": NUMBA_AVAILABLE,
            "rows": rows,
            "jit_f32_speedup": speedup,
            "gate_trials": trials,
            "gate_ratios": ratios,
            "parity_ok": parity_ok,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")

    if not parity_ok:
        print("FAIL: jit output is not bitwise-identical to numpy at "
              "matching precision", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: jit/f32 speedup {speedup:.2f}x < "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        print(f"OK: jit/f32 speedup {speedup:.2f}x >= "
              f"{args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
