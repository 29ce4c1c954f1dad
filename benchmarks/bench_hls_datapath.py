"""HLS wavelet-engine datapath: functional throughput and cycle model.

Times the functional model (one hardware invocation per line, run a
sheet of lines per job) and prints the PL-cycle budget per line — the
quantity that, together with the driver cost, produces Fig. 9's FPGA
curves.

The speed check runs the default FPGA-path transform — forward and
inverse DT-CWT at 88x72, three levels, through
:class:`repro.hw.fpga.HlsBackend` — against the per-line oracle kept
in ``tests/hw/hls_oracle.py`` (one engine call per image line), as
interleaved trials after a warm-up, and reports the median time of
each.  On every trial the forward pyramid must be bitwise-equal to the
oracle's, the reconstruction within 1e-4 of it, and the engine
counters (:class:`repro.hw.hls.EngineStats`) exactly equal.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_hls_datapath.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_hls_datapath.py --quick \
          --min-speedup 2

``--min-speedup`` turns the report into an assertion (exit code 1 when
the median forward+inverse speedup over the oracle misses the bar).
``--json-out`` (default ``BENCH_hls.json``) writes the rows for CI
artifact diffing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import List

import numpy as np

from repro.dtcwt import Dtcwt2D
from repro.hw.fpga import HlsBackend
from repro.hw.hls import (
    HlsWaveletEngine,
    shift_register_dual_channel,
    shift_register_dual_fir,
)
from repro.hw.platform import DEFAULT_PLATFORM

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests", "hw"))
from hls_oracle import OracleHlsBackend  # noqa: E402

from conftest import format_line  # noqa: E402

SEED = 2016
WIDTH, HEIGHT, LEVELS = 88, 72, 3


def test_cycle_budget_per_line(report):
    engine = HlsWaveletEngine()
    lines = ["PL cycle budget per invocation (12-tap engine, ACP bursts):",
             f"  {'row width':>10} {'cycles':>8} {'us @100MHz':>11}"]
    for width in (32, 44, 88, 720, 2048):
        words_in = width + 12
        words_out = width
        iters = width // 2 + 6
        seconds = engine.line_seconds_estimate(words_in, words_out, iters)
        cycles = seconds / DEFAULT_PLATFORM.pl_cycle_s
        lines.append(f"  {width:>10} {cycles:>8.0f} {seconds * 1e6:>11.2f}")
    lines.append("")
    lines.append(format_line(
        "88-px row latency vs driver overhead", "overhead dominates",
        f"{engine.line_seconds_estimate(100, 88, 50) * 1e6:.1f} us hw "
        "vs ~25 us cmd"))
    report("\n".join(lines))

    fast = engine.line_seconds_estimate(100, 88, 50)
    assert fast < 25e-6  # hardware is never the bottleneck at paper sizes


def test_vectorized_path_matches_scalar_datapath(report):
    rng = np.random.default_rng(3)
    engine = HlsWaveletEngine()
    lp = rng.standard_normal(12).astype(np.float32)
    hp = rng.standard_normal(12).astype(np.float32)
    engine.load_coefficients(lp, hp)
    x = rng.standard_normal(2 * 44 + 12).astype(np.float32)
    lp_fast, hp_fast, _ = engine.forward_line(x, 44, step=2)
    ref_hp, ref_lp = shift_register_dual_fir(x, hp[::-1].copy(),
                                             lp[::-1].copy())
    same = (np.array_equal(lp_fast, ref_lp[:44])
            and np.array_equal(hp_fast, ref_hp[:44]))
    report(format_line("fast path vs literal Fig. 4 loop",
                       "bit-exact", "identical" if same else "DIFFERENT"))
    assert same


def test_inverse_path_matches_scalar_datapath(report):
    rng = np.random.default_rng(6)
    engine = HlsWaveletEngine()
    g0 = rng.standard_normal(12).astype(np.float32)
    g1 = rng.standard_normal(12).astype(np.float32)
    engine.load_coefficients(g0, g1)
    lo = rng.standard_normal(88 + 11).astype(np.float32)
    hi = rng.standard_normal(88 + 11).astype(np.float32)
    out, _ = engine.inverse_line(lo, hi, 88)
    same = np.array_equal(out, shift_register_dual_channel(lo, hi, g0, g1))
    report(format_line("inverse mode vs tap-ordered loop",
                       "bit-exact", "identical" if same else "DIFFERENT"))
    assert same


def test_forward_line_kernel(benchmark, rng=None):
    rng = np.random.default_rng(4)
    engine = HlsWaveletEngine()
    engine.load_coefficients(np.ones(12, np.float32) / 12,
                             np.ones(12, np.float32) / 12)
    x = rng.standard_normal(2 * 88 + 12).astype(np.float32)
    lp, hp, _ = benchmark(engine.forward_line, x, 88, 2)
    assert lp.shape == (88,)


def test_full_fpga_transform_kernel(benchmark, rng=None):
    """Wall-clock of a whole forward DT-CWT through the HLS path."""
    from repro.hw.fpga import HlsBackend
    from repro.dtcwt import Dtcwt2D
    rng = np.random.default_rng(5)
    x = rng.standard_normal((24, 32)).astype(np.float32)
    transform = Dtcwt2D(levels=2, backend=HlsBackend())
    pyramid = benchmark(transform.forward, x)
    assert pyramid.levels == 2


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _round_trip(transform, frame):
    pyramid = transform.forward(frame)
    return pyramid, transform.inverse(pyramid)


def run_bench(trials: int) -> tuple:
    """Median forward+inverse seconds of the sheet path and the per-line
    oracle over ``trials`` interleaved trials (after one untimed
    warm-up of each), with parity checked on every trial."""
    rng = np.random.default_rng(SEED)
    frame = (rng.random((HEIGHT, WIDTH)) * 255).astype(np.float32)
    sheet = HlsBackend()
    oracle = OracleHlsBackend()
    fast_t = Dtcwt2D(levels=LEVELS, backend=sheet)
    oracle_t = Dtcwt2D(levels=LEVELS, backend=oracle)

    fast_times: List[float] = []
    oracle_times: List[float] = []
    forward_ok = inverse_ok = True
    worst = 0.0
    for trial in range(trials + 1):
        (got, got_rec), fast_s = _timed(lambda: _round_trip(fast_t, frame))
        (want, want_rec), oracle_s = _timed(
            lambda: _round_trip(oracle_t, frame))
        forward_ok = forward_ok and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip((got.lowpass,) + tuple(got.highpasses),
                            (want.lowpass,) + tuple(want.highpasses)))
        delta = float(np.max(np.abs(got_rec - want_rec)))
        worst = max(worst, delta)
        inverse_ok = inverse_ok and delta <= 1e-4
        if trial:  # trial 0 is the warm-up
            fast_times.append(fast_s)
            oracle_times.append(oracle_s)
    stats_ok = sheet.engine.stats == oracle.engine.stats
    parity_ok = forward_ok and inverse_ok and stats_ok

    fast_ms = 1e3 * statistics.median(fast_times)
    oracle_ms = 1e3 * statistics.median(oracle_times)
    row = {
        "op": "forward+inverse",
        "size": f"{WIDTH}x{HEIGHT}",
        "levels": LEVELS,
        "trials": trials,
        "sheet_ms": fast_ms,
        "oracle_ms": oracle_ms,
        "speedup": oracle_ms / fast_ms if fast_ms > 0 else 0.0,
        "inverse_max_delta": worst,
        "invocations_per_trial": sheet.engine.stats.invocations
        // (trials + 1),
    }

    text = "\n".join([
        f"HLS path, DT-CWT forward+inverse at {WIDTH}x{HEIGHT} L{LEVELS} "
        f"({row['invocations_per_trial']} engine invocations), median of "
        f"{trials} interleaved trials, cpus={os.cpu_count()}:",
        f"  sheet jobs {fast_ms:.2f} ms, per-line oracle {oracle_ms:.2f} ms, "
        f"speedup {row['speedup']:.1f}x",
        f"  forward bitwise-equal to the oracle: "
        f"{'OK' if forward_ok else 'FAILED'}",
        f"  inverse within 1e-4 of the oracle (max {worst:.1e}): "
        f"{'OK' if inverse_ok else 'FAILED'}",
        f"  engine stats equal to the oracle's: "
        f"{'OK' if stats_ok else 'FAILED'}",
    ])
    return text, row, parity_ok


def test_hls_path_speed(report):
    """Pytest entry: parity asserted, speedup reported (the hard bar
    lives in the script/CI invocation)."""
    text, row, parity_ok = run_bench(trials=3)
    report(text)
    assert parity_ok
    assert row["sheet_ms"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 5 trials instead of 11")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the sheet path's median speedup "
                             "over the per-line oracle is at least this")
    parser.add_argument("--json-out", default="BENCH_hls.json",
                        help="machine-readable results path "
                             "('' disables the write)")
    args = parser.parse_args(argv)

    trials = 5 if args.quick else 11
    text, row, parity_ok = run_bench(trials)
    print(text)
    speedup = row["speedup"]

    if args.json_out:
        payload = {
            "bench": "hls_datapath",
            "trials": trials,
            "seed": SEED,
            "cpus": os.cpu_count(),
            "rows": [row],
            "hls_speedup": speedup,
            "parity_ok": parity_ok,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")

    if not parity_ok:
        print("FAIL: the sheet path does not match the per-line oracle "
              "(forward bits, inverse values or engine stats)",
              file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: HLS path speedup {speedup:.1f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        print(f"OK: HLS path speedup {speedup:.1f}x >= "
              f"{args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
