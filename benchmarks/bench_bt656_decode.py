"""BT.656 decode speed: the vectorized decoder vs the per-byte oracle.

The default capture chain pushes every thermal field (720x243 active,
~400 kB of BT.656 bytes) through :class:`repro.video.bt656.Bt656Decoder`.
The byte-at-a-time state machine this decoder replaced made one Python
call per byte; it is kept in ``tests/video/bt656_oracle.py`` as the
reference.  This bench decodes the same default field with both, as
interleaved trials after a warm-up, and reports the median per-field
time of each.  The decoded frames and :class:`DecoderStats` must be
bitwise-identical to the oracle's on every trial.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_bt656_decode.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_bt656_decode.py --quick \
          --min-speedup 20

``--min-speedup`` turns the report into an assertion (exit code 1 when
the decoder's median speedup over the oracle misses the bar).
``--json-out`` (default ``BENCH_bt656.json``) writes the rows for CI
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

from repro.video.bt656 import Bt656Decoder, encode_frame
from repro.video.scene import SyntheticScene
from repro.video.thermal import ThermalCameraSimulator

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests", "video"))
from bt656_oracle import OracleBt656Decoder  # noqa: E402

SEED = 2016


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _same_decode(a, b) -> bool:
    (frames_a, stats_a), (frames_b, stats_b) = a, b
    return (stats_a == stats_b and len(frames_a) == len(frames_b)
            and all(x.dtype == y.dtype and x.shape == y.shape
                    and np.array_equal(x, y)
                    for x, y in zip(frames_a, frames_b)))


def _decode(decoder_cls, config, stream):
    decoder = decoder_cls(config)
    return decoder.push_bytes(stream), decoder.stats


def run_bench(trials: int) -> tuple:
    """Median per-field decode seconds of each decoder over ``trials``
    interleaved trials (after one untimed warm-up of each)."""
    camera = ThermalCameraSimulator(SyntheticScene(seed=SEED))
    config = camera.bt656_config
    stream = encode_frame(camera.capture().pixels, config)

    fast_times: List[float] = []
    oracle_times: List[float] = []
    parity_ok = True
    for trial in range(trials + 1):
        got, fast_s = _timed(lambda: _decode(Bt656Decoder, config, stream))
        want, oracle_s = _timed(
            lambda: _decode(OracleBt656Decoder, config, stream))
        parity_ok = parity_ok and _same_decode(got, want)
        if trial:  # trial 0 is the warm-up
            fast_times.append(fast_s)
            oracle_times.append(oracle_s)

    fast_ms = 1e3 * statistics.median(fast_times)
    oracle_ms = 1e3 * statistics.median(oracle_times)
    row = {
        "op": "decode",
        "bytes": len(stream),
        "trials": trials,
        "vectorized_ms": fast_ms,
        "oracle_ms": oracle_ms,
        "speedup": oracle_ms / fast_ms if fast_ms > 0 else 0.0,
    }

    text = "\n".join([
        f"BT.656 decode, one default {config.active_width}x"
        f"{config.active_lines} field ({len(stream)} bytes), median of "
        f"{trials} interleaved trials, cpus={os.cpu_count()}:",
        f"  vectorized {fast_ms:.2f} ms, oracle {oracle_ms:.2f} ms, "
        f"speedup {row['speedup']:.1f}x",
        f"  bitwise parity with the oracle (frames, stats): "
        f"{'OK' if parity_ok else 'FAILED'}",
    ])
    return text, row, parity_ok


def test_bt656_decode_speed(report):
    """Pytest entry: parity asserted, speedup reported (the hard bar
    lives in the script/CI invocation)."""
    text, row, parity_ok = run_bench(trials=3)
    report(text)
    assert parity_ok
    assert row["vectorized_ms"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 5 trials instead of 11")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the decoder's median speedup "
                             "over the oracle is at least this")
    parser.add_argument("--json-out", default="BENCH_bt656.json",
                        help="machine-readable results path "
                             "('' disables the write)")
    args = parser.parse_args(argv)

    trials = 5 if args.quick else 11
    text, row, parity_ok = run_bench(trials)
    print(text)
    speedup = row["speedup"]

    if args.json_out:
        payload = {
            "bench": "bt656_decode",
            "trials": trials,
            "seed": SEED,
            "cpus": os.cpu_count(),
            "rows": [row],
            "decode_speedup": speedup,
            "parity_ok": parity_ok,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")

    if not parity_ok:
        print("FAIL: vectorized decoder is not bitwise-identical to the "
              "oracle", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: decode speedup {speedup:.1f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        print(f"OK: decode speedup {speedup:.1f}x >= "
              f"{args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
