"""Run one benchmark workload and print every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload capture-default --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up time (the median of several set-ups), then one timed drive —
``latency_samples`` frames for a closed loop, ``--seconds`` of paced
frames for an open loop (see ``spec.json``) — then, untimed, a bitwise
check of every delivered frame against a plain serial reference and
the mean Q^AB/F.  ``--trace 1`` runs the workload twice, untraced and
then with every layer's public calls wrapped (see ``tracing.py``), and
prints the per-layer metrics of the traced drive with the tracing
overhead beside them; the spans are written to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1, after that line, when any delivered frame is missing or differs
from the reference; without ``src/repro`` beside this directory the
command exits non-zero without printing a result.  Every process a run
starts (shards, the shared-memory resource tracker) has ended before
the command exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program to measure: {src}/repro is "
                 f"missing (run from the root of a checkout)")
    sys.path.insert(0, src)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import measure
    from harness import stop_helper_processes
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            result = measure.traced(workload, args.seed, args.seconds,
                                    trace_dir=os.path.join(ROOT,
                                                           ".perfbench"))
        else:
            result = measure.end_to_end(workload, args.seed, args.seconds)
    finally:
        stop_helper_processes()
    for line in result.table():
        print(line)
    for problem in result.problems:
        print(f"perfbench: OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result.as_json()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
