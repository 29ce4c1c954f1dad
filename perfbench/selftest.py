"""Self-test of the benchmark: every workload for a few frames.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It asserts that each workload emits every metric ``BENCHMARK.json``
names, with its unit, that ``failed_frac`` is 0, that the output check
catches a perturbed frame, a perturbed input or a missing frame, that
a sharded run leaves no process behind, and that the command refuses
to run where the program is absent.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
from harness import check_outputs  # noqa: E402
from workloads import WORKLOADS, declared_units, spec  # noqa: E402

SEED = 3
#: a few frames per workload: enough to exercise every layer
FEW = dict(seconds=0.2, samples=3)


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class MetricsEmitted(unittest.TestCase):

    def _check_metrics(self, result, declared):
        payload = result.as_json()
        self.assertTrue(payload["correct"], result.problems)
        self.assertEqual(payload["failed"], 0)
        self.assertGreaterEqual(payload["attempted"], 1)
        self.assertEqual(set(payload["metrics"]), set(declared))
        for name, entry in payload["metrics"].items():
            self.assertEqual(entry["unit"], declared[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)

    def test_every_workload_emits_every_metric(self):
        end_to_end = declared_units("end_to_end")
        per_layer = declared_units("per_layer")
        self.assertEqual([w["name"] for w in benchmark()["workloads"]],
                         list(WORKLOADS))
        for name, make in WORKLOADS.items():
            with self.subTest(workload=name):
                result = measure.end_to_end(make(), SEED, setup_reps=1,
                                            **FEW)
                self._check_metrics(result, end_to_end)
                self.assertEqual(result.notes["failed_frac"], 0.0)
                for metric in ("fps", "latency_p50_ms", "setup_s",
                               "peak_rss_mib", "qabf"):
                    self.assertGreater(result.metrics[metric], 0.0, metric)
                traced = measure.traced(make(), SEED, **FEW)
                self._check_metrics(traced, per_layer)


class OutputCheck(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.workload = WORKLOADS["capture-default"]()
        cls.workload.prepare(SEED)
        cls.drive = cls.workload.drive(0.2, 3)
        cls.reference = staticmethod(cls.workload.reference(cls.drive))

    def test_clean_drive_passes(self):
        self.assertEqual(check_outputs(self.drive.deliveries,
                                       self.reference), [])

    def test_perturbed_frame_is_caught(self):
        deliveries = list(self.drive.deliveries)
        victim = deliveries[1]
        pixels = victim.pixels.copy()
        pixels[0, 0] ^= 1
        deliveries[1] = type(victim)(**{**vars(victim), "pixels": pixels})
        problems = check_outputs(deliveries, self.reference)
        self.assertEqual(len(problems), 1)
        self.assertIn(f"main[{victim.index}]", problems[0])
        self.assertIn("1 pixels differ", problems[0])

    def test_perturbed_input_is_caught(self):
        # a capture or ingest change that alters the frames fused
        deliveries = list(self.drive.deliveries)
        victim = deliveries[2]
        thermal = victim.thermal.copy()
        thermal[1, 1] += 1.0
        deliveries[2] = type(victim)(**{**vars(victim), "thermal": thermal})
        problems = check_outputs(deliveries, self.reference)
        self.assertEqual(len(problems), 1)
        self.assertIn("1 thermal input samples differ", problems[0])

    def test_missing_frame_fails_the_run(self):
        self.drive.attempted += 1
        try:
            problems, failed = measure._verify(self.workload, self.drive)
        finally:
            self.drive.attempted -= 1
        self.assertEqual(failed, 1)
        self.assertIn("never delivered", problems[-1])


def _session_members(sid: int) -> list:
    """Pids of the processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


class NoProcessLeft(unittest.TestCase):

    def test_sharded_run_leaves_no_process(self):
        # shards and the shared-memory resource tracker have ended by
        # the time the benchmark's process exits, as in run.py
        code = (
            f"import sys; sys.path[:0] = [{HERE!r}, "
            f"{os.path.join(ROOT, 'src')!r}]\n"
            "import measure\n"
            "from harness import stop_helper_processes\n"
            "from workloads import WORKLOADS\n"
            "try:\n"
            "    measure.end_to_end(WORKLOADS['serve-paced-sharded'](), "
            f"{SEED}, setup_reps=1, seconds=0.2, samples=3)\n"
            "finally:\n"
            "    stop_helper_processes()\n")
        child = subprocess.Popen([sys.executable, "-c", code],
                                 start_new_session=True,
                                 stdout=subprocess.DEVNULL)
        self.assertEqual(child.wait(timeout=180), 0)
        self.assertEqual(_session_members(child.pid), [])


class Contract(unittest.TestCase):

    def test_layer_map_covers_the_declared_metrics(self):
        constants = spec()
        end_to_end = declared_units("end_to_end")
        self.assertEqual(set(constants["per_layer"]),
                         set(declared_units("per_layer")))
        self.assertTrue(set(constants["guards"]).isdisjoint(end_to_end))
        paced = constants["paced"]
        self.assertEqual(paced["offered_fps"],
                         paced["rate_fps_per_camera"] * len(paced["tenants"]))
        for name, entry in constants["per_layer"].items():
            self.assertTrue(set(entry["workloads"]) <= set(WORKLOADS), name)
            self.assertTrue(set(entry["moves"])
                            <= set(end_to_end) | set(constants["guards"]),
                            name)

    def test_refuses_to_run_without_the_program(self):
        # a directory holding only BENCHMARK.json and the benchmark
        work_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(work_dir, exist_ok=True)
        bare = tempfile.mkdtemp(dir=work_dir)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "capture-default", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
