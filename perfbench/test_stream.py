#!/usr/bin/env python3
"""The benchmark's own determinism test: one seed reproduces the identical
request stream (templates, bindings, arrival times) and another seed changes
it, for every workload.

    python3 perfbench/test_stream.py

Builds the benchmark like perfbench/run.py does, then compares the streams
printed by `e2e_bench --dump-stream`.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: the shared build step)

WORKLOADS = ["real_hot", "real_pressure", "sim_wire"]


class StreamDeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def stream(self, workload: str, seed: int) -> str:
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "2", "--dump-stream"],
            capture_output=True, text=True, check=True)
        return out.stdout

    def test_same_seed_same_stream(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = self.stream(w, 7)
                self.assertGreater(len(first.splitlines()), 100)
                self.assertEqual(first, self.stream(w, 7))

    def test_other_seed_other_stream(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.stream(w, 7), self.stream(w, 8))

    def test_real_workloads_share_a_stream(self):
        # They differ only in pool, clients and feedback, never in requests.
        self.assertEqual(self.stream("real_hot", 7),
                         self.stream("real_pressure", 7))


if __name__ == "__main__":
    unittest.main()
