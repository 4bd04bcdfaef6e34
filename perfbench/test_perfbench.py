#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism of the work counters.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then runs short versions of the two
single-threaded workloads at --seconds=1.  Two runs with one seed must
give identical work counters (edit-distance calls, signature comparisons,
reconstruction reads, RS fixes); a second seed must change them.  The
traced archive_get replay must decode every object byte for byte and do
the measured pass's work, counter for counter.
"""

import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORK = run.ROOT / ".bench_build" / "selftest"


def driver(workload, seed, trace=0):
    """The shortest run: --seconds=1 gives each workload's floor of 100
    operations."""
    return run.run_driver([f"--workload={workload}", f"--seed={seed}",
                           "--seconds=1", f"--trace={trace}",
                           f"--workdir={WORK}"], run.driver_timeout(1))


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def check_workload(self, workload):
        first = driver(workload, 5)
        again = driver(workload, 5)
        other = driver(workload, 6)
        for result in (first, again, other):
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
        self.assertEqual(first["counters"], again["counters"])
        for counter in ("clustering.edit_distance_calls",
                        "reconstruction.reads", "ecc.rs_fixes"):
            self.assertGreater(first["counters"][counter], 0, counter)
            self.assertNotEqual(first["counters"][counter],
                                other["counters"][counter], counter)

    def test_archive_get_counters_repeat(self):
        self.check_workload("archive_get")

    def test_pipeline_dbma_counters_repeat(self):
        self.check_workload("pipeline_dbma")

    def test_archive_get_replay_decodes(self):
        traced = driver("archive_get", 5, trace=1)
        self.assertTrue(traced["correct"], traced)
        metrics = traced["metrics"]
        self.assertGreater(metrics["reconstruction.self_s_per_kib"]["value"], 0)
        self.assertGreater(metrics["trace.layer_share"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
