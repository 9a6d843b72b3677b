#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

They build the driver (as run.py does), run every workload in short mode
with and without tracing, and check that the output checks reject tampered
tallies and malformed results.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_short(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    return proc


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.out_dir = run.build_dir()
        if not run.build(cls.out_dir):
            raise RuntimeError("perfbench build failed")

    def test_every_metric_appears_once_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_short(w["name"], trace)
                    self.assertEqual(proc.returncode, 0,
                                     proc.stdout + proc.stderr)
                    last = proc.stdout.strip().splitlines()[-1]
                    result = json.loads(
                        last, object_pairs_hook=run.no_duplicate_keys)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    self.assertIn("# host: nproc=", proc.stdout)

    def test_output_checks_reject_tampered_tallies(self):
        # Feeds a non-reconciling AdmissionStats, a broken lifecycle
        # partition, divergent replicas and a changed sim guard through the
        # driver's own checks; each must be rejected.
        proc = subprocess.run([str(self.out_dir / "dltbench"), "--selftest"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("selftest ok", proc.stdout)

    def test_result_validation_rejects_malformed_results(self):
        expected = run.expected_metrics(0)
        good = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": u}
                            for n, u in expected.items()}}
        self.assertEqual(run.validate(good, expected), [])
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["setup_s"]
        self.assertTrue(run.validate(missing, expected))
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate(wrong_unit, expected))
        no_work = dict(good, attempted=0)
        self.assertTrue(run.validate(no_work, expected))
        with self.assertRaises(ValueError):
            json.loads('{"a": 1, "a": 2}',
                       object_pairs_hook=run.no_duplicate_keys)


if __name__ == "__main__":
    unittest.main()
