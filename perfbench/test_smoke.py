"""The benchmark's own test.

Runs every workload in smoke mode (ErSynth.generateTiny inputs, a few
seconds each) untraced and traced, and asserts that each run passes its
output checks, that its result line holds exactly the metrics BENCHMARK.json
declares with their units, and that the report prints each workload's own
metrics by name with their units.

    python3 -m unittest perfbench/test_smoke.py     (from the root of a checkout)
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The metrics each workload's report names, with their units.
REPORT = {
    "supervised-cit2": [("setup_s", "s"), ("supervised_s", "s"), ("supervised_f1", "ratio"),
                        ("blocking_recall", "ratio"), ("failed_frac", "ratio")],
    "active-rest": [("setup_s", "s"), ("first_label_s", "s"), ("label_wait_p50_s", "s"),
                    ("al_f1", "ratio"), ("failed_frac", "ratio")],
    "serve-cit2": [("setup_s", "s"), ("serve_qps", "req/s"), ("serve_p50_ms", "ms"),
                   ("serve_p99_ms", "ms"), ("serve_f1", "ratio"), ("failed_frac", "ratio")],
}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class SmokeTest(unittest.TestCase):

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        lines = p.stdout.rstrip("\n").split("\n")
        return lines[:-1], json.loads(lines[-1])

    def check_result(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, declared(kind))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_its_metrics_with_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            workloads = [w["name"] for w in json.load(fh)["workloads"]]
        self.assertEqual(sorted(workloads), sorted(REPORT))
        for workload in workloads:
            with self.subTest(workload=workload, trace=0):
                report, result = self.run_bench(workload, 0)
                self.check_result(result, "end_to_end")
                for name, unit in REPORT[workload]:
                    pattern = rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}\b"
                    self.assertTrue(any(re.match(pattern, l) for l in report), f"{name} [{unit}] not in report")
                for name in result["metrics"]:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                report, result = self.run_bench(workload, 1)
                self.check_result(result, "per_layer")
                self.assertTrue(any(l.startswith("# per-layer self time") for l in report))


if __name__ == "__main__":
    unittest.main()
