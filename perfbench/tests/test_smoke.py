"""Smoke test of the repository benchmark.

Runs every workload in smoke mode (small sizes, a few seconds), untraced
and traced, and checks that each metric BENCHMARK.json names is printed
with its unit and that no decision or update failed.

    python3 -m unittest discover -s perfbench/tests -v    # from the repo root
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, out = run(workload, trace)
        self.assertEqual(code, 0, out[-2000:])
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        fail_ratio = re.search(r"^# fail_ratio (\S+)", out, re.M)
        self.assertIsNotNone(fail_ratio, "fail_ratio line missing")
        self.assertEqual(float(fail_ratio.group(1)), 0.0)
        self.assertRegex(out, r"# stamp: cpu=.* nproc=\d+ simd_ceiling=\S+ compiler=.* "
                              r"flags=.* git=\S+ src_digest=\S+ workload=" + workload)


# churn-zipf runs and reports like the others but is not in BENCHMARK.json.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["churn-zipf"]


def add_cases():
    for w in WORKLOADS:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (w.replace("-", "_"), trace)
            setattr(SmokeTest, name, lambda self, w=w, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
