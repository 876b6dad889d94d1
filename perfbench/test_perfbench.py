#!/usr/bin/env python3
"""Self-test of the benchmark: a reduced-size pass of every workload.

    python3 perfbench/test_perfbench.py [--binary PATH]

Without --binary the benchmark is built first, as run.py builds it. Each
workload runs at --size small, untraced and traced, on a seed held out
from tuning. The result line must carry exactly the metrics that
BENCHMARK.json names, each with its unit; every metric must also be
printed on its own line; fail_rate must be 0.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

HELD_OUT_SEED = 9973
BINARY = None


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.out_dir = os.path.join(ROOT, ".bench_build", "perfbench-selftest")

    def bench(self, *args):
        return subprocess.run([BINARY, "--out-dir", self.out_dir] +
                              list(args),
                              capture_output=True, text=True, timeout=600)

    def check(self, workload, trace):
        out = self.bench("--workload", workload,
                         "--seed", str(HELD_OUT_SEED), "--seconds", "0.5",
                         "--trace", str(trace), "--size", "small")
        lines = out.stdout.strip().splitlines()
        self.assertTrue(lines, out.stderr)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})

        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        printed = {}
        for line in lines:
            if line.startswith("metric "):
                fields = line.split()
                printed[fields[1]] = fields[3]
        self.assertEqual(printed, want)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

        fail = [line for line in lines if line.startswith("fail_rate ")]
        self.assertEqual(len(fail), 1)
        self.assertEqual(float(fail[0].split()[1]), 0.0, fail[0])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assertEqual(out.returncode, 0, out.stdout[-2000:])

    def test_rejects_bad_arguments(self):
        out = self.bench("--workload", "nosuch", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")


def add_workload_tests():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            def test(self, workload=workload, trace=trace):
                self.check(workload, trace)
            setattr(SelfTest, "test_%s_trace%d" % (workload, trace), test)


add_workload_tests()

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", help="built opac_perfbench to test")
    args, rest = ap.parse_known_args()
    BINARY = args.binary or run.build()
    unittest.main(argv=[sys.argv[0]] + rest)
