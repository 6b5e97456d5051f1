#!/usr/bin/env python3
"""Tests of the benchmark itself (about two minutes on a 4-core host):

    python3 perfbench/test_perfbench.py

Every named metric is printed with its unit, the digest catches a change
to any single statistic, a digest mismatch or a thrown simulation counts
as failed, the backlog guard trips at fig18's 800-cycle gap and passes
at the benchmark's rate, NCP2_* variables change no simulated result,
and the benchmark refuses to run without the simulator's sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def digests(records):
    return {r["name"]: r["digest"] for r in records if r["type"] == "sim"}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.load_spec()

    def workload(self, name, trace, **child):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            result = run.run_workload(self.binary, self.spec, name, 1, 0,
                                      trace, **child)
        return result, out.getvalue()

    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result, text = self.workload(
                        name, trace, min_sets=2 if not trace else 3)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    lines = text.splitlines()
                    for metric, unit in want.items():
                        self.assertTrue(
                            any(l.split()[:1] == [metric] and
                                l.split()[-1] == unit for l in lines),
                            "%s [%s] not printed" % (metric, unit))
                    if not trace:
                        for m in self.spec[key]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_last_line_is_the_result_object(self):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "serve16", "--seed", "7", "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=run.ROOT, check=True)
        last = json.loads(p.stdout.splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])

    def test_digest_catches_any_single_change(self):
        # The C++ self-test bumps every statistic, count and logged
        # request field one at a time and checks the digest moves; it
        # also checks the tracing decorators leave every digest unchanged.
        selftest = os.path.join(run.BUILD, "perfbench_selftest")
        p = subprocess.run([selftest], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_mismatch_or_throw_counts_as_failed(self):
        sim = {"type": "sim", "set": 0, "name": "A/Base", "ok": True,
               "error": "", "digest": "1"}
        records = [sim, dict(sim, set=1, digest="2"),
                   dict(sim, set=2, ok=False, error="fatal: x")]
        attempted, failed, problems = run.check(records)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertEqual(len(problems), 2)

    def test_backlog_guard_trips_at_fig18_gap(self):
        records = run.run_child(self.binary, "serve16", 1, 0, 0,
                                extra=["--serve-gap", "800",
                                       "--serve-requests", "256"],
                                min_sets=1)
        _, failed, problems = run.check(records)
        self.assertEqual(failed, 4)
        self.assertTrue(all("backlog grows" in p for p in problems))

    def test_backlog_guard_passes_at_benchmark_rate(self):
        for seed in (1, 2):
            records = run.run_child(self.binary, "serve16", seed, 0, 0,
                                    min_sets=1)
            self.assertEqual(run.check(records)[1], 0)
            for r in records:
                if r["type"] == "sim":
                    b = r["backlog"]
                    self.assertLess(b["late_queue_mean"],
                                    run.BACKLOG_GROWTH *
                                    b["early_queue_mean"])

    def test_results_ignore_ncp2_environment(self):
        env = dict(os.environ, NCP2_FAST_PATH="0", NCP2_SPARSE_VT="0",
                   NCP2_PDES="2", NCP2_JOBS="2", NCP2_TRACE="1",
                   NCP2_CHECK="1", NCP2_BARRIER_RADIX="4",
                   NCP2_MESH_CLUSTER="4", NCP2_SCALE="tiny",
                   NCP2_PROCS="4")
        clean = {k: v for k, v in os.environ.items()
                 if not k.startswith("NCP2_")}
        for name, extra in (("paper16", []),
                            ("serve16", ["--serve-requests", "256"])):
            with self.subTest(workload=name):
                a = run.run_child(self.binary, name, 3, 0, 0, extra=extra,
                                  min_sets=1, env=clean)
                b = run.run_child(self.binary, name, 3, 0, 0, extra=extra,
                                  min_sets=1, env=env)
                self.assertEqual(digests(a), digests(b))

    def test_refuses_without_simulator_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper16",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=60)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
