#!/usr/bin/env python3
"""The benchmark's own tests: smoke runs, negative controls, bad checkout.

    python3 perfbench/test_perfbench.py

Most tests run perfbench/run.py the way a benchmark harness would and parse
its last stdout line.  Smoke runs use a short --seconds; the deadlock loop
still completes its minimum episode count, so the suite takes a few
minutes.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMOKE_SECONDS = "2"

sys.path.insert(0, HERE)
import run as perfbench  # noqa: E402  (the module under test)


def bench(*args, cwd=ROOT, script=RUN):
    done = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    result = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done, result


def run_workload(workload, trace=0, inject=None, seed=1):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            SMOKE_SECONDS, "--trace", str(trace)]
    if inject:
        args += ["--inject", inject]
    return bench(*args)


class SmokeTest(unittest.TestCase):
    def check_result(self, done, result, names):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertIsNotNone(result)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name], name)
            self.assertIsInstance(metric["value"], float, name)
        stamp = json.loads(done.stdout.strip().splitlines()[-2])["stamp"]
        for key in ("seed", "nproc", "cpu_model", "compiler", "build_type",
                    "commit", "processes_per_mode"):
            self.assertIn(key, stamp)

    def test_every_workload_end_to_end(self):
        for workload in perfbench.WORKLOADS:
            with self.subTest(workload=workload):
                done, result = run_workload(workload)
                self.check_result(done, result, perfbench.END_TO_END)
                for name in perfbench.END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_traced_run_emits_every_layer_metric(self):
        done, result = run_workload("forks", trace=1)
        self.check_result(done, result, perfbench.PER_LAYER)
        metrics = result["metrics"]
        self.assertEqual(metrics["trace.events_lost"]["value"], 0)
        self.assertEqual(
            metrics["runtime.recovery_actions_per_episode"]["value"], 1)
        self.assertGreater(metrics["tracing.native_traced_ops_per_s"]["value"],
                           0)


class NegativeControlTest(unittest.TestCase):
    def test_dropped_item_fails_the_checksum(self):
        done, result = run_workload("prodcons", inject="drop-item")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        # Every mode's consumer sees the gap: raw, shim and native.
        for mode in ("raw-prodcons", "shim-prodcons", "native-prodcons"):
            self.assertIn("FAIL %s:" % mode, done.stderr)

    def test_detached_waitfor_sink_reports_missed_detections(self):
        done, result = run_workload("deadlock-loop", inject="detach-sink")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertRegex(done.stderr, r"missed=[1-9]")


class DeadProcessTest(unittest.TestCase):
    def test_hung_chunk_counts_its_episodes_as_failed(self):
        # One deadlock-loop chunk is replaced by a process that outlives its
        # timeout: the run still prints a result, with the chunk's required
        # episodes counted as failed.
        real_run = perfbench.Runner.run
        hung = []

        def run(runner, label, argv, env_extra=None, timeout=90, ops=1):
            if label == "native-ring" and not hung:
                hung.append(label)
                return real_run(runner, label, ["sleep", "10"], env_extra,
                                1, ops)
            return real_run(runner, label, argv, env_extra, timeout, ops)

        argv = ["run.py", "--workload", "deadlock-loop", "--seed", "1",
                "--seconds", SMOKE_SECONDS, "--trace", "0"]
        stdout = io.StringIO()
        with mock.patch.object(perfbench.Runner, "run", run), \
                mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(perfbench.main(), 0)
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"],
                         -(-perfbench.MIN_EPISODES // perfbench.PROCESSES))
        self.assertIn("detect_ms_p50", result["metrics"])


class CheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        # A checkout holding only BENCHMARK.json and perfbench/.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done, result = bench(
                "--workload", "prodcons", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare,
                script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
