#!/usr/bin/env python3
"""robmon cost ledger: one seeded run of one workload.

    python3 perfbench/run.py --workload prodcons --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench
under the checkout root, runs every mode of the workload in its own process,
checks every process's outputs, and prints as its last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before it is
the run's stamp (machine, build, seed, repeats, spread).  A process that
crashes or hangs still yields a result line: its ops count as failed, and
only the metrics it alone would have supplied are left out.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("prodcons", "forks", "deadlock-loop")
# Host/native program mode of each workload.  The deadlock-loop's raw and
# shim modes run the deadlock-free ring (the shim cannot evict a waiter, so
# a shim deadlock would never end); its native mode is the deadlock loop.
MODE = {"prodcons": "prodcons", "forks": "forks", "deadlock-loop": "ring"}
# Processes per mode in an end-to-end run; how their figures are combined
# is described in end_to_end().
PROCESSES = 10
# Episodes the deadlock loop must complete (p95 then has 10 beyond it).
MIN_EPISODES = 200
TRACE_EPISODES = 60
SHIM_ENV = {"ROBMON_SHARDS": "1"}  # every other ROBMON_* at its default
# Wall-clock budget of the measuring part of a run (the build excluded): a
# hung process is killed in time for the run to end within 180 s.
RUN_BUDGET_S = 170


def declared_metrics(kind):
    """{name: unit} of the `kind` metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


END_TO_END = declared_metrics("end_to_end")
PER_LAYER = declared_metrics("per_layer")

SUMMARY_RE = re.compile(r"robmon: summary (.*)$", re.MULTILINE)


def log(message):
    print(message, file=sys.stderr, flush=True)


class Failure(Exception):
    """A process failed to run or produce a result."""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "robmon.hpp")):
        raise Failure("robmon sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise Failure("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise Failure("build failed: " + " ".join(step))


class Runner:
    """Runs host processes, collecting results and failures."""

    def __init__(self, seed, inject):
        self.seed = seed
        self.inject = inject
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, label, argv, env_extra=None, timeout=90, ops=1):
        env = dict(os.environ)
        for key in list(env):
            if key.startswith("ROBMON_") or key == "LD_PRELOAD":
                del env[key]
        env.update(env_extra or {})
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return self.fail(label, "run budget exhausted", ops)
        try:
            done = subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout, env=env, cwd=BUILD)
        except subprocess.TimeoutExpired:
            return self.fail(label, "timed out after %.0fs" % timeout, ops)
        except OSError as error:
            return self.fail(label, str(error), ops)
        if done.returncode != 0:
            return self.fail(label, "exit %d: %s" % (
                done.returncode, done.stderr[-500:]), ops)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.fail(label, "no JSON result line", ops)
        result["_stderr"] = done.stderr
        return result

    def fail(self, label, why, ops=1):
        """A process without a result: its `ops` count as failed."""
        self.attempted += ops
        self.failed += ops
        self.problems.append("%s: %s" % (label, why))
        return None

    def account(self, label, result, failures):
        """Count a result's ops as attempted and `failures` as failed."""
        self.attempted += max(1, int(result.get("ops", 0)))
        if failures:
            self.failed += failures
            self.problems.append("%s: %d failed checks" % (label, failures))

    def check_spans(self, label, result):
        """A traced process that dropped spans has percentiles of only the
        start of its run: one failed check."""
        dropped = int(result.get("span_dropped", 0))
        if dropped:
            self.problems.append("%s: %d spans dropped" % (label, dropped))
        return 1 if dropped else 0

    def host(self, workload, seconds, shim, trace=False):
        label = "%s-%s%s" % ("shim" if shim else "raw", workload,
                             "-traced" if trace else "")
        argv = ["./pb_host", "--workload", MODE[workload], "--seed",
                str(self.seed), "--seconds", "%.3f" % seconds,
                "--trace", "1" if trace else "0"]
        if self.inject == "drop-item" and workload == "prodcons":
            argv += ["--inject", "drop-item"]
        env = None
        if shim:
            env = dict(SHIM_ENV,
                       LD_PRELOAD=os.path.join(BUILD, "librobmon_preload.so"))
        result = self.run(label, argv, env, timeout=int(3 * seconds) + 60)
        if result is None:
            return None
        failures = int(result["errors"]) + self.check_spans(label, result)
        if shim:
            failures += self.check_shim_summary(label, result["_stderr"])
        self.account(label, result, failures)
        return result

    def check_shim_summary(self, label, stderr):
        found = SUMMARY_RE.findall(stderr)
        if not found:
            self.problems.append(label + ": no shim summary line")
            return 1
        fields = dict(item.split("=", 1) for item in found[-1].split())
        bad = 0
        for key in ("faults", "deadlocks", "order_warnings", "passthrough",
                    "events_lost"):
            if fields.get(key) != "0":
                self.problems.append("%s: shim summary %s=%s"
                                     % (label, key, fields.get(key)))
                bad += 1
        return bad

    def native(self, mode, seconds, trace=False, episodes=MIN_EPISODES,
               chunk=0):
        label = "native-%s%s" % (mode, "-traced" if trace else "")
        argv = ["./pb_native", "--mode", mode, "--seed", str(self.seed),
                "--seconds", "%.3f" % seconds, "--trace", "1" if trace else "0",
                "--min-episodes", str(episodes), "--chunk", str(chunk)]
        if (self.inject == "drop-item" and mode == "prodcons") or (
                self.inject == "detach-sink" and mode == "ring"):
            argv += ["--inject", self.inject]
        # A ring process that dies takes its required episodes with it.
        result = self.run(label, argv, timeout=int(3 * seconds) + 90,
                          ops=episodes if mode == "ring" else 1)
        if result is None:
            return None
        failures = int(result["errors"]) + int(result["reports"])
        failures += self.check_spans(label, result)
        failures += 1 if int(result["events_lost"]) else 0
        if int(result["reports"]):
            self.problems.append("%s: reports %s" % (label,
                                                     result["report_rules"]))
        if mode == "ring":
            failures += int(result["failed"])
            if int(result["episodes"]) < episodes:
                failures += 1
            if failures:
                self.problems.append(
                    "%s: episodes=%s failed=%s missed=%s extra_reports=%s "
                    "bad_actions=%s errors=%s" % tuple(
                        [label] + [result[k] for k in (
                            "episodes", "failed", "missed", "extra_reports",
                            "bad_actions", "errors")]))
        self.account(label, result, failures)
        return result

    def probes(self, shim_rate):
        argv = ["./pb_native", "--mode", "probes", "--seed", str(self.seed),
                "--shim-rate", "%.1f" % shim_rate]
        result = self.run("probes", argv, timeout=120)
        if result is None:
            return None
        errors = sum(int(v) for k, v in result.items()
                     if k.startswith("probe_errors."))
        self.attempted += 1
        if errors:
            self.failed += errors
            self.problems.append("probes: %d failed checks" % errors)
        return result


def rate(result):
    return result["ops"] / result["elapsed_s"]


def cpu_ns_per_op(result):
    return result["cpu_s"] * 1e9 / max(1, result["ops"])


def spread(values):
    """(median, min, max) of a list, for the stamp."""
    return [statistics.median(values), min(values), max(values)]


def quantile(values, q):
    """Nearest-rank quantile, as the host programs compute it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def end_to_end(runner, workload, seconds):
    """Runs every mode of `workload`; returns (metrics, spreads).

    The run is PROCESSES rounds; each round runs one raw, one shim and one
    native process and one chunk of the deadlock loop, so slow drifts of
    the machine reach every mode alike.  Latency samples are pooled over
    the chunks.  A metric is left out only when every process it needs
    failed."""
    mode = MODE[workload]
    # The deadlock-loop runs no separate native process (its chunks are its
    # native mode), so its raw and shim processes get that time too.
    share = (0.3 if mode == "ring" else 0.2) * seconds / PROCESSES
    chunk_seconds = 0.4 * seconds / PROCESSES
    chunk_episodes = -(-MIN_EPISODES // PROCESSES)
    raw, shim, native, ring = [], [], [], []
    for chunk in range(PROCESSES):
        raw.append(runner.host(workload, share, shim=False))
        shim.append(runner.host(workload, share, shim=True))
        if mode != "ring":
            native.append(runner.native(mode, share))
        ring.append(runner.native("ring", chunk_seconds,
                                  episodes=chunk_episodes, chunk=chunk))
    if mode == "ring":
        native = ring
    raw, shim, native, ring = ([r for r in runs if r is not None]
                               for runs in (raw, shim, native, ring))

    series = {
        "raw_ops_per_s": [rate(r) for r in raw],
        "shim_ops_per_s": [rate(r) for r in shim],
        "native_ops_per_s": [rate(r) for r in native],
        "shim_cpu_ns_per_op": [cpu_ns_per_op(r) for r in shim],
        "native_cpu_ns_per_op": [cpu_ns_per_op(r) for r in native],
        "shim_setup_s": [r["setup_s"] for r in shim],
        "native_setup_s": [r["setup_s"] for r in native],
        "ring_setup_s": [r["setup_s"] for r in ring],
        "rss_mb": [r["rss_mb"] for r in shim + native + ring],
    }
    # Noisy neighbours only ever slow a process down, and on the reference
    # VM they did so for a few of a run's processes at a time: each mode's
    # rate is the 0.8 quantile of its processes, and its CPU cost the 0.2
    # quantile (the third best of ten), not the median.  Set-up times are
    # medians: each process brings robmon up once, cold.
    best = {}
    for name, values in series.items():
        if not values:
            continue
        if name.endswith("_setup_s"):
            best[name] = statistics.median(values)
        else:
            best[name] = quantile(values, 0.8 if name.endswith("_ops_per_s")
                                  else 0.2)
    metrics = {name: best[name] for name in (
        "raw_ops_per_s", "shim_ops_per_s", "native_ops_per_s",
        "shim_cpu_ns_per_op", "native_cpu_ns_per_op") if name in best}
    for kind in ("shim", "native"):
        if "raw_ops_per_s" in best and kind + "_ops_per_s" in best:
            metrics[kind + "_overhead_x"] = (best["raw_ops_per_s"] /
                                             best[kind + "_ops_per_s"])
    detect = [x for r in ring for x in r["detect_ms"]]
    recover = [x for r in ring for x in r["recover_ms"]]
    if detect:
        metrics["detect_ms_p50"] = quantile(detect, 0.50)
        metrics["detect_ms_p95"] = quantile(detect, 0.95)
        metrics["recover_ms_p50"] = quantile(recover, 0.50)
        metrics["recover_ms_p95"] = quantile(recover, 0.95)
    setups = ["shim_setup_s", "native_setup_s"]
    if mode != "ring":
        setups.append("ring_setup_s")
    if all(name in best for name in setups):
        metrics["setup_s"] = sum(best[name] for name in setups)
    if shim and native and ring:
        metrics["peak_rss_mb"] = max(statistics.median(r["rss_mb"] for r in runs)
                                     for runs in (shim, native, ring))
    spreads = {k: spread(v) for k, v in series.items() if v}
    spreads["deadlock_episodes"] = len(detect)
    return metrics, spreads


def per_layer(runner, workload, seconds):
    """The traced run: spans, probes and pool counters; returns metrics,
    leaving out those of a process that failed."""
    mode = MODE[workload]
    share = 0.1 * seconds
    shim_plain = runner.host(workload, share, shim=True)
    shim_traced = runner.host(workload, share, shim=True, trace=True)
    if mode == "ring":
        native_plain = runner.native("ring", share, episodes=TRACE_EPISODES)
        ring = native_plain
    else:
        native_plain = runner.native(mode, share)
        ring = runner.native("ring", share, episodes=TRACE_EPISODES)
    native_traced = runner.native(mode, share, trace=True,
                                  episodes=TRACE_EPISODES)
    probes = None
    if shim_plain is not None:
        probes = runner.probes(rate(shim_plain))

    def span(result, name, stat):
        return result.get("span.%s.%s" % (name, stat), 0.0)

    metrics = {}
    st, np_, nt = shim_traced, native_plain, native_traced
    if st is not None:
        metrics.update({
            "interpose.lock_ns_p50": span(st, "lock", "p50"),
            "interpose.lock_ns_p99": span(st, "lock", "p99"),
            "interpose.cond_wait_ns_p50": span(st, "cond_wait", "p50"),
        })
    if nt is not None:
        metrics.update({
            "trace.snapshot_ns": nt["trace.snapshot_ns"],
            "core.waitfor_pass_ns": nt["core.waitfor_pass_ns"],
            "core.lockorder_pass_ns": nt["core.lockorder_pass_ns"],
            "core.lockorder_edges": nt["core.lockorder_edges"],
            "runtime.host_op_ns_p50": span(nt, "host_op", "p50"),
            "runtime.host_op_ns_p99": span(nt, "host_op", "p99"),
            "runtime.check_now_ns": span(nt, "check_now", "p50"),
            "runtime.waitfor_checkpoint_ns":
                span(nt, "waitfor_checkpoint", "p50"),
            "runtime.lockorder_checkpoint_ns":
                span(nt, "lockorder_checkpoint", "p50"),
            "runtime.check_tick_self_ns": span(nt, "check_tick", "self_p50"),
        })
    if np_ is not None:
        metrics.update({
            "trace.events_per_op":
                np_["events_appended"] / max(1, np_["ops"]),
            "trace.events_lost": np_["events_lost"],
            "runtime.idle_check_frac":
                np_["idle_checks"] / max(1, np_["detector_checks"]),
            "runtime.avg_batch":
                np_["batched_checks"] / max(1, np_["dispatches"]),
            "runtime.check_spend_frac":
                np_["check_ns"] / (np_["elapsed_s"] * 1e9),
            "runtime.quiesce_ns_per_check":
                np_["quiesce_ns"] / max(1, np_["checks"]),
        })
    if ring is not None:
        metrics.update({
            "runtime.checkpoints_to_action":
                quantile(ring["passes_to_action"] or [0], 0.5),
            "runtime.recovery_actions_per_episode":
                ring["recovery_actions"] / max(1, ring["episodes"]),
        })
    if np_ is not None and nt is not None:
        metrics.update({
            "tracing.native_untraced_ops_per_s": rate(np_),
            "tracing.native_traced_ops_per_s": rate(nt),
            "tracing.native_slowdown_x": rate(np_) / rate(nt),
        })
    if shim_plain is not None and st is not None:
        metrics.update({
            "tracing.shim_untraced_ops_per_s": rate(shim_plain),
            "tracing.shim_traced_ops_per_s": rate(st),
            "tracing.shim_slowdown_x": rate(shim_plain) / rate(st),
        })
    if probes is not None:
        for name in PER_LAYER:
            if name not in metrics and name in probes:
                metrics[name] = probes[name]
    return metrics


def compiler_version():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    compiler, flags = "c++", ""
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_CXX_FLAGS_%s:" % BUILD_TYPE.upper()):
                    flags = line.split("=", 1)[1].strip()
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return version, flags


def source_identity():
    """Commit when the checkout is a git repository, plus a digest of src/."""
    commit = "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, spreads):
    version, flags = compiler_version()
    commit, digest = source_identity()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": version,
        "cxx_flags": flags,
        "build_type": BUILD_TYPE,
        "commit": commit,
        "src_sha256": digest,
        "processes_per_mode": PROCESSES,
        "spread_median_min_max": spreads or {},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="none",
                        choices=("none", "drop-item", "detach-sink"),
                        help="negative control: break one check on purpose")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
    except (Failure, OSError, subprocess.SubprocessError) as error:
        log("perfbench: %s" % error)
        return 1

    runner = Runner(args.seed, args.inject)
    spreads = None
    if args.trace:
        metrics = per_layer(runner, args.workload, args.seconds)
        units = PER_LAYER
    else:
        metrics, spreads = end_to_end(runner, args.workload, args.seconds)
        units = END_TO_END
    missing = [name for name in units if name not in metrics]
    if missing and runner.failed == 0:
        # Every process succeeded, so the benchmark itself lacks a metric
        # BENCHMARK.json declares.
        runner.fail("metrics", "not computed: " + ", ".join(missing))
    for problem in runner.problems:
        log("perfbench: FAIL %s" % problem)

    for name in units:
        if name in metrics:
            log("%-40s %14.6g %s" % (name, metrics[name], units[name]))
    result = {
        "correct": runner.failed == 0,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps({"stamp": stamp(args, spreads)}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
