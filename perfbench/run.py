#!/usr/bin/env python3
"""Builds the SASE benchmark from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload retail_day --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. Exit code is non-zero
when the build fails, an output check fails, or the arguments are bad.

Steadiness report (repeats a workload and summarises each metric's spread
against its bound in BENCHMARK.json):

  python3 perfbench/run.py --report --workload hotkey_resize --repeats 5
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "sasebench")
# Compiler and program temp files stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
WORKLOADS = ("retail_day", "hotkey_resize")


def build():
    """Configures and builds the benchmark (incrementally); exits on failure."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    # One build at a time per checkout: a second run waits for the first.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") and not os.path.exists(
                    os.path.join(BUILD_DIR, "CMakeCache.txt")):
                configure += ["-G", "Ninja"]
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            for step in (configure,
                         ["cmake", "--build", BUILD_DIR, "-j", jobs]):
                if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT, env=ENV) != 0:
                    with open(log_path) as failed:
                        sys.stderr.write(failed.read()[-4000:])
                    sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                    sys.exit(1)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library sources, so every result names the code it measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            return subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except subprocess.CalledProcessError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def bench_command(workload, seed, seconds, trace, tiny=False):
    work_dir = os.path.join(BUILD_ROOT, "work")
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir, "--commit", source_id()]
    if trace:
        command += ["--trace-out",
                    os.path.join(BUILD_ROOT, "trace-%s.json" % workload)]
    if tiny:
        command.append("--tiny")
    return command, work_dir


def run_once(workload, seed, seconds, trace, tiny=False, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    command, work_dir = bench_command(workload, seed, seconds, trace, tiny)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        if capture:
            result = subprocess.run(command, cwd=ROOT, env=ENV,
                                    stdout=subprocess.PIPE, text=True)
            return result.returncode, result.stdout
        return subprocess.call(command, cwd=ROOT, env=ENV), None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args):
    """Repeats one workload with seeds seed, seed+1, ... and prints each
    metric's median, quartiles, and its full-range and interquartile spreads
    as shares of the median. A metric is flagged OVER when its range spread
    ((max - min) / median) exceeds its bound in BENCHMARK.json, and WARN when
    its interquartile spread exceeds a third of the bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    units = {}
    for i in range(args.repeats):
        seed = args.seed + i
        code, output = run_once(args.workload, seed, args.seconds, args.trace,
                                args.tiny, capture=True)
        lines = [l for l in (output or "").splitlines() if l.strip()]
        context = next((l for l in lines if l.startswith("context: ")), "")
        print("run %d seed %d exit %d %s" % (i + 1, seed, code, context[9:]))
        if code != 0 or not lines:
            print("\n".join(lines[-25:]))
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print("\n%-34s %-6s %14s %14s %14s %8s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "rng/med", "iqr/med", "bound"))
    flagged = 0
    for name, series in values.items():
        q1, median, q3 = quartiles(series)
        iqr = (q3 - q1) / median if median else float("inf")
        full = (max(series) - min(series)) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if full > bound:
                flag = "OVER"
            elif iqr > bound / 3:
                flag = "WARN"
        flagged += flag == "OVER"
        print("%-34s %-6s %14.6g %14.6g %14.6g %8.4f %8.4f %6s %s" %
              (name, units[name], median, q1, q3, full, iqr,
               "" if bound is None else bound, flag))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test)")
    parser.add_argument("--report", action="store_true",
                        help="repeat the workload and report metric spreads")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    build()
    if args.report:
        return report(args)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       args.tiny)
    return code


if __name__ == "__main__":
    sys.exit(main())
