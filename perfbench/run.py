#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload compile-large --seed 1 --seconds 20 --trace 0

Builds the measuring program (perfbench/CMakeLists.txt, on top of the
library sources in src/) into .bench_build/perfbench, makes sure every
input of the run has an expected objective (the committed ones in
perfbench/expected/, else the oracle computes and caches them), runs the
workload and prints its `metric` lines followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"} with the
metrics BENCHMARK.json declares (`end_to_end` untraced, `per_layer`
with --trace 1).

Other modes:
    --selftest                       build and run the benchmark self-tests
    --commit-expected --workload W --seeds A-B
                                     (re)write perfbench/expected/W.txt for
                                     seeds A..B at BENCHMARK.json run_seconds
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DEADLINE_S = 175  # Every run must end well inside 180 s after the build.


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, target)


def committed_expected(workload):
    return os.path.join(HERE, "expected", workload + ".txt")


def ensure_expected(binary, workload, seed, seconds, budget_s):
    """Returns the expected-objective files covering every input of the run."""
    files = [committed_expected(workload)]
    files = [f for f in files if os.path.isfile(f)]
    # Keyed by the program too: another build may generate other inputs.
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:12]
    cache = os.path.join(BUILD, "expected", "%s-seed%d-s%g-%s.txt"
                         % (workload, seed, seconds, build_id))
    if not os.path.isfile(cache):
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        tmp = cache + ".tmp"
        if os.path.exists(tmp):
            os.remove(tmp)
        cmd = [binary, "oracle", "--workload", workload, "--seed", str(seed),
               "--seconds", "%g" % seconds, "--out", tmp]
        for f in files:
            cmd += ["--expected", f]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=budget_s)
        os.replace(tmp, cache)
    return files + [cache]


def run_workload(args, bench):
    # serve-repeat is runnable but not among BENCHMARK.json's gated
    # workloads (see README.md); the program rejects unknown names.
    start = time.monotonic()
    binary = build("perfbench")
    expected = ensure_expected(binary, args.workload, args.seed, args.seconds,
                               DEADLINE_S)
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "%g" % args.seconds,
           "--trace", str(args.trace)]
    for path in expected:
        cmd += ["--expected", path]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    remaining = max(10.0, DEADLINE_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              universal_newlines=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    if proc.returncode != 0:
        fail("measuring program exited with %d" % proc.returncode)

    metrics, result = {}, None
    for line in proc.stdout.splitlines():
        print(line)
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = float(parts[2])
        elif parts and parts[0] == "result":
            result = dict(p.split("=", 1) for p in parts[1:])
    if result is None:
        fail("measuring program printed no result line")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    out = {
        "correct": result["correct"] == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(out))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def commit_expected(args, bench):
    binary = build("perfbench")
    path = committed_expected(args.workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write("# Expected objectives for %s, seeds %s, %d s runs.\n"
                "# <key> <flow_cost> <energy> <layout_energy> <input>\n"
                "# Written by: python3 perfbench/run.py --commit-expected "
                "--workload %s --seeds %s\n"
                % (args.workload, args.seeds, bench["run_seconds"],
                   args.workload, args.seeds))
    for seed in parse_seeds(args.seeds):
        subprocess.run([binary, "oracle", "--workload", args.workload,
                        "--seed", str(seed), "--seconds",
                        str(bench["run_seconds"]), "--expected", tmp,
                        "--out", tmp], check=True)
    os.replace(tmp, path)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--commit-expected", action="store_true")
    p.add_argument("--seeds")
    args = p.parse_args()
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    try:
        if args.selftest:
            sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
        if args.commit_expected:
            if not args.workload or not args.seeds:
                fail("--commit-expected needs --workload and --seeds", 2)
            commit_expected(args, bench)
            return
        if not args.workload:
            fail("--workload is required", 2)
        run_workload(args, bench)
    except subprocess.CalledProcessError as e:
        fail("command failed (%d): %s" % (e.returncode, " ".join(e.cmd)))
    except subprocess.TimeoutExpired as e:
        fail("command timed out: %s" % " ".join(e.cmd))


if __name__ == "__main__":
    main()
