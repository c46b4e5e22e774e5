#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds one file per run, the stdout of perfbench/run.py;
only its last line (the JSON result) is read. File names start with the
workload name, e.g. compile-large-seed3.out. Runs of the same workload
and seed pair up across the two directories (otherwise runs pair in
file-name order), so run both commits on the same seeds.

Prints one row per workload and end-to-end metric: each side's median
and quartiles, the share of pairs the head commit wins, and a verdict:

  improved    head wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the base
              runs' own quartile spread
  regressed   head median worse than the base median by more than the
              metric's bound in BENCHMARK.json
  unresolved  the base runs spread wider than the bound, so a change
              within it cannot be told from noise (unless every head run
              beats every base run)
  unchanged   otherwise

A metric whose values equal, run for run, those of one printed above it
for the same workload (miss latency on a workload without a cache) is
named but not judged twice.

Exits 1 when any row regressed or any run was incorrect.
"""

import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory, workloads):
    runs = {}
    for name in sorted(os.listdir(directory)):
        workload = next((w for w in sorted(workloads, key=len, reverse=True)
                         if name.startswith(w)), None)
        if workload is None:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines or not lines[-1].startswith("{"):
            continue  # Not a run's output (a stderr log, say).
        result = json.loads(lines[-1])
        seed = re.search(r"seed(\d+)", name)
        key = int(seed.group(1)) if seed else name
        runs.setdefault(workload, []).append((key, result))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound, pairs):
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse = sign * (hm - bm) / bm if bm else 0.0
    if win_share >= 0.9 and abs(hm - bm) > (b3 - b1) and worse < 0:
        return "improved", win_share
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if bm and (b3 - b1) / abs(bm) > bound and not all_better:
        return "unresolved", win_share
    if worse > bound:
        return "regressed", win_share
    return "unchanged", win_share


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    base = load_runs(sys.argv[1], workloads)
    head = load_runs(sys.argv[2], workloads)
    bad = False
    header = ("%-17s %-20s %10s %10s %10s   %10s %10s %10s  %5s  %s" %
              ("workload", "metric", "base_q1", "base_med", "base_q3",
               "head_q1", "head_med", "head_q3", "wins", "verdict"))
    print(header)
    for w in workloads:
        if w not in base or w not in head:
            continue
        for side, runs in (("base", base[w]), ("head", head[w])):
            broken = [k for k, r in runs if not r["correct"] or r["failed"]]
            if broken:
                print("%s %s: incorrect or failed runs: %s" % (side, w, broken))
                bad = True
        head_by_key = dict(head[w])
        keyed = [(r, head_by_key[k]) for k, r in base[w] if k in head_by_key]
        if not keyed:
            keyed = list(zip([r for _, r in base[w]], [r for _, r in head[w]]))
        seen = {}  # Values -> the metric already printed with them.
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for _, r in base[w]]
            hv = [r["metrics"][name]["value"] for _, r in head[w]]
            # On a workload where two metrics measure the same thing
            # (miss latency where nothing is cached), judge it once.
            same = seen.setdefault((tuple(bv), tuple(hv)), name)
            if same != name:
                print("%-17s %-20s same values as %s" % (w, name, same))
                continue
            pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                     for b, h in keyed]
            v, win_share = verdict(bv, hv, m["better"], m["bound"], pairs)
            bad = bad or v == "regressed"
            bq, hq = quartiles(bv), quartiles(hv)
            print("%-17s %-20s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g  %5.2f  %s"
                  % (w, name, bq[0], bq[1], bq[2], hq[0], hq[1], hq[2],
                     win_share, v))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
