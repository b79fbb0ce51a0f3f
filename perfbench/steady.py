#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py [--runs 5] [--workloads a,b] [--seconds S]

Runs two interleaved sets, A and B, of `--runs` runs of every chosen
workload (A run 1, B run 1, A run 2, ...), each run with its own seed,
through perfbench/run.py --trace 0. For each workload and end-to-end metric
it prints each set's median, first and third quartile (statistics.quantiles,
n=4) and spread (quartile distance over the median), then whether each
spread stays within the metric's bound from BENCHMARK.json and whether set
B's median is no worse than set A's by more than the bound. Raw values go
to <build dir>/steady-<time>.json. Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = {"A": 1000, "B": 2000}  # run i of a set uses seed base + i


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("  incorrect answers: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    # values[workload][set][metric] -> list of run values
    values = {w: {s: {m["name"]: [] for m in metrics} for s in SEED_BASE}
              for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for s, base in SEED_BASE.items():
                t0 = time.monotonic()
                got = run_once(w, base + i, seconds)
                print("run %d set %s %-16s seed %-6d %5.1fs  p50 %.3f ms"
                      % (i + 1, s, w, base + i, time.monotonic() - t0,
                         got["p50_ms"]), flush=True)
                for m in metrics:
                    values[w][s][m["name"]].append(got[m["name"]])

    ok = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-14s %-34s %-34s %s" % ("metric", "A median [q1, q3] spread",
                                          "B median [q1, q3] spread",
                                          "bound  verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = summarize(values[w]["A"][name])
            b = summarize(values[w]["B"][name])
            verdicts = ["%s spread > bound" % s
                        for s, (_, _, _, spread) in (("A", a), ("B", b))
                        if spread > bound]
            worse = (b[0] - a[0]) if m["better"] == "lower" else (a[0] - b[0])
            if a[0] and worse / a[0] > bound:
                verdicts.append("B median worse by %.3f" % (worse / a[0]))
            ok = ok and not verdicts
            print("  %-14s %-34s %-34s %.2f  %s" % (
                name, "%.4g [%.4g, %.4g] %.3f" % a, "%.4g [%.4g, %.4g] %.3f" % b,
                bound, "; ".join(verdicts) or "agree"))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.join(ROOT, target, "perfbench",
                        "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(values, f, indent=1)
    print("\nraw values: %s" % path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
