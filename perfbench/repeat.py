#!/usr/bin/env python3
"""Repeats benchmark workloads and prints each metric's median and quartiles.

Run from the repository root:

    python3 perfbench/repeat.py [--workloads serve,tlb_sweep,oversub]
        [--runs 10] [--seed0 1] [--seconds S] [--trace 0|1] [--same-seed]

Each run is one `perfbench/run.py` invocation (one workload, one process)
with seed seed0, seed0+1, ... (or seed0 every time with --same-seed). For
every metric the table gives the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and,
for end-to-end metrics, the bound from BENCHMARK.json: "steady" when the
spread is within a third of the bound, "ok" within the bound, "WIDE"
beyond it. With --same-seed every simulated metric (all but host times,
memory and repetition counts) must repeat exactly. The exit code is
non-zero when a run fails or a simulated metric does not repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_UNITS = {"s", "ns", "us", "MiB"}
HOST_NAMES = {"trace.overhead_frac"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="serve,tlb_sweep,oversub")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.seed0 if args.same_seed else args.seed0 + i
            code, result = run_once(workload, seed, args.seconds, args.trace)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: run FAILED (exit %d)" % (workload, seed, code))
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n== %s: %d runs, %s ==" % (workload, args.runs,
                                           "seed %d each" % args.seed0 if args.same_seed
                                           else "seeds %d..%d" % (args.seed0,
                                                                  args.seed0 + args.runs - 1)))
        print("%-34s %-10s %16s %16s %16s %8s %6s %s" %
              ("metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread <= bound / 3 else ("ok" if spread <= bound else "WIDE")
            simulated = units[name] not in HOST_UNITS and name not in HOST_NAMES
            if args.same_seed and simulated and len(set(v)) > 1:
                verdict += " NOT-REPEATED"
                status = 1
            print("%-34s %-10s %16.6g %16.6g %16.6g %8.4f %6s %s" %
                  (name, units[name], med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
