#!/usr/bin/env python3
"""Builds the simulator and runs one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve|tlb_sweep|oversub \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the simulator library
from the repository's own sources, the perfbench binary and its arithmetic
self-test) into $CARGO_TARGET_DIR, or .bench_build when that is unset.
Every call runs the self-test, then perfbench. Its report goes
to stdout; the last line is one JSON object with `correct`, `attempted`,
`failed` and the metrics BENCHMARK.json lists for the mode: its
`end_to_end` metrics with --trace 0, its `per_layer` metrics with
--trace 1. Host spans are written as Chrome trace JSON under
<build dir>/spans/. The exit code is non-zero when the build, the
self-test or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "tlb_sweep", "oversub")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures (once) and builds the benchmark targets into `out`."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the simulator sources (src/) are missing from " + ROOT)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench_build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench", "perfbench_arith_test"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd) + " (log: " + log_path + ")")


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read " + path + ": " + str(e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    build(out)
    test = subprocess.run([os.path.join(out, "perfbench_arith_test")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        fail("arithmetic self-test failed")

    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the %s run exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("perfbench printed no result (exit code %d)" % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("perfbench did not report metric " + m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
