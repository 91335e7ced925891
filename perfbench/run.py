#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of stdout is the result JSON.
  python3 perfbench/run.py --workload NAME --spread RUNS [--first-seed K]
                          [--same-seed]
      RUNS untraced runs on seeds K, K+1, ... (with --same-seed: all on
      seed K, so the spread is run-to-run noise without data differences):
      median, quartiles, min/max and quartile spread of every end-to-end
      metric, plus pinned values.
  python3 perfbench/run.py --workload NAME --seed N --overhead
      A traced and an untraced run of one seed: tracing overhead per
      end-to-end metric (traced minus untraced).
  --smoke runs any of these on tiny inputs.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Every failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "perfbench", "perfbench_unit_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, smoke, echo):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", build_dir()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out after %d s" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


def printed_metrics(lines):
    """Every `metric NAME VALUE UNIT` line the program printed."""
    values = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            values[parts[1]] = float(parts[2])
    return values


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(binary, args):
    spec = declared()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, pins = [], []
    for i in range(args.spread):
        seed = args.first_seed + (0 if args.same_seed else i)
        code, lines = run_once(binary, args.workload, seed, args.seconds, 0,
                               args.smoke, echo=False)
        result = result_of(lines)
        if code != 0 or result is None or not result["correct"]:
            sys.exit("perfbench: seed %d failed (exit %d)" % (seed, code))
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        pins.append((seed, [l[len("pinned "):] for l in lines
                            if l.startswith("pinned ")]))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % kv for kv in sorted(runs[-1].items()))), flush=True)
    print("\n%s, %d runs, %g s each" % (args.workload, len(runs), args.seconds))
    print("%-18s %12s %12s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "min", "max", "iqr/med", "bound"))
    for name in bounds:
        values = [r[name] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        rel = (q3 - q1) / med if med else float("inf")
        flag = "" if rel < bounds[name] / 3 else "  > bound/3"
        print("%-18s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
            name, med, q1, q3, min(values), max(values), rel, bounds[name],
            flag))
    print("\npinned values:")
    for seed, values in pins:
        print("  seed %d: %s" % (seed, "; ".join(values)))


def overhead(binary, args):
    _, plain = run_once(binary, args.workload, args.seed, args.seconds, 0,
                        args.smoke, echo=False)
    _, traced = run_once(binary, args.workload, args.seed, args.seconds, 1,
                         args.smoke, echo=False)
    before, after = printed_metrics(plain), printed_metrics(traced)
    print("%-18s %14s %14s %14s" % ("metric", "untraced", "traced",
                                    "traced-untraced"))
    for m in declared()["end_to_end"]:
        name = m["name"]
        print("%-18s %14.6g %14.6g %14.6g" % (
            name, before[name], after[name], after[name] - before[name]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spread", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.spread:
        spread(binary, args)
    elif args.overhead:
        overhead(binary, args)
    else:
        code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace, args.smoke, echo=True)
        sys.exit(code)


if __name__ == "__main__":
    main()
