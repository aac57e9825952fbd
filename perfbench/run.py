#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (the nodb library plus
the nodb_perfbench program, Release) into .bench_build/ or into
$CARGO_TARGET_DIR when set; later calls rebuild incrementally. The
program's output passes through unchanged, so the last line of standard
output is the run's JSON result.

Extra modes, for a reader checking noise by hand:

    --repeat K      run K times with seeds seed, seed+1, ... and print per
                    metric the median, the quartiles and the spreads
                    (q3-q1)/median and (max-min)/median
    --workload all  run cold_explore, warm_serve and shift_append in turn

Exits non-zero without printing a result when the build or a run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["cold_explore", "warm_serve", "shift_append"]


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                die("configure failed (is this a nodb checkout?)")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=log, stderr=log).returncode != 0:
            die("build failed; see " + log_path)
    return os.path.join(build_dir, "nodb_perfbench")


def source_digest():
    """sha256 over the library sources, build files and the benchmark."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for path in sorted(paths):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source-digest", source_digest(), "--git-sha", git_sha()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None)
    if proc.returncode != 0:
        die("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    if not capture:
        return None
    text = proc.stdout.decode()
    sys.stdout.write(text)
    return json.loads(text.strip().splitlines()[-1])


def spread_report(workload, results):
    """Per metric: median, quartiles, IQR/median and range/median."""
    print("steadiness %s over %d runs" % (workload, len(results)))
    print("%-36s %12s %12s %12s %9s %9s" %
          ("metric", "median", "q1", "q3", "iqr/med", "range/med"))
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rel = (lambda x: x / med if med else 0.0)
        print("%-36s %12.6g %12.6g %12.6g %9.4f %9.4f" %
              (name, med, q1, q3, rel(q3 - q1), rel(max(values) - min(values))))
        summary[name] = {"value": med, "unit": first["unit"]}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if len(workloads) == 1 and args.repeat == 1:
        run_once(binary, workloads[0], args.seed, args.seconds, args.trace, capture=False)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        results = [run_once(binary, workload, args.seed + i, args.seconds, args.trace,
                            capture=True) for i in range(args.repeat)]
        summary = spread_report(workload, results)
        for r in results:
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
        for name, value in summary.items():
            key = name if len(workloads) == 1 else workload + "/" + name
            combined["metrics"][key] = value
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
