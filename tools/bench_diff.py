#!/usr/bin/env python3
"""Compare the end-to-end metrics of two benchmark results.

Usage: tools/bench_diff.py OLD NEW [--save PATH]

OLD and NEW are each one of:
  - a saved output of perfbench/run.py: its final JSON line, plus the
    `steadiness` tables that --repeat (or --workload all) prints;
  - a directory of such outputs, one run per file: per metric the
    median and quartiles over the runs, as --repeat reports them;
  - a committed BENCH_*.json record (see --save); its "change" side is
    read.

For every end-to-end metric of BENCHMARK.json that both sides report it
prints OLD, NEW and the delta in percent, and a verdict in the metric's
direction ("better" is read from BENCHMARK.json). A delta no larger
than OLD's interquartile range is "noise"; without quartiles on the OLD
side no verdict is given. Verdicts are only given when both sides ran
alike: when their `info` lines disagree on run length, core count, SIMD
level or build type, only values and deltas are printed.

--save PATH writes both sides (medians, quartiles, run counts, seeds
and each side's `info` provenance lines) as a BENCH_*.json record, with
OLD as "parent" and NEW as "change".

Reports only: exits 0 whenever both inputs parse.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `info` lines that must agree before a delta is judged against the IQR.
COMPARABLE = ("seconds", "nproc", "simd_level", "build_type")


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def parse_run_text(text):
    """One run.py output: {"info": {...}, "metrics": {(wl, name): stats}}."""
    info = {}
    metrics = {}
    lines = text.splitlines()
    table = None
    for line in lines:
        parts = line.split()
        if line.startswith("info ") and len(parts) >= 2:
            info.setdefault(parts[1], " ".join(parts[2:]))
        if line.startswith("steadiness "):
            table = parts[1]
            continue
        if table is not None:
            if len(parts) == 6 and parts[0] != "metric":
                try:
                    med, q1, q3 = (float(parts[1]), float(parts[2]),
                                   float(parts[3]))
                except ValueError:
                    table = None
                    continue
                metrics[(table, parts[0])] = {"value": med, "q1": q1,
                                              "q3": q3}
            elif parts and parts[0] != "metric":
                table = None
    result = None
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            result = json.loads(line)
            break
    if result is None:
        raise ValueError("no JSON result line")
    for key, entry in result["metrics"].items():
        wl, _, name = key.rpartition("/")
        wl = wl or info.get("workload", "")
        stats = metrics.setdefault((wl, name), {})
        stats["value"] = entry["value"]
    seed = info.get("seed", "")
    return {"info": info, "metrics": metrics, "runs": 1,
            "seeds": [int(seed)] if seed.isdigit() else [],
            "correct": result.get("correct"), "failed": result.get("failed")}


def aggregate(runs):
    """Median and quartiles per metric over single-run outputs."""
    values = {}
    for run in runs:
        for key, stats in run["metrics"].items():
            values.setdefault(key, []).append(stats["value"])
    metrics = {}
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (med, med, med))
        metrics[key] = {"value": med, "q1": q1, "q3": q3}
    # Provenance shared by every run; per-run lines (seed, rounds) drop.
    info = {key: value for key, value in runs[0]["info"].items()
            if all(r["info"].get(key) == value for r in runs)}
    seeds = sorted({seed for r in runs for seed in r["seeds"]})
    return {"info": info, "metrics": metrics, "runs": len(runs),
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] or 0 for r in runs)}


def load(path):
    if os.path.isdir(path):
        runs = []
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name)) as f:
                runs.append(parse_run_text(f.read()))
        if not runs:
            raise ValueError(path + ": no run outputs")
        return aggregate(runs)
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{") and "\n{" not in text.strip():
        record = json.loads(text)
        if "change" in record:
            wl = record.get("workload", "")
            data = record["change"]
            metrics = {(wl, name): stats
                       for name, stats in data["metrics"].items()}
            return dict(data, metrics=metrics)
    return parse_run_text(text)


def save(path, old, new):
    workloads = sorted({wl for wl, _ in new["metrics"]})
    if len(workloads) != 1:
        sys.exit("bench_diff: --save needs results of one workload")
    record = {"workload": workloads[0]}
    for label, side in (("parent", old), ("change", new)):
        entry = {key: side[key]
                 for key in ("info", "runs", "seeds", "correct", "failed")}
        entry["metrics"] = {name: stats
                            for (wl, name), stats in sorted(
                                side["metrics"].items())
                            if wl == workloads[0]}
        record[label] = entry
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=False)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--save", metavar="PATH")
    args = parser.parse_args()
    old = load(args.old)
    new = load(args.new)
    if args.save:
        save(args.save, old, new)

    workloads = sorted({wl for wl, _ in old["metrics"]} &
                       {wl for wl, _ in new["metrics"]})
    differ = [key for key in COMPARABLE
              if old["info"].get(key) != new["info"].get(key)]
    if differ:
        print("sides ran differently (%s): values and deltas only, "
              "no verdict" % ", ".join(
                  "%s %s vs %s" % (key, old["info"].get(key, "?"),
                                   new["info"].get(key, "?"))
                  for key in differ))
    print("%-14s %-26s %12s %12s %9s  %s" %
          ("workload", "metric", "parent", "change", "delta%", "verdict"))
    for wl in workloads:
        for name, better in end_to_end_metrics():
            a = old["metrics"].get((wl, name))
            b = new["metrics"].get((wl, name))
            if a is None or b is None:
                continue
            delta = b["value"] - a["value"]
            pct = 100.0 * delta / a["value"] if a["value"] else 0.0
            verdict = ""
            if not differ and "q1" in a and "q3" in a:
                if abs(delta) <= a["q3"] - a["q1"]:
                    verdict = "noise"
                elif (delta < 0) == (better == "lower"):
                    verdict = "better"
                else:
                    verdict = "worse"
            print("%-14s %-26s %12.6g %12.6g %+8.1f%%  %s" %
                  (wl, name, a["value"], b["value"], pct, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
