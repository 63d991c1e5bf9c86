#!/usr/bin/env python3
"""Compare two sets of perfbench runs: a parent commit and a change.

Two modes:

  compare.py run --parent-root A --change-root B --out DIR [--pairs 10]
                 [--workloads w1,w2] [--seconds S] [--trace 0|1]
      Runs the benchmark in checkouts A and B in alternating order (the
      side that runs first alternates every pair), one fresh seed per pair,
      writes every run's output to DIR/{parent,change}/<workload>-<seed>.log
      and then compares them.

  compare.py compare --parent DIR --change DIR [--benchmark BENCHMARK.json]
      Compares existing run outputs. Files are matched into pairs by
      workload and seed; the last line of each file is the result JSON.

For every workload and metric the report applies the rule of the
choosing-metrics method (section 8): a change counts as a gain only with at
least ten pairs, a win in at least nine of every ten pairs (ties count for
neither side), and a median difference larger than the parent's
interquartile range. Every end-to-end metric is also held to its
BENCHMARK.json bound: the change's median may not be worse than the
parent's by more than bound x parent median. Where the run-to-run spread
(interquartile range over median) of either side exceeds the bound, the
metric is reported "unresolved" unless every change run beats every parent
run. failed_frac (failed / attempted) is compared over each whole set.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def last_json(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_set(folder):
    """{(workload, seed): result} for every <workload>-<seed>.* file."""
    runs = {}
    for name in sorted(os.listdir(folder)):
        stem = name.rsplit(".", 1)[0]
        if "-" not in stem:
            continue
        workload, seed = stem.rsplit("-", 1)
        result = last_json(os.path.join(folder, name))
        runs[(workload, seed)] = result
    return runs


def spread(values):
    """Interquartile range and median, as statistics.quantiles gives them."""
    if len(values) < 2:
        return 0.0, values[0] if values else 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0], statistics.median(values)


def judge(parent, change, better, bound):
    """Verdict for one metric on one workload from paired values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_iqr, p_med = spread(parent)
    c_iqr, c_med = spread(change)
    diff = c_med - p_med
    verdict = []
    if pairs >= 10 and wins * 10 >= 9 * pairs and abs(diff) > p_iqr:
        verdict.append("GAIN")
    elif pairs >= 10 and losses * 10 >= 9 * pairs and abs(diff) > p_iqr:
        verdict.append("WORSE")
    if bound is not None and p_med != 0:
        worse_by = -sign * diff / abs(p_med)
        noisy = max(p_iqr / abs(p_med), c_iqr / abs(c_med) if c_med else 0.0) > bound
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if noisy and not all_better:
            verdict.append("unresolved")
        elif worse_by > bound:
            verdict.append("REGRESSION")
        else:
            verdict.append("within bound")
    if not verdict:
        verdict.append("no claim" if pairs >= 10 else "too few pairs")
    return {
        "pairs": pairs, "wins": wins, "losses": losses,
        "parent_median": p_med, "parent_iqr": p_iqr,
        "change_median": c_med, "change_iqr": c_iqr,
        "verdict": ", ".join(verdict),
    }


def compare(parent_dir, change_dir, benchmark_path):
    with open(benchmark_path) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent = load_set(parent_dir)
    change = load_set(change_dir)
    keys = sorted(set(parent) & set(change))
    by_workload = collections.defaultdict(list)
    for key in keys:
        by_workload[key[0]].append(key)

    bad = 0
    for workload, pair_keys in sorted(by_workload.items()):
        print("== %s (%d pairs) ==" % (workload, len(pair_keys)))
        totals = {"parent": [0, 0], "change": [0, 0]}
        series = collections.defaultdict(lambda: ([], []))
        for key in pair_keys:
            p, c = parent[key], change[key]
            for side, result in (("parent", p), ("change", c)):
                if result is None:
                    totals[side][0] += 1
                    totals[side][1] += 1  # a run without a result failed outright
                    continue
                totals[side][0] += result["attempted"]
                totals[side][1] += result["failed"]
            if p is None or c is None:
                continue
            for name in metrics:
                if name in p["metrics"] and name in c["metrics"]:
                    series[name][0].append(p["metrics"][name]["value"])
                    series[name][1].append(c["metrics"][name]["value"])
        print("%-34s %12s %10s %12s %10s %7s  %s" % (
            "metric", "parent med", "p IQR", "change med", "c IQR", "wins", "verdict"))
        for name, (pv, cv) in series.items():
            m = metrics[name]
            r = judge(pv, cv, m["better"], m.get("bound"))
            if "REGRESSION" in r["verdict"]:
                bad += 1
            print("%-34s %12.5g %10.3g %12.5g %10.3g %3d/%-3d  %s" % (
                name + " [" + m["unit"] + "]", r["parent_median"], r["parent_iqr"],
                r["change_median"], r["change_iqr"], r["wins"], r["pairs"],
                r["verdict"]))
        frac = {}
        for side in ("parent", "change"):
            attempted, failed = totals[side]
            frac[side] = failed / attempted if attempted else 0.0
            print("failed_frac %-6s = %.6g (%d failed of %d attempted)" % (
                side, frac[side], failed, attempted))
        if frac["change"] > frac["parent"]:
            print("failed_frac: the change fails a larger share of its requests than the parent")
            bad += 1
        print()
    return 1 if bad else 0


def run_pairs(args):
    workloads = args.workloads.split(",") if args.workloads else None
    with open(os.path.join(args.change_root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    for side in ("parent", "change"):
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in names:
            for side in order:
                root = args.parent_root if side == "parent" else args.change_root
                log = os.path.join(args.out, side, "%s-%d.log" % (workload, seed))
                with open(log, "w") as out:
                    subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(args.trace)],
                        cwd=root, stdout=out, stderr=subprocess.STDOUT)
                print("pair %d %s %s done" % (i, workload, side), flush=True)
    return compare(os.path.join(args.out, "parent"), os.path.join(args.out, "change"),
                   os.path.join(args.change_root, "BENCHMARK.json"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent-root", required=True)
    run.add_argument("--change-root", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1000)
    run.add_argument("--workloads", default="")
    run.add_argument("--seconds", type=int, default=None,
                     help="run length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, default=0, choices=(0, 1))
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("--parent", required=True)
    cmp_.add_argument("--change", required=True)
    cmp_.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                          "BENCHMARK.json"))
    args = parser.parse_args()
    if args.mode == "run":
        return run_pairs(args)
    return compare(args.parent, args.change, args.benchmark)


if __name__ == "__main__":
    sys.exit(main())
