#!/usr/bin/env python3
"""Compare parent and change runs of the end-to-end benchmark.

    python3 bench/e2e/compare.py --parent p01.json p02.json ... \\
                                 --change c01.json c02.json ...

Each file is a results file of `primsel-e2e --out FILE` (every workload,
one seed). Parent file i and change file i form pair i; make the pairs by
running the two builds alternately, switching which side runs first, with
the same --seed and --seconds on both.

One row per (workload, end-to-end metric) gives each side's median and
quartiles, the change's win fraction over the pairs (ties count for
neither side), and a verdict under the bounds and directions of
BENCHMARK.json:

  improved      the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's interquartile range;
  regressed     the change's median is worse than the parent's by more than
                the bound (or, where the parent's spread exceeds the bound,
                every change run is worse than every parent run);
  unresolved    the parent's own spread exceeds the bound, so the bound
                cannot be checked, and the runs overlap;
  within bound  otherwise.

Exits 1 when any row regressed, 2 on bad input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def values(runs, workload, metric):
    out = []
    for r in runs:
        m = r.get("workloads", {}).get(workload, {}).get("metrics", {})
        if metric in m:
            out.append(float(m[metric]["value"]))
    return out


def verdict(parent, change, bound, lower_is_better):
    def better(a, b):  # a reads better than b
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_frac = wins / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    p_iqr = p_q[2] - p_q[0]
    spread = p_iqr / p_med if p_med else float("inf")
    worse_by = (c_med - p_med) / p_med if lower_is_better else (p_med - c_med) / p_med
    all_better = all(better(c, p) for c in change for p in parent)
    all_worse = all(better(p, c) for c in change for p in parent)

    if win_frac >= 0.9 and abs(c_med - p_med) > p_iqr and better(c_med, p_med):
        v = "improved"
    elif spread > bound:
        v = "regressed" if all_worse else "within bound" if all_better else "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "within bound"
    return win_frac, worse_by, spread, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--min-pairs", type=int, default=10,
                    help="fewest pairs accepted (a gain claim needs 10)")
    args = ap.parse_args()

    if len(args.parent) != len(args.change):
        print("compare.py: need as many change runs as parent runs", file=sys.stderr)
        return 2
    if len(args.parent) < max(2, args.min_pairs):
        print("compare.py: %d pairs, need at least %d"
              % (len(args.parent), max(2, args.min_pairs)), file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)

    header = "%-22s %-16s %11s %23s %11s %23s %5s %7s %7s  %s" % (
        "workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3",
        "win", "worse", "spread", "verdict")
    print(header)
    regressed = 0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            p = values(parent, w["name"], m["name"])
            c = values(change, w["name"], m["name"])
            if len(p) != len(parent) or len(c) != len(change):
                print("%-22s %-16s missing in some runs" % (w["name"], m["name"]))
                regressed += 1
                continue
            win, worse, spread, v = verdict(p, c, m["bound"], m["better"] == "lower")
            pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            print("%-22s %-16s %11.4g %11.4g..%-11.4g %11.4g %11.4g..%-11.4g %4.0f%% %+6.1f%% %6.1f%%  %s" % (
                w["name"], m["name"], statistics.median(p), pq[0], pq[2],
                statistics.median(c), cq[0], cq[2], 100 * win, 100 * worse,
                100 * spread, v))
            regressed += v == "regressed"
    print("%d pairs; %d regressed row%s" % (len(parent), regressed,
                                            "" if regressed == 1 else "s"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
