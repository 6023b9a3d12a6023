#!/usr/bin/env python3
"""Compare two sets of perfbench results for the no-regression check.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by untraced runs
(.bench_build/perfbench/results/<workload>-seed<n>-trace0.json; copy them
aside between the two sides). For every workload and end-to-end metric
in BENCHMARK.json it prints each side's median and quartiles and a
verdict against the metric's bound:

  worse       the new median is worse than the base median by more than the bound
  better      the new median is better by more than the base's own quartile
              spread, and the new side wins at least nine tenths of the
              runs paired by seed (every run against every run when the
              sides share no seed)
  same        neither: within the bound
  unresolved  a side spreads wider than the bound, and not every new run
              beats every base run

It also flags any rise in the share of failed operations. The exit code
is 1 when any metric is worse or failures rose, else 0.
"""
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(base, new, pairs, bound, better):
    """base and new map seed -> value; pairs lists the seeds both have."""
    sign = 1 if better == "lower" else -1
    xa, xb = list(base.values()), list(new.values())
    q1a, ma, q3a = quartiles(xa)
    q1b, mb, q3b = quartiles(xb)
    worse_by = sign * (mb - ma) / ma
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    all_better = all(sign * (x - y) < 0 for x in xb for y in xa)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if pairs:
        wins = sum(sign * (new[s] - base[s]) < 0 for s in pairs) >= 0.9 * len(pairs)
    else:
        wins = all_better
    if wins and sign * (ma - mb) > (q3a - q1a):
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for w in spec["workloads"]:
        name = w["name"]
        a, b = base.get(name, []), new.get(name, [])
        pairs = sorted({r["seed"] for r in a} & {r["seed"] for r in b})
        print(f"== {name}: {len(a)} base runs, {len(b)} new runs, {len(pairs)} paired by seed")
        if not a or not b:
            print("   missing runs on one side")
            continue
        for m in spec["end_to_end"]:
            va = {r["seed"]: r["metrics"][m["name"]]["value"] for r in a}
            vb = {r["seed"]: r["metrics"][m["name"]]["value"] for r in b}
            v = verdict(va, vb, pairs, m["bound"], m["better"])
            bad |= v == "worse"
            fa, fb = quartiles(list(va.values())), quartiles(list(vb.values()))
            print(f"   {m['name']:18s} base {fa[1]:12.6g} [{fa[0]:.6g}, {fa[2]:.6g}]"
                  f"  new {fb[1]:12.6g} [{fb[0]:.6g}, {fb[2]:.6g}] {m['unit']:6s}"
                  f"  bound {m['bound']:.2f}  {v}")
        ra = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        rb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        flag = "  FAILED RATIO ROSE" if rb > ra else ""
        bad |= rb > ra
        print(f"   failed_ratio       base {ra:.6g}  new {rb:.6g}{flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
