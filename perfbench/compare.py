#!/usr/bin/env python3
"""Spread and paired-comparison tooling for the repository benchmark.

Spread of one checkout (run-to-run noise, per metric, against its bound):

    python3 perfbench/compare.py spread --workload grid3d --runs 10

Paired compare of two checkouts (parent and change), alternating which
side runs first, the same seed on both sides of a pair:

    python3 perfbench/compare.py paired --base ../parent --change . \\
        --workload grid3d --pairs 10

For every end-to-end metric `paired` prints each side's median and
quartiles, the change's win fraction (ties count for neither side) and a
verdict: "gain" when the change wins >= 90% of pairs and the medians differ
by more than the base's quartile distance, "regression" when the change's
median is worse than the base's by more than the metric's bound,
"unresolved" when a side's spread is wider than the bound, else "same".
Each side is built and run by its own perfbench/run.py, for BENCHMARK.json's
run_seconds (the base's, in `paired`), on seeds 1, 2, ...
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 1


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        tail = "\n".join(p.stderr.strip().splitlines()[-15:])
        raise SystemExit("run failed in %s: %s seed %d (exit %d)\n%s"
                         % (root, workload, seed, p.returncode, tail))
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def cmd_spread(args):
    spec = load_spec(ROOT)
    samples = {}
    for i in range(args.runs):
        seed = FIRST_SEED + i
        for k, v in run_once(ROOT, args.workload, seed, spec["run_seconds"]).items():
            samples.setdefault(k, []).append(v)
        print("run %d/%d (seed %d) done" % (i + 1, args.runs, seed), file=sys.stderr)
    print("%-30s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    worst = 0.0
    for m in spec["end_to_end"]:
        v = samples[m["name"]]
        q1, med, q3 = quartiles(v)
        s = spread(v)
        flag = "" if m["name"] == "setup_s" or s <= m["bound"] / 3 else \
            (" > bound/3" if s <= m["bound"] else " > BOUND")
        if m["name"] != "setup_s":
            worst = max(worst, s / m["bound"])
        print("%-30s %12.6g %12.6g %12.6g %8.4f %6.3g%s"
              % (m["name"], q1, med, q3, s, m["bound"], flag))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


def cmd_paired(args):
    base, change = os.path.abspath(args.base), os.path.abspath(args.change)
    spec = load_spec(base)
    sides = {"base": {}, "change": {}}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = [("base", base), ("change", change)]
        if i % 2:
            order.reverse()
        for name, root in order:
            for k, v in run_once(root, args.workload, seed, spec["run_seconds"]).items():
                sides[name].setdefault(k, []).append(v)
        print("pair %d/%d (seed %d) done" % (i + 1, args.pairs, seed), file=sys.stderr)
    print("workload %s, %d pairs" % (args.workload, args.pairs))
    print("%-28s %-26s %-26s %5s  %s" % ("metric", "base q1/med/q3", "change q1/med/q3",
                                         "wins", "verdict"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        higher = m["better"] == "higher"
        b, c = sides["base"][name], sides["change"][name]
        wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
        bq, cq = quartiles(b), quartiles(c)
        worse = (bq[1] - cq[1]) / bq[1] if higher else (cq[1] - bq[1]) / bq[1]
        if spread(b) > bound or spread(c) > bound:
            verdict = "unresolved"
        elif wins >= 0.9 * len(b) and abs(cq[1] - bq[1]) > bq[2] - bq[0]:
            verdict = "gain"
        elif worse > bound:
            verdict = "regression"
        else:
            verdict = "same"
        fmt = lambda q: "%.4g/%.4g/%.4g" % q
        print("%-28s %-26s %-26s %2d/%-2d  %s"
              % (name, fmt(bq), fmt(cq), wins, len(b), verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=10)
    p = sub.add_parser("paired")
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.cmd == "paired" and args.pairs < 10:
        print("note: the gain rule wants at least 10 pairs", file=sys.stderr)
    (cmd_spread if args.cmd == "spread" else cmd_paired)(args)


if __name__ == "__main__":
    main()
