#!/usr/bin/env python3
"""Collects benchmark result sets and compares two of them.

    # Run every workload 10 times (seeds 1..10) plus one traced run each,
    # writing one result line per run into results/parent/<workload>.jsonl
    # and results/parent/<workload>.traced.jsonl:
    python3 e2ebench/compare.py collect results/parent --runs 10

    # Compare a newer result set against an older one:
    python3 e2ebench/compare.py diff results/parent results/change

For a fair comparison collect both sets with identical benchmark code and
settings, alternating the two commits run by run where possible; run i of
each set is paired with run i of the other.

`diff` prints, per workload and end-to-end metric, each side's median and
quartiles, the share of run pairs the newer set won (ties count for
neither), and a verdict against the metric's bound in BENCHMARK.json:
`worse` when the newer median is worse by more than the bound,
`unresolved` when the older set's own spread (interquartile range over
median) is wider than the bound and the runs overlap, `better` when the
newer set wins at least 9 pairs in 10 and its median beats the older one
by more than that spread, and `same` otherwise. It also prints the share
of failed operations on each side, the per-layer medians of the traced
runs with their relative change, and the tracing overhead (traced
trace.round_s over untraced round_s).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return lines[-1]


def collect(args):
    spec = load_spec()
    os.makedirs(args.out, exist_ok=True)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for name in names:
        for trace, runs, suffix in ((0, args.runs, ".jsonl"),
                                    (1, args.trace_runs, ".traced.jsonl")):
            path = os.path.join(args.out, name + suffix)
            with open(path, "a") as out:
                for i in range(runs):
                    seed = args.first_seed + i
                    line = run_once(spec, name, seed, trace)
                    out.write(line + "\n")
                    out.flush()
                    print(f"{name} trace={trace} seed={seed}: {line[:160]}",
                          file=sys.stderr, flush=True)


def read_set(directory, name, suffix):
    path = os.path.join(directory, name + suffix)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (0.0, 0.0, 0.0)
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med if med else 0.0


def verdict(old, new, better, bound):
    """Verdict of the newer runs against the older ones."""
    sign = 1.0 if better == "higher" else -1.0
    med_old = statistics.median(old)
    med_new = statistics.median(new)
    gain = sign * (med_new - med_old) / med_old if med_old else 0.0
    pairs = list(zip(old, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    share = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (b - a) > 0 for a in old for b in new)
    own = spread(old)
    if gain < -bound:
        word = "worse"
    elif all_better:
        word = "better"
    elif own > bound:
        word = "unresolved"
    elif share >= 0.9 and gain > own:
        word = "better"
    else:
        word = "same"
    return word, gain, share


def fmt(x):
    return f"{x:.4g}"


def diff(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        name = w["name"]
        old = read_set(args.old, name, ".jsonl")
        new = read_set(args.new, name, ".jsonl")
        print(f"\n== {name}: {len(old)} older runs, {len(new)} newer runs")
        if not old or not new:
            print("   (missing results)")
            continue
        for label, rs in (("older", old), ("newer", new)):
            att = sum(r["attempted"] for r in rs)
            fail = sum(r["failed"] for r in rs)
            ok = all(r["correct"] for r in rs)
            print(f"   {label}: failed {fail}/{att} operations, "
                  f"all correct: {ok}")
        print(f"   {'metric':16s} {'older q1/med/q3':>30s} "
              f"{'newer q1/med/q3':>30s} {'change':>8s} {'won':>5s} verdict")
        for metric, m in bounds.items():
            a = values(old, metric)
            b = values(new, metric)
            if not a or not b:
                continue
            word, gain, share = verdict(a, b, m["better"], m["bound"])
            qa = "/".join(fmt(x) for x in quartiles(a))
            qb = "/".join(fmt(x) for x in quartiles(b))
            print(f"   {metric:16s} {qa:>30s} {qb:>30s} {gain:+8.1%} "
                  f"{share:5.0%} {word} (bound {m['bound']:.0%}, "
                  f"older spread {spread(a):.1%})")
        told = read_set(args.old, name, ".traced.jsonl")
        tnew = read_set(args.new, name, ".traced.jsonl")
        if not told or not tnew:
            continue
        print(f"   per-layer medians ({len(told)} vs {len(tnew)} traced runs):")
        for m in spec["per_layer"]:
            a = values(told, m["name"])
            b = values(tnew, m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            print(f"     {m['name']:30s} {fmt(ma):>12s} -> {fmt(mb):>12s} "
                  f"{m['unit']:>12s} {change:+8.1%}")
        for label, traced, plain in (("older", told, old), ("newer", tnew, new)):
            t = values(traced, "trace.round_s")
            u = values(plain, "round_s")
            if t and u:
                over = statistics.median(t) / statistics.median(u) - 1.0
                print(f"   tracing overhead ({label}): {over:+.1%} "
                      f"(traced round_s {fmt(statistics.median(t))} vs "
                      f"{fmt(statistics.median(u))})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a result set")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--trace-runs", type=int, default=1)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads", nargs="*")
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
    else:
        diff(args)


if __name__ == "__main__":
    main()
