#!/usr/bin/env python3
"""Checks that the benchmark's figures are steady enough for their bounds.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                [--save FILE] [--against FILE]

Runs every workload --runs times through perfbench/run.py, each run with
its own seed, alternating the order of the workloads from one round to the
next. For each end-to-end metric of each workload it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(third minus first quartile, over the median) next to the metric's bound
from BENCHMARK.json, and flags a spread above a third of the bound. It also
prints each workload's share of failed operations, which must be the same
in every run. --save writes the medians to FILE; --against reads the
medians of an earlier set from FILE and flags each metric whose median got
worse than that by more than its bound. Exits 1 if a run fails or is not
correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--against", help="compare with medians saved earlier")
    args = ap.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    workloads = args.workloads.split(",")
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    results = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + i
            r = run_once(w, seed, args.seconds, args.trace)
            results[w].append(r)
            share = r["failed"] / r["attempted"]
            print(f"run {i + 1} {w} seed {seed}: correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} ({share:.6f})",
                  flush=True)
            ok = ok and r["correct"]

    medians = {}
    for w in workloads:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"\n{w}: failed share {'same in every run' if len(shares) == 1 else 'VARIES'}"
              f" {shares}")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'vs earlier':>10}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            spread = (q3 - q1) / med if med else float("inf")
            medians.setdefault(w, {})[m["name"]] = med
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  above bound/3"
            change = ""
            before = earlier.get(w, {}).get(m["name"])
            if before:
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                change = f"{worse:+.4f}"
                if bound is not None and worse > bound:
                    flag += "  worse than earlier by more than the bound"
            print(f"  {m['name']:<34} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6} "
                  f"{change:>10}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
