#!/usr/bin/env python3
"""Reproduces the two engine faults the benchmark's workloads leave out.

    python3 perfbench/repro.py f1 [--seed N] [--seconds S]
    python3 perfbench/repro.py f2 [--seed N] [--seconds S]

f1  Lost updates on real threads. The shared_pages workload: three nodes'
    sessions concurrently read-increment counters, 30% of them on pages
    another node owns. The counter audit then finds increments missing.
f2  Instant restore on real threads. The restart workload (cross-node
    traffic, a data-device loss every other cycle) with instant restore
    turned on. The cycle after a device loss fails: "bad page magic",
    fenced pages, or the process dies (double free, segfault).

Prints clogbench's diagnostics and a one-line verdict; exits 0 when the
fault showed, 1 when it did not.
"""

import argparse
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("fault", choices=("f1", "f2"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()

    binary = run.build()
    workload = "shared_pages" if args.fault == "f1" else "restart"
    work = run.build_dir()
    inputs = os.path.join(work, "inputs", f"repro-{args.fault}-{args.seed}.txt")
    os.makedirs(os.path.dirname(inputs), exist_ok=True)
    with open(inputs, "w") as f:
        f.write(run.make_inputs(workload, args.seed))
    cmd = [binary, "--workload", workload, "--inputs", inputs,
           "--dir", os.path.join(work, "data", "repro-" + args.fault),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.fault == "f2":
        cmd.append("--instant-restore")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=run.RUN_TIMEOUT_S)
    finally:
        os.remove(inputs)
    sys.stderr.write(proc.stderr)

    missing = re.search(r"(\d+) increments missing", proc.stderr)
    failed = re.search(r'"failed": (\d+)', proc.stdout)
    if proc.returncode < 0:
        print(f"{args.fault} reproduced: clogbench died of signal {-proc.returncode}")
        return 0
    if args.fault == "f1" and missing and int(missing.group(1)) > 0:
        print(f"f1 reproduced: {missing.group(1)} increments missing")
        return 0
    if proc.returncode != 0 or (failed and int(failed.group(1)) > 0):
        print(f"{args.fault} reproduced: exit {proc.returncode}, "
              f"{failed.group(1) if failed else '?'} failed operations")
        return 0
    print(f"{args.fault} not reproduced in this run")
    return 1


if __name__ == "__main__":
    sys.exit(main())
