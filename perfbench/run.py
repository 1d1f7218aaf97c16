#!/usr/bin/env python3
"""Runs one workload of the clog benchmark and prints its result as JSON.

    python3 perfbench/run.py --workload local_commit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (the clog library plus the clogbench program) on first use
into $CARGO_TARGET_DIR, or .bench_build at the root of the checkout, then
generates the workload's inputs from --seed, hands them to clogbench and
prints clogbench's verdict as the last line of standard output:

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Everything the run writes (build tree, inputs, the cluster's files) stays
under the build directory. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import string
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# shared_pages is not in BENCHMARK.json: it loses a varying number of
# increments to fault F1 (perfbench/README.md), and perfbench/repro.py runs
# it to show that.
WORKLOADS = ("local_commit", "shared_pages", "restart")
PAGES_PER_NODE = 64
RECORDS_PER_PAGE = 8
PICKS_PER_TXN = 4
STREAM_TXNS = 4096      # Per session; clogbench cycles through the stream.
WARMUP_TXNS = 100       # Per session, committed before timing starts.
REMOTE_SHARE = 0.3      # shared_pages, restart: picks on another node's pages.
HOT_PAGES = PAGES_PER_NODE // 5  # 80/20 skew: 80% of picks hit these 12 pages.
CYCLE_TXNS = 30         # Session 0's transactions before each restart.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench/ into the build directory."""
    out = build_dir()
    binary = os.path.join(out, "clogbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target", "clogbench"],
                   check=True, stdout=sys.stderr)
    return binary


def pad(rng):
    return "".join(rng.choice(string.ascii_letters + string.digits)
                   for _ in range(44))


def pick_page(rng):
    if rng.random() < 0.8:
        return rng.randrange(HOT_PAGES)
    return rng.randrange(HOT_PAGES, PAGES_PER_NODE)


def shared_pick(rng, home, nodes):
    """A record for a transaction on `home`: any other node's 30% of the time."""
    node = home
    if rng.random() < REMOTE_SHARE:
        node = rng.choice([n for n in range(nodes) if n != home])
    return (node, pick_page(rng), rng.randrange(RECORDS_PER_PAGE))


def make_inputs(workload, seed):
    """The whole input of one run, as the lines clogbench reads."""
    rng = random.Random(f"{workload}:{seed}")
    nodes = 2 if workload == "local_commit" else 3
    lines = [f"workload {workload}",
             f"shape {nodes} {PAGES_PER_NODE} {RECORDS_PER_PAGE}",
             f"warmup_txns {WARMUP_TXNS}",
             f"cycle_txns {CYCLE_TXNS}",
             f"init_pad {pad(rng)}"]
    for n in range(nodes):
        for p in range(PAGES_PER_NODE):
            for s in range(RECORDS_PER_PAGE):
                lines.append(f"init {n} {p} {s} {rng.randrange(10**6)}")

    def txn_line(session, node, picks):
        flat = " ".join(f"{n} {p} {s}" for n, p, s in picks)
        return f"t {session} {node} {flat}"

    if workload == "local_commit":
        # 2 sessions per node; a node's sessions own alternate slots, so
        # the records they write are disjoint.
        for session in range(2 * nodes):
            lines.append(f"session {session} {pad(rng)}")
        for session in range(2 * nodes):
            node, parity = session // 2, session % 2
            for _ in range(STREAM_TXNS):
                picks = [(node, rng.randrange(PAGES_PER_NODE),
                          2 * rng.randrange(RECORDS_PER_PAGE // 2) + parity)
                         for _ in range(PICKS_PER_TXN)]
                lines.append(txn_line(session, node, picks))
    elif workload == "shared_pages":
        for session in range(nodes):
            lines.append(f"session {session} {pad(rng)}")
        for session in range(nodes):
            for _ in range(STREAM_TXNS):
                picks = [shared_pick(rng, session, nodes)
                         for _ in range(PICKS_PER_TXN)]
                lines.append(txn_line(session, session, picks))
    else:
        lines.append(f"session 0 {pad(rng)}")
        for i in range(STREAM_TXNS):
            node = i % nodes
            picks = [shared_pick(rng, node, nodes)
                     for _ in range(PICKS_PER_TXN)]
            lines.append(txn_line(0, node, picks))
    return "\n".join(lines) + "\n"


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected keys in {line}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a count")
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    want = metric_names(trace)
    if sorted(result["metrics"]) != sorted(want):
        raise ValueError(f"metrics {sorted(result['metrics'])} != {sorted(want)}")
    return result


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the self-tests of the benchmark's checks")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seconds <= 0):
        ap.error("--workload, --seed and a positive --seconds are required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    work = build_dir()
    inputs = os.path.join(work, "inputs", f"{args.workload}-{args.seed}.txt")
    os.makedirs(os.path.dirname(inputs), exist_ok=True)
    with open(inputs, "w") as f:
        f.write(make_inputs(args.workload, args.seed))
    data = os.path.join(work, "data", args.workload)
    cmd = [binary, "--workload", args.workload, "--inputs", inputs,
           "--dir", data, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        # On a timeout subprocess.run kills clogbench and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"clogbench ran over {RUN_TIMEOUT_S} s")
        return 1
    finally:
        os.remove(inputs)
    if proc.returncode != 0:
        log(f"clogbench exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("clogbench printed no result")
        return 1
    try:
        result = check_result(lines[-1], args.trace)
    except ValueError as e:
        log(f"bad result: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
