#!/usr/bin/env python3
"""Breakdown test: a short traced run of every workload.

    python3 perfbench/breakdown_test.py [--seconds 4] [--seed 5]

For each workload this runs `perfbench/run.py --trace 1`, which fails on its
own if the binary's breakdown check fails, and then re-checks the span dump
the run wrote, independently of the binary:

  * begin + sum(attempts) + sum(retry gaps) + commit tail equals the
    transaction's wall latency within 1%, and the parts tile it in order;
  * every child span lies inside its parent;
  * children of a sequential span do not overlap, and its self time
    (duration minus its children's) is not negative;
  * a parallel batch lasts at least as long as its slowest branch (it
    counts by its critical path).

Exits non-zero on the first workload that fails.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["catalogue_cert", "queue_longmethod_n2pl",
             "transfer_durable_sharded"]
TOP_PARTS = {"begin", "attempt", "retry_gap", "commit_tail"}


def check_spans(path):
    """Returns (transactions checked, list of problems)."""
    by_txn = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            by_txn[s["txn"]].append(s)
    problems = []
    checked = 0
    for txn, spans in by_txn.items():
        root = [s for s in spans if s["name"] == "txn"]
        if not root:
            continue  # cut off by the dump limit
        root = root[0]
        checked += 1
        kids = collections.defaultdict(list)
        for s in spans:
            if s is not root:
                kids[s["parent"]].append(s)
        dur = lambda s: s["end_ns"] - s["start_ns"]
        wall = dur(root)
        parts = sorted(kids[root["id"]], key=lambda s: s["start_ns"])
        if any(p["name"] not in TOP_PARTS for p in parts):
            problems.append(f"txn {txn}: unexpected top-level span")
        cursor = root["start_ns"]
        for p in parts:
            if p["start_ns"] != cursor:
                problems.append(f"txn {txn}: parts do not tile")
            cursor = p["end_ns"]
        if cursor != root["end_ns"]:
            problems.append(f"txn {txn}: parts end early")
        total = sum(dur(p) for p in parts)
        if wall > 0 and abs(total - wall) > 0.01 * wall:
            problems.append(f"txn {txn}: parts {total} ns vs wall {wall} ns")
        for s in spans:
            children = sorted(kids[s["id"]], key=lambda c: c["start_ns"])
            for c in children:
                if c["start_ns"] < s["start_ns"] or c["end_ns"] > s["end_ns"]:
                    problems.append(f"txn {txn}: {c['name']} outside "
                                    f"{s['name']}")
            if s["name"] == "batch":
                if children and dur(s) < max(dur(c) for c in children):
                    problems.append(f"txn {txn}: batch shorter than a branch")
            elif s is not root:
                for a, b in zip(children, children[1:]):
                    if b["start_ns"] < a["end_ns"]:
                        problems.append(f"txn {txn}: children of {s['name']} "
                                        "overlap")
                if dur(s) - sum(dur(c) for c in children) < 0:
                    problems.append(f"txn {txn}: negative self time in "
                                    f"{s['name']}")
    return checked, problems


def main():
    ap = argparse.ArgumentParser(description="perfbench breakdown test")
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    failed = False
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "1"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        checked, problems = check_spans(
            os.path.join(target, f"perfbench-spans-{w}.jsonl"))
        ok = ok and checked > 0 and not problems
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {w}: exit {proc.returncode}, "
              f"{checked} traced transactions re-checked, "
              f"{len(problems)} problems")
        for p in problems[:10]:
            print(f"    {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
