#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalogue_nto --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
WAL logs and the span dump of a traced run go beside it.  Build output is
kept off stdout, whose last line is the benchmark's JSON result.  Exits
non-zero, printing no result, when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary's path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(3)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    """The checkout's commit, or 'none' when it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True)
        return proc.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def src_digest():
    """SHA-256 over the sources that make up the measured program."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(os.path.join(target, "perfbench"))
    log_dir = os.path.join(target, "perfbench-logs")
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--log-dir", log_dir,
           "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(target, f"perfbench-spans-{args.workload}.jsonl")]
    # The binary's stdout passes straight through; it ends with the result.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
