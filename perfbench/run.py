#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds the harness in release mode
into $CARGO_TARGET_DIR (default: .bench_build), runs the one workload in a
process of its own, and passes that process's output and exit code
through. The last line of standard output is the JSON result; the exit
code is 0 only if every correctness check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["peak64", "avg1024", "fib1m-churn", "clos64"]
DEFAULT_SEED = 1


def command_output(cmd):
    """Standard output of `cmd`, stripped, or None if it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_revision():
    """HEAD of the repository this file belongs to, if it is a git checkout."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    rev = command_output(["git", "rev-parse", "HEAD"]) or "unknown"
    dirty = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
    return rev + ("-dirty" if dirty else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the harness did not build", file=sys.stderr)
        return 2

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_GIT_REV"] = git_revision()
    sys.stdout.flush()
    bench = subprocess.run(
        [os.path.join(target, "release", "perfbench"),
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--out-dir", os.path.join(HERE, "out")],
        cwd=ROOT, env=env,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
