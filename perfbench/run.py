#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

The harness is the Go module in perfbench/ (sources in perfbench/harness),
built against the hetmpc sources one directory up. Everything the build and
the run write goes under .bench_build/ at the repository root: the Go build
cache, temporary files (the traced run's CPU profiles among them), the
binary and the exact-counter records of earlier runs.
The last line of standard output is the result object; see
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1", "sublinear-scale", "sketch-conn", "skew-faults"]

BUILD_TIMEOUT_S = 840  # a cold build compiles the standard library too
RUN_SLACK_S = 150  # beyond --seconds: warm-up, set-up, checks and probes


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def go_env(build):
    env = dict(os.environ)
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
        # The in-process transport only; at most as many Ps as CPUs, and at
        # most two, so hosts of different sizes run the same schedule.
        GOMAXPROCS=str(min(2, nproc())),
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("go.mod", "hetmpc.go"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"run.py: {need} not found at {ROOT}: run from a hetmpc checkout", file=sys.stderr)
            return 2

    build = os.path.join(ROOT, ".bench_build")
    env = go_env(build)
    binary = os.path.join(build, "perfbench", "harness")
    subprocess.run(
        ["go", "build", "-o", binary, "./harness"],
        cwd=HERE, env=env, check=True, timeout=BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-root", ROOT,
        "-state", os.path.join(build, "perfbench", "counters"),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=args.seconds + RUN_SLACK_S).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e}", file=sys.stderr)
        sys.exit(1)
