#!/usr/bin/env python3
"""Build the benchmark program (snapbench) from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset. After each build the gate test runs once
(a stale-view backend must fail the correctness check, an unchanged one
must pass); a build whose gate test fails produces no result.

Prints snapbench's metric lines and, as the last line, its JSON result.
Exits non-zero, printing no result, when the build, the gate test or the
run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
GATE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure (once) and build; returns snapbench's path or None."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            return None
    cmd = ["cmake", "--build", bdir, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        return None
    exe = os.path.join(bdir, "snapbench")
    gate = os.path.join(bdir, "snapbench_gate_test")
    stamp = os.path.join(bdir, "gate_test.passed")
    if not os.path.exists(gate):
        log("gate test was not built (GoogleTest missing)")
        return None
    if not os.path.exists(stamp) or os.path.getmtime(stamp) < os.path.getmtime(gate):
        if subprocess.run([gate], stdout=sys.stderr, timeout=GATE_TIMEOUT_S).returncode:
            log("gate test failed")
            return None
        with open(stamp, "w") as f:
            f.write("ok\n")
    return exe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    if exe is None:
        log("build failed")
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(bdir, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"snapbench exited with code {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        log("snapbench printed no result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
