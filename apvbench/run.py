#!/usr/bin/env python3
"""Build and run the apv benchmark.

    python3 apvbench/run.py --workload stencil --seed 1 --seconds 30 --trace 0
    python3 apvbench/run.py --all            # every workload, one after another
    python3 apvbench/run.py --test           # the benchmark's own tests

Run from the root of a checkout. The first call configures and builds the
runtime libraries from src/ together with the benchmark (CMake, Release)
under $CARGO_TARGET_DIR (default .bench_build). The last line of standard
output is the result of the run as one JSON object.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("stencil", "chatter", "mobility")
CHILD_TIMEOUT_S = 170
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(msg, code=2):
    print(f"apvbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "apvbench"


def bench_env():
    # Compiler and runtime temporary files stay inside the build tree. The
    # runtime falls back to APV_* environment variables for options a caller
    # leaves unset; the benchmark pins every option, and drops these too so
    # an exported CI setting cannot leak into a measurement.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("APV_")}
    env["TMPDIR"] = str(tmp)
    return env


def build(targets):
    if not (ROOT / "src" / "mpi" / "runtime.hpp").is_file():
        fail(f"runtime sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=bench_env()).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return out


def run_child(cmd):
    """Runs cmd in its own process group; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=bench_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}", 1)
    return proc.returncode, out.splitlines()


def run_workload(binary, args, workload):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(build_dir() / "results")]
    code, lines = run_child(cmd)
    for line in lines:
        print(line)
    if code != 0:
        return code
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("apvbench: malformed result line", file=sys.stderr)
        return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = p.parse_args()

    if args.test:
        out = build(["apvbench_tests"])
        code, lines = run_child([str(out / "apvbench_tests")])
        print("\n".join(lines))
        return code
    if not args.all and args.workload is None:
        p.error("--workload is required (or --all / --test)")
    binary = build(["apvbench"]) / "apvbench"
    if not args.all:
        return run_workload(binary, args, args.workload)
    worst = 0
    for w in WORKLOADS:
        print(f"== {w}", flush=True)
        worst = max(worst, run_workload(binary, args, w))
    return worst


if __name__ == "__main__":
    sys.exit(main())
