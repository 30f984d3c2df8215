#!/usr/bin/env python3
"""Build perfbench against src/ and run one workload.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. perfbench is configured with CMake into
.bench_build/ (or $CARGO_TARGET_DIR when set) on first use; later runs only
re-run the incremental build. Build output goes to stderr, so the last line
on stdout is the JSON result. Traced runs write their spans under
.bench_out/. The exit code is non-zero when a check failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn", "stacked", "near_oom")
# Each run must end within 180 s of its start once perfbench is built.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(cmd):
    """Runs cmd to its end, killing it after RUN_TIMEOUT_S; returns its code."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the self-test of perfbench's output checks")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return run([os.path.join(bdir, "perfbench_selftest")])
    return run([os.path.join(bdir, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", os.path.join(ROOT, ".bench_out")])


if __name__ == "__main__":
    sys.exit(main())
