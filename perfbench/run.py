#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <hpcg|npb_is|imb_small|coldstart|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine and the benchmark harness are built
from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr, so the last line of
stdout is the harness's JSON result. Each run gets a fresh private cache
directory under the build directory, removed when the run ends.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def refuse_engine_overrides():
    # MPIWASM_* variables change the engine or the simulated MPI; both
    # commits of a comparison must measure the shipped defaults.
    set_vars = sorted(k for k in os.environ if k.startswith("MPIWASM_"))
    if set_vars:
        sys.exit("perfbench: refusing to run with %s set; the benchmark "
                 "measures the shipped defaults" % ", ".join(set_vars))


def run_child(cmd, **kwargs):
    """Runs cmd to completion; kills and reaps it if this process is
    interrupted or terminated."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_child(["cmake", "-S", HERE, "-B", build_dir],
                     stdout=sys.stderr) != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    if run_child(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs], stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    refuse_engine_overrides()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    os.makedirs(target, exist_ok=True)
    exe = build(os.path.join(target, "perfbench"))

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=target)
    try:
        sys.stdout.flush()
        rc = run_child([exe, "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--cache-dir", cache_dir])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
