#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the root of a HoloClean checkout:

    python3 e2ebench/run.py --workload batch-feats --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures e2ebench/CMakeLists.txt (which pulls in the
repository's own CMake build for its library target) and builds the
benchmark program, Release, under $CARGO_TARGET_DIR, or .bench_build when
it is unset; later calls only rebuild what changed.
Build output goes to stderr; the benchmark's result is the last line of
stdout. Traces go to .bench_out/.
"""

import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; stop a stuck benchmark before that.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "e2ebench")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        # One build at a time when runs start together.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr, stderr=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                        "--target", "e2ebench"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    return binary


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "holoclean", "core",
                                       "session.h")):
        log(f"no HoloClean sources under {ROOT}/src; run from a checkout")
        return 1
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1
    args = [binary] + argv
    if "--selftest" not in argv:
        args += ["--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
