#!/usr/bin/env python3
"""Builds the benchmark (CMake, Release) and runs one workload.

    python3 perfbench/run.py --workload dbpedia|linkbench|linkbench_paged \
        --seed N --seconds S --trace 0|1

The build tree is .bench_build/perfbench at the repository root; the first
run builds it (a few minutes), later runs only bring it up to date. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Every argument is passed to the perfbench binary unchanged (see
perfbench/src/main.cc); the binary writes WAL directories and trace files
under .bench_out/ and removes the WAL directories before it exits.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures and builds the perfbench target; returns success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
