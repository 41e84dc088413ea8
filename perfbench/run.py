#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build (CMake, Release) goes to .bench_build/perfbench at the root of the
checkout and is reused by later runs. The program's JIT caches and compiler
temporaries go to .bench_build/work; it removes them when it exits, except
the cache of the identity programs its checks compile. Build
output goes to stderr; the program's last stdout line is the result JSON.
Exits non-zero without a result when the sources or a build tool are
missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no polyast sources at " + ROOT, file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:], "--workdir", WORK]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
