#!/usr/bin/env python3
"""Build the simulator in an optimised configuration and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload eridani-campaign --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench and is incremental, so only the first
run in a checkout pays for it. Build output goes to standard error; the last
line of standard output is the workload's JSON result. A traced run (--trace 1)
also writes its spans to .bench_build/perfbench/spans-<workload>.jsonl.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found beside perfbench/; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found on PATH")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        command = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        # The traced run keeps its spans in memory and writes them here at the end.
        workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "none"
        spans = os.path.join(BUILD, "spans-" + os.path.basename(workload) + ".jsonl")
        command = [os.path.join(BUILD, "perfbench")] + args + ["--spans-out", spans]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
