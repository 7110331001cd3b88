#!/usr/bin/env python3
"""Builds flexbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload nfs_small --seed 1 --seconds 10 --trace 0

Build trees go under $CARGO_TARGET_DIR, or .bench_build when it is unset:
the flexrpc libraries (built by the repository's own CMakeLists.txt) in
flexrpc/, this package in flexbench/. Build output goes to build.log
there. Every argument is passed to the benchmark, which prints its result
as the last line of stdout. Unless --detail is given, a detail report is
written to detail/<workload>-seed<seed>-trace<t>.json in the build
directory. Exits non-zero when the build fails, when an output check
fails, or when the run overstays its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
LIB_TARGETS = ["flexrpc_apps", "flexrpc_sim", "flexrpc_analysis"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the libraries and the benchmark; returns the binary's path."""
    out = build_dir()
    libs = os.path.join(out, "flexrpc")
    bench = os.path.join(out, "flexbench")
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("run.py: no flexrpc sources next to perfbench/\n")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(libs, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", libs,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", libs, "-j", jobs, "--target"] +
                 LIB_TARGETS)
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bench,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DFLEXRPC_BUILD_DIR=" + libs] + gen)
    steps.append(["cmake", "--build", bench, "-j", jobs])
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(bench, "flexbench")


def detail_path(args):
    def value(flag):
        return args[args.index(flag) + 1] if flag in args[:-1] else "x"
    name = "%s-seed%s-trace%s.json" % (value("--workload"), value("--seed"),
                                       value("--trace"))
    path = os.path.join(build_dir(), "detail", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def main(argv):
    exe = build()
    if exe is None:
        return 1
    args = list(argv)
    if "--detail" not in args:
        args += ["--detail", detail_path(args)]
    sys.stdout.flush()
    try:
        return subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: flexbench overstayed %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
