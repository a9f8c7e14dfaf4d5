#!/usr/bin/env python3
"""Builds the end-to-end daemon benchmark from source and runs it once.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build (CMake, Release) goes to
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
the run writes its sockets and trace files under .bench_out/.  Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The exit code is the benchmark's, or non-zero when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its path."""
    cmake = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmake += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (cmake, ["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(os.path.join(target, "perfbench")))
    done = subprocess.run([binary] + sys.argv[1:] + [
        "--out", ".bench_out",
        "--manifest", os.path.join(HERE, "workloads.json")])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
