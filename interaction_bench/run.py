#!/usr/bin/env python3
"""Builds and runs one interaction-benchmark run (see NOTES.md).

    python3 interaction_bench/run.py --workload navigate|drill|serve \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
tioga2 library and the benchmark program from source into
.bench_build/interaction_bench/; later runs rebuild only what changed. Build
output goes to stderr. The program's stdout is passed through unchanged; its
last line is the JSON result. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys


def build(source_dir, build_dir):
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["navigate", "drill", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    build_dir = os.path.join(root, ".bench_build", "interaction_bench")
    try:
        build(source_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    # Stop the benchmark program too if this wrapper is asked to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = subprocess.Popen(
        [os.path.join(build_dir, "interaction_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=root)
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()


if __name__ == "__main__":
    sys.exit(main())
