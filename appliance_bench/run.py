#!/usr/bin/env python3
"""Builds the appliance benchmark from this checkout and runs one workload.

Run from the root of the repository:

    python3 appliance_bench/run.py --workload local_read --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout; the appliance's data directory and the traced run's span log
(traces/<workload>-seed<N>.jsonl) go there too. Every argument is passed on
to the benchmark binary, whose last line of output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg_value(args, name, default):
    if name in args:
        index = args.index(name)
        if index + 1 < len(args):
            return args[index + 1]
    return default


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("appliance_bench: no appliance sources at %s/src"
                 % os.path.relpath(ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "appliance_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "appliance_bench")


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("appliance_bench: build failed: %s" % error)

    workload = arg_value(args, "--workload", "unknown")
    seed = arg_value(args, "--seed", "0")
    data_dir = os.path.join(build_dir, "data-%s-%d" % (workload, os.getpid()))
    command = [binary] + args + ["--data-dir", data_dir]
    if arg_value(args, "--trace", "0") != "0":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
