#!/usr/bin/env python3
"""Builds tfr_perf from the checkout it sits in and runs one workload.

    python3 bench/perf/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1]

The first run configures and builds the repository's libraries and then
the bench/perf project under $CARGO_TARGET_DIR (default .bench_build) in
the checkout; later runs only check that both are up to date.  --trace 1
makes the run the traced one: per-layer metrics, with the Chrome trace and
layers.json written to <build dir>/trace.  Every run also writes its
result record to <build dir>/results.  The last line of standard output is
tfr_perf's JSON result; the exit status is tfr_perf's.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The libraries tfr_perf links; their dependencies build with them.
LIBRARY_TARGETS = ["tfr_service", "tfr_mcheck", "tfr_mutex", "tfr_spec"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the root libraries, then tfr_perf."""
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    tfr_dir = os.path.join(build_dir, "tfr")
    perf_dir = os.path.join(build_dir, "perf")
    steps = []
    if not os.path.exists(os.path.join(tfr_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", tfr_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", tfr_dir, "-j", jobs, "--target",
                  *LIBRARY_TARGETS])
    if not os.path.exists(os.path.join(perf_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", perf_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DTFR_BUILD_DIR={tfr_dir}"])
    steps.append(["cmake", "--build", perf_dir, "-j", jobs])

    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S).returncode
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(perf_dir, "tfr_perf")


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} holds no tfr sources to build")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--out", os.path.join(build_dir, "results"),
               "--commit", commit_id()]
    if args.trace:
        command += ["--trace-dir", os.path.join(build_dir, "trace")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode)


if __name__ == "__main__":
    main()
