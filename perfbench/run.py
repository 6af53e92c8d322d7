#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload sim-fig5 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the repository's src/ layers) into
.bench_build/perfbench with CMake, then runs it. The program prints its
metrics, counts, checks and provenance as lines and one JSON object as the
last line of standard output; this script passes its exit code through
(0: every output check passed, 1: one failed, 2: bad arguments, a failed
build or an error). Everything it writes stays under .bench_build/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("sim-fig5", "sim-ba4096", "live-line3")
# One run measures for --seconds; set-up, drains, recovery and checks add a
# few seconds more. A run that takes this long has hung.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the program; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def source_sha256():
    """Digest of the sources the program is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt", default="",
                        help="falsify one output check's expectation (self-check only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", OUT_DIR,
               "--git-sha", git_sha(), "--source-sha256", source_sha256()]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
