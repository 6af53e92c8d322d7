#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload (sim-ba4096 too, which BENCHMARK.json does not list)
for one second, untraced and traced, and asserts that
  - the last line is the JSON result, correct, with every metric that
    BENCHMARK.json lists (end_to_end untraced, per_layer traced) and its unit;
  - every end-to-end metric the workload is specified to print appears as a
    "metric <name> <value> <unit>" line;
  - each output check fails, and the run exits non-zero, when its expected
    value is corrupted with --corrupt;
  - in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Takes about a minute on a 4-core machine once built. Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SECONDS = "1"

# Workload -> the end-to-end metrics it prints as "metric" lines.
PRINTED = {
    "sim-fig5": ["setup_s", "peak_rss_mb", "failed_frac", "sim_events_per_s", "trial_ms_p50",
                 "trial_ms_tail"],
    "sim-ba4096": ["setup_s", "peak_rss_mb", "failed_frac", "sim_events_per_s", "trial_ms_p50",
                   "trial_ms_tail"],
    "live-line3": ["setup_s", "peak_rss_mb", "failed_frac", "visibility_ms_p50",
                   "visibility_ms_p99", "max_writes_per_s", "read_us_p99", "recovery_ms"],
}
CHECKS = {
    "sim-fig5": ["sim-converged", "sim-fast-beats-weak"],
    "sim-ba4096": ["sim-converged", "sim-fast-beats-weak"],
    "live-line3": ["live-readback", "live-kv-digest", "live-no-codec-errors",
                   "live-recovered-from-disk"],
}
# Checks that exist only in the traced run.
TRACE_CHECKS = {"sim-fig5": ["trace-matches-untraced"], "sim-ba4096": ["trace-matches-untraced"],
                "live-line3": []}

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, corrupt="", root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", trace]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main():
    # sim-ba4096 is checked too, though BENCHMARK.json does not list it.
    for name in PRINTED:
        for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            code, lines = run(name, trace)
            res = result(lines)
            expect(code == 0 and res is not None and res["correct"],
                   "%s trace=%s exits 0 with a correct result" % (name, trace))
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   "%s trace=%s result has exactly its four keys" % (name, trace))
            units = {m: v["unit"] for m, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            expect(units == want, "%s trace=%s reports every listed metric with its unit"
                   % (name, trace))
            if trace == "0":
                printed = {l.split()[1]: l.split()[3] for l in lines
                           if l.startswith("metric ") and len(l.split()) >= 4}
                for metric in PRINTED[name]:
                    expect(metric in printed and printed[metric],
                           "%s prints %s with a unit" % (name, metric))
                expect(any(l.startswith("provenance git_sha") for l in lines),
                       "%s prints provenance" % name)
        for check in CHECKS[name] + TRACE_CHECKS[name]:
            trace = "1" if check in TRACE_CHECKS[name] else "0"
            code, lines = run(name, trace, corrupt=check)
            res = result(lines)
            expect(code == 1 and res is not None and not res["correct"] and
                   any(l.startswith("check %s FAILED" % check) for l in lines),
                   "%s: check %s fails on a corrupted expectation" % (name, check))

    # Only BENCHMARK.json and perfbench/: no sources to build, so no result.
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("sim-fig5", "0", root=bare)
    expect(code != 0 and result(lines) is None,
           "without the sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
