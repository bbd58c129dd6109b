#!/usr/bin/env python3
"""StrandWeaver end-to-end benchmark: build, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload timing_fig7 --seed 1 \
        --seconds 25 --trace 0

The first run configures and builds the simulator and the benchmark
binary from source under .bench_build/ (an optimised RelWithDebInfo
build); later runs rebuild incrementally. The binary's standard output
is passed through; its last line is the JSON result. Details of each
run (pass times, misses, spans) go to .bench_build/results/.

    python3 perfbench/run.py --record-reference 0-40,7777

re-records perfbench/reference_digests.txt for the given seeds. Do that
only in a change that alters simulated results on purpose.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.txt")
WORKLOADS = ("timing_fig7", "crash_forked", "fuzz_trials")


def scratch_env():
    """The environment with temporary files kept inside .bench_build."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then build the binary; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=scratch_env()).returncode != 0:
            return False
    return True


def commit_id():
    """The git commit, or a hash of the sources when not in git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_binary(workload, seed, seconds, trace, capture=False):
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", REFERENCE, "--out-dir", RESULTS,
           "--commit", commit_id()]
    return subprocess.run(cmd, cwd=ROOT, text=True, env=scratch_env(),
                          stdout=subprocess.PIPE if capture else None)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record_reference(seeds):
    lines = ["# workload seed digest: FNV-1a of the sweep's .cells JSON",
             "# (python3 perfbench/run.py --record-reference <seeds>)"]
    for workload in WORKLOADS:
        for seed in seeds:
            out = run_binary(workload, seed, 0.001, 0, capture=True)
            match = re.search(r"^digest ([0-9a-f]{16})", out.stdout, re.M)
            if out.returncode != 0 or not match:
                sys.stderr.write("no digest for %s seed %d\n"
                                 % (workload, seed))
                return 1
            if '"correct": true' not in out.stdout.splitlines()[-1]:
                sys.stderr.write("%s seed %d fails its checks\n"
                                 % (workload, seed))
                return 1
            lines.append("%s %d %s" % (workload, seed, match.group(1)))
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="SEEDS")
    args = parser.parse_args()
    if not args.workload and not args.record_reference:
        parser.error("--workload or --record-reference is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1
    if args.record_reference:
        return record_reference(parse_seeds(args.record_reference))
    return run_binary(args.workload, args.seed, args.seconds,
                      args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
