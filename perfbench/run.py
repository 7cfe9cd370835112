#!/usr/bin/env python3
"""Run one workload of the NN-Baton benchmark.

    python3 perfbench/run.py --workload sweep|fabric \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # each in turn
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run builds the program's
library from src/ and the load generator from perfbench/src/ with CMake
into $CARGO_TARGET_DIR (default .bench_build); later runs reuse that
build.  The last line of stdout is the JSON result; before it come the
run's context (git sha, build type, nproc, seed, load averages) and one
line per metric with its unit and sample count.  See
perfbench/METRICS.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
WORKLOADS = ["sweep", "fabric"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets):
    """Configure once, then build @targets incrementally."""
    out = build_dir()
    log = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    with open(log, "a") as sink:
        for cmd in steps:
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(open(log).read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log)
    return out


def git_sha():
    """The commit, or a digest of the sources when not in a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources next to %s" % BENCH_DIR)

    if args.self_test:
        out = build(["perfbench_selftest"])
        # The tests' scratch files go to the build directory.
        env = dict(os.environ, TMPDIR=out)
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")],
                                env=env).returncode)
    if not args.workload:
        parser.error("--workload is required")

    out = build(["perfbench"])
    if args.workload == "all":
        for workload in WORKLOADS:
            print("== %s" % workload, flush=True)
            run_workload(out, workload, args)
    else:
        run_workload(out, args.workload, args)


def run_workload(out, workload, args):
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--pins", os.path.join(BENCH_DIR, "pins.txt"),
           "--git-sha", git_sha()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode or 1)

    result = json.loads(lines[-1])
    missing = declared_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: result metrics differ from BENCHMARK.json: %s"
                 % sorted(missing))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
