#!/usr/bin/env python3
"""Build and run the perfbench benchmark binary.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark binary is compiled from this checkout's sources on first use,
into a subdirectory of CARGO_TARGET_DIR (default .bench_build) named after
the checkout's path.
With --trace 0 the run must report every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric. The last line of
standard output is the result JSON; the exit code is non-zero when a
correctness check fails, a metric is missing, or the build fails.

Extra flags for tests and investigation are passed to the binary as they
are: --reference-seed-offset K, --out-dir DIR.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    """The build tree of this checkout.

    It is a subdirectory of CARGO_TARGET_DIR (default .bench_build) named
    after the checkout's path, so checkouts that share one CARGO_TARGET_DIR
    never build into each other's tree, and a moved checkout is rebuilt
    from its own sources.
    """
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(path, "perfbench-" + key)


def build(target_dir):
    """Configures and builds the binary; returns its path or exits 1."""
    os.makedirs(target_dir, exist_ok=True)
    log_path = os.path.join(target_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(target_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", target_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", target_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                sys.exit(1)
    return os.path.join(target_dir, "perfbench")


def source_stamp():
    """The git commit when available, otherwise a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.stderr.write("perfbench: unknown workload %s\n" % args.workload)
        return 2
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    binary = build(build_dir())
    out_dir = os.path.relpath(os.path.join(build_dir(), "perfbench-out"), ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--expect", ",".join(m["name"] for m in metrics),
               "--commit", source_stamp(), "--out-dir", out_dir] + extra
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
