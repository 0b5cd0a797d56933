#!/usr/bin/env python3
"""Build and run the PLWG benchmark.

Run from the root of a checkout; the library under ./src is the one
measured:

    python3 perfbench/run.py --workload fig2-dynamic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The first call configures and builds this directory's CMake project (the
library sources under ./src plus plwg_perfbench) as a Release build in
$CARGO_TARGET_DIR/perfbench-<key>, default .bench_build/perfbench-<key>.
The key hashes the checkout's path and this directory's path, so two
checkouts never share a build tree even when $CARGO_TARGET_DIR is an
absolute path; a tree configured for another checkout is wiped and
configured again. Later calls only rebuild what changed.

With one workload the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; the exit code is
plwg_perfbench's (0 = outputs correct). With --workload all every workload
runs in turn and the exit code is non-zero if any failed. Build output goes to
stderr. Details files and Chrome traces land in <build dir>/out/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ["fig2-dynamic", "wan1000", "heal-cycles"]
RUN_TIMEOUT_S = 175


def cached(build_dir, key):
    """The value of `key` in the build tree's CMakeCache.txt, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                name, _, value = line.rstrip("\n").partition("=")
                if name.split(":")[0] == key:
                    return value
    except OSError:
        pass
    return None


def build(root, src, build_dir):
    jobs = str(os.cpu_count() or 1)
    if (cached(build_dir, "PLWG_ROOT") != root
            or cached(build_dir, "CMAKE_HOME_DIRECTORY") != src
            or not os.path.exists(os.path.join(build_dir, "Makefile"))):
        # Configured for another checkout, or not at all: start afresh, so
        # the library measured is always this checkout's.
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(
            ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
             f"-DPLWG_ROOT={root}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "plwg_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "plwg_perfbench")


def run_one(binary, out_dir, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    root = os.path.realpath(os.getcwd())
    src = os.path.dirname(os.path.realpath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha1(f"{root}\0{src}".encode()).hexdigest()[:12]
    build_dir = os.path.join(root, target, f"perfbench-{key}")
    try:
        binary = build(root, src, build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        code, _ = run_one(binary, out_dir, args, args.workload)
        return code
    worst = 0
    for w in WORKLOADS:
        print(f"=== {w}", flush=True)
        code, _ = run_one(binary, out_dir, args, w)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
