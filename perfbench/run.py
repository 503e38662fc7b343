#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the GraphRARE module libraries and the benchmark binary from this
checkout (into $CARGO_TARGET_DIR, default .bench_build), pins the OpenMP
settings, prints a host and build fingerprint, runs one workload and passes
the binary's output through. The last line of standard output is the JSON
result. Build logs go to <build dir>/build.log, never to standard output.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# OpenMP threads per workload (capped at the core count). On a 4-core host
# co-training runs fastest and steadiest on one thread: at these sizes a
# passive-wait OpenMP team costs more in wake-ups than it gains. The
# sampled serving engine needs two to keep up; the load generator's thread
# and the server's reactor take the other cores. Full-graph lookups have
# nothing to parallelise.
OPENMP_THREADS = {
    "cotrain-full": 1,
    "cotrain-blocks": 1,
    "serve-sampled": 2,
    "serve-lookup-reload": 1,
}

RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures once, then builds incrementally. Exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no GraphRARE sources next to perfbench/; "
                 "run from a full checkout")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                sys.exit("perfbench: build failed (%s)" % log_path)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be
    a git repository)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                files.append(os.path.join(dirpath, name))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_model_and_isa():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    isa = [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f") if f in flags]
    return model, isa


def compiler(bdir):
    cxx = "unknown"
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, IndexError, subprocess.SubprocessError):
        return cxx


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(OPENMP_THREADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        return subprocess.run(
            [os.path.join(bdir, "perfbench_selftest")]).returncode

    cores = len(os.sched_getaffinity(0))
    threads = min(cores, OPENMP_THREADS[args.workload])
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": str(threads),
        "OMP_WAIT_POLICY": "PASSIVE",
        "OMP_PROC_BIND": "false",
        "OMP_DYNAMIC": "false",
    })
    model, isa = cpu_model_and_isa()
    fingerprint = {
        "cores": cores,
        "cpu": model,
        "isa": isa,
        "compiler": compiler(bdir),
        "build_type": "Release",
        "openmp": {k: env[k] for k in ("OMP_NUM_THREADS", "OMP_WAIT_POLICY",
                                       "OMP_PROC_BIND", "OMP_DYNAMIC")},
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True), flush=True)

    work_dir = os.path.join(bdir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: binary exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: binary printed no result line")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
