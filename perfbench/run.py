#!/usr/bin/env python3
"""Build and run the iotls perfbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ (a CMake package compiling ../src plus main.cpp) into
$CARGO_TARGET_DIR/perfbench-<hash of the source root> (CARGO_TARGET_DIR
defaults to .bench_build), so two source trees never share a build, then
runs one workload in one process with a work directory of its own. Build
logs go to stderr; the benchmark's stdout is passed through, so its last line
is the result JSON. Exits non-zero, without a result, when the iotls sources
are missing or the build fails.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_daemon", "fleet_stream", "battery_faults")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cached_source_dir(build_dir):
    """The source directory an existing CMake cache was configured for."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build(bench_dir, build_dir):
    if not (bench_dir.parent / "src" / "CMakeLists.txt").is_file():
        fail(f"iotls sources not found next to {bench_dir}")
    build_dir.parent.mkdir(parents=True, exist_ok=True)
    # Runs that start together wait for one build instead of racing.
    with open(build_dir.parent / f"{build_dir.name}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if cached_source_dir(build_dir) != bench_dir:
            # A fresh tree, or a cache left by another source tree: start over.
            shutil.rmtree(build_dir, ignore_errors=True)
            configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(configure, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(configure))
        cmd = ["cmake", "--build", str(build_dir), "--target", "iotls_perfbench",
               "-j", BUILD_JOBS]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = build_dir / "iotls_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleets, one pass (perfbench/smoke_test.py)")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    tree = hashlib.sha256(str(bench_dir.parent).encode()).hexdigest()[:12]
    build_dir = target / f"perfbench-{tree}"
    binary = build(bench_dir, build_dir)

    # Concurrent runs must not share the snapshot file or trace files.
    work_dir = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    # If this script is terminated, the benchmark must not keep running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if work_dir.is_dir() and not any(work_dir.iterdir()):
            work_dir.rmdir()  # traced runs keep theirs, for the trace file
    sys.exit(code)


if __name__ == "__main__":
    main()
