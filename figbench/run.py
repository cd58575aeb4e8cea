#!/usr/bin/env python3
"""Build and run the figure-regeneration benchmark.

Run from the repository root:

    python3 figbench/run.py --workload cold_regen --seed 1 --seconds 20 --trace 0

The first call configures and builds figbench (and the repository's
`stos` library it links) from source into the build directory:
$CARGO_TARGET_DIR when set, else .bench_build. Later calls rebuild
incrementally. Build output goes to stderr; the benchmark's own report
goes to stdout, whose last line is the JSON result. Every other
argument is passed to the figbench binary unchanged (see README.md).
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    """Configure (once) and build the figbench target; raise on failure."""
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "figbench", "-j", jobs],
        stdout=sys.stderr, env=env, check=True)


def main(argv):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(bench_dir, "..", ".bench_build"))
    try:
        build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"figbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    workload = "run"
    for i, a in enumerate(argv):
        if a == "--workload" and i + 1 < len(argv):
            workload = argv[i + 1]
        elif a.startswith("--workload="):
            workload = a.split("=", 1)[1]
    trace_file = os.path.join(build_dir, f"trace-{workload}.json")
    cmd = [os.path.join(build_dir, "figbench"), "--work-dir", work_dir,
           "--trace-file", trace_file] + argv
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"figbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
