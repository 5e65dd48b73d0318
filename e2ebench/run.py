#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload plan-scale-les|serve-hits|serve-mixed \
        --seed N --seconds S --trace 0|1

The first run configures and builds the benchmark (and the library sources
it links) into .bench_build/ in the checkout, as a Release build; later
runs only re-check that build. The benchmark binary prints one context line
and, as the last line of stdout, the result object. Build output goes to
stderr. The metrics printed, and their units, are BENCHMARK.json's. OpenMP
runs one thread per process, set here because the OpenMP runtime reads it
before the binary's main() and the serving engine's worker threads inherit
it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD_DIR / "e2ebench"
JOBS = max(1, min(4, os.cpu_count() or 1))


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"e2ebench: build step failed: {' '.join(map(str, cmd))}")


def check_manifest():
    """manifest.json documents exactly the workloads and metrics that
    BENCHMARK.json lists."""
    spec = json.loads(SPEC.read_text())
    manifest = json.loads((BENCH_DIR / "manifest.json").read_text())
    for key, listed in (("workloads", [w["name"] for w in spec["workloads"]]),
                        ("metrics", [m["name"] for part in ("end_to_end", "per_layer")
                                     for m in spec[part]])):
        if set(listed) != set(manifest[key]):
            sys.exit(f"e2ebench: manifest.json and BENCHMARK.json list different {key}: "
                     f"{sorted(set(listed) ^ set(manifest[key]))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: library sources (src/) not found next to the benchmark")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release", *generator])
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", "e2ebench",
               "-j", str(JOBS)])


def main():
    check_manifest()
    build()
    env = dict(os.environ, OMP_NUM_THREADS="1")
    work_dir = ROOT / ".bench_build" / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--spec", str(SPEC), *sys.argv[1:], "--work-dir", str(work_dir)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
