#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 pipebench/run.py --workload <grid_reduce|manyport_reduce|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library (../src) and the pipebench
program are compiled in Release into $CARGO_TARGET_DIR/pipebench (default
.bench_build/pipebench); an up-to-date build is reused. Build output goes
to stderr, so the last line of stdout is the program's JSON result. The
full result and, for traced runs, a Chrome trace land in
<build dir>/results. Exits non-zero, without a result, when the sources
are missing or the build fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid_reduce", "manyport_reduce", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "pipebench"


def build(out: pathlib.Path) -> bool:
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return (out / "pipebench").exists()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("pipebench: library sources not found at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("pipebench: build failed", file=sys.stderr)
        return 2

    cmd = [str(out / "pipebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out / "results")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("pipebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
