#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload real_hot --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/, and the
run's scratch files (paged data, feedback log, trace JSONL) to .bench_work/,
both under the current directory. The last stdout line is the benchmark's
JSON result; build output goes to stderr. Exits non-zero without a result
when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build() -> Path:
    """Configures (once) and builds; returns the benchmark binary."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out / "e2e_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["real_hot", "real_pressure", "sim_wire"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(Path(".bench_work").resolve())]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
