#!/usr/bin/env python3
"""Runs benchmark workloads repeatedly and checks their spread against the
bounds in BENCHMARK.json.

    python3 perfbench/stability.py                      # every workload, 10 seeds, 2 sets
    python3 perfbench/stability.py --workload sim_wire --runs 5 --sets 1

Each set runs every workload once per seed (seeds 1..runs in set 1,
runs+1..2*runs in set 2, ...). For each end-to-end metric it prints the
median and quartiles, and the spread: (Q3 - Q1) / median, as given by
statistics.quantiles(values, n=4). A metric passes when its spread is
within its bound (setup_s is exempt) and, from the second set on, when the
set's median is not worse than the first set's by more than the bound.
Raw values go to .bench_work/stability.json. Exits 1 on any failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {out.returncode}): {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            runs = [run_once(w, seed, args.seconds) for seed in seeds]
            sets.append({m["name"]: [r[m["name"]] for r in runs]
                         for m in metrics})
        raw[w] = sets
        print(f"\n== {w}: {args.sets} set(s) x {args.runs} runs, "
              f"{args.seconds}s each")
        print(f"{'metric':16} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6} {'vs set1':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for i, values in enumerate(sets):
                q1, med, q3, sp = spread(values[name])
                drift = 0.0 if first_median is None else \
                    worse_by(first_median, med, m["better"])
                first_median = med if first_median is None else first_median
                bad = (name != "setup_s" and sp > bound) or drift > bound
                ok &= not bad
                print(f"{name:16} {i + 1:>3} {q1:12.6g} {med:12.6g} "
                      f"{q3:12.6g} {sp:7.3f} {bound:6.2f} {drift:8.3f}  "
                      f"{'FAIL' if bad else 'ok'}"
                      f"{' (spread > bound/3)' if not bad and sp > bound / 3 else ''}")
    out = ROOT / ".bench_work" / "stability.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\nraw values: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
