#!/usr/bin/env python3
"""CI perf + parity gate for the vectorized batch executor.

Compares the BENCH_exec.json emitted by `bench_exec --smoke` against the
recorded baseline (bench/baselines/exec_smoke.json). Gated invariants,
per section ("scan", "join" and the three-join paged "pipeline"):

  - charged_bit_equal is true: the batch engine's final charged cost is
    bit-identical to the scalar oracle's (the metering-tape replay
    contract — this is exact, not a tolerance check);
  - rows_equal is true: both engines emitted the same number of rows;
  - rows_emitted matches the baseline exactly (the data and plans are
    deterministic, so any drift means an engine or generator change);
  - speedup meets a deliberately conservative floor (CI noise margin —
    this catches a vectorization collapse, not jitter; the reproduction
    numbers in BENCH_exec.json at the repo root are the honest ones);
  - where the baseline sets max_tape_bytes_per_row (pipeline), the
    section's tape_bytes_per_row stays at or below it. The tape is a
    deterministic function of data, plan and batch size, so this is an
    exact check that tape volume did not start growing with plan depth.

Usage: check_exec_smoke.py <BENCH_exec.json> [baseline.json]
Exit code 0 on pass, 1 on regression or malformed input.
"""

import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "bench", "baselines", "exec_smoke.json")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    bench_path = argv[1]
    baseline_path = argv[2] if len(argv) > 2 else DEFAULT_BASELINE

    with open(bench_path) as f:
        bench = json.load(f)
    with open(baseline_path) as f:
        base = json.load(f)

    failures = []
    for name in ("scan", "join", "pipeline"):
        if name not in bench or name not in base:
            failures.append(f"{name}: section missing from the bench output "
                            f"or the baseline")
            continue
        sec = bench[name]
        floor = base[name]
        print(f"{name}: scalar {sec['scalar_seconds'] * 1e3:.2f}ms "
              f"batch {sec['batch_seconds'] * 1e3:.2f}ms "
              f"speedup {sec['speedup']:.2f}x "
              f"rows {sec['rows_emitted']} "
              f"charged {'bit-equal' if sec['charged_bit_equal'] else 'DIVERGED'}")
        if not sec["charged_bit_equal"]:
            failures.append(
                f"{name}: charged cost diverged between engines — the "
                f"metering-tape replay is no longer bit-exact")
        if not sec["rows_equal"]:
            failures.append(
                f"{name}: engines emitted different row counts")
        if sec["rows_emitted"] != floor["expected_rows"]:
            failures.append(
                f"{name}: {sec['rows_emitted']} rows emitted != expected "
                f"{floor['expected_rows']} — deterministic result drifted")
        if sec["speedup"] < floor["min_speedup"]:
            failures.append(
                f"{name}: speedup {sec['speedup']:.2f}x < floor "
                f"{floor['min_speedup']}x — batch engine throughput "
                f"collapsed")
        max_tape = floor.get("max_tape_bytes_per_row")
        if max_tape is not None and sec["tape_bytes_per_row"] > max_tape:
            failures.append(
                f"{name}: tape_bytes_per_row {sec['tape_bytes_per_row']:.1f} "
                f"> {max_tape} — metering tape grew")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("exec smoke: OK")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
