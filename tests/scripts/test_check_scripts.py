#!/usr/bin/env python3
"""Unit tests for the CI checker scripts in scripts/.

Each checker guards a gate; a checker that silently passes bad input is a
gate that rotted open, and one that rejects good input blocks CI for no
reason. These tests drive every checker as a subprocess — the same
interface the gates use — against crafted passing and failing inputs and
assert on the exit code plus the specific failure text, so a checker that
starts failing for the WRONG reason is also caught.

Covered: check_smoke.py (one class per smoke bench, each passing case run
against the committed bench/baselines/*_smoke.json rules; malformed input
in the serve and storage classes), check_trace_schema.py,
check_lint_fixtures.py.
Stdlib only (unittest); registered in ctest as test_check_scripts.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SCRIPTS = os.path.join(REPO, "scripts")
BASELINES = os.path.join(REPO, "bench", "baselines")


def run_checker(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script)] + list(args),
        capture_output=True, text=True)


class CheckerTestCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write_json(self, name, doc):
        path = os.path.join(self.tmp, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def write_text(self, name, text):
        path = os.path.join(self.tmp, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def assert_pass(self, proc):
        self.assertEqual(
            proc.returncode, 0,
            f"expected pass, got {proc.returncode}:\n{proc.stdout}\n"
            f"{proc.stderr}")

    def assert_fail(self, proc, needle):
        self.assertEqual(
            proc.returncode, 1,
            f"expected failure, got {proc.returncode}:\n{proc.stdout}\n"
            f"{proc.stderr}")
        self.assertIn(needle, proc.stdout + proc.stderr,
                      f"failure did not mention {needle!r}:\n{proc.stdout}\n"
                      f"{proc.stderr}")


def committed(smoke):
    with open(os.path.join(BASELINES, f"{smoke}_smoke.json")) as f:
        return json.load(f)


def with_bound(baseline, field, bound):
    """A copy of baseline whose rules on field use a fixture bound."""
    doc = copy.deepcopy(baseline)
    rules = [r for r in doc["rules"] if r["field"] == field]
    assert rules, f"no rule on {field}"
    for rule in rules:
        rule["bound"] = bound
    return doc


class SmokeTestCase(CheckerTestCase):
    """Runs check_smoke.py. The baseline defaults to the committed rules of
    `smoke`, so a broken committed rule fails the passing case here."""
    smoke = None

    def check(self, bench, baseline=None):
        return run_checker("check_smoke.py",
                           self.write_json("bench.json", bench),
                           self.write_json("baseline.json",
                                           baseline or committed(self.smoke)))

    def assert_named_failure(self, proc, *needles):
        """Malformed input fails by name: never a traceback or a pass."""
        for needle in needles:
            self.assert_fail(proc, needle)
        self.assertNotIn("Traceback", proc.stderr)


class CompileSmokeTest(SmokeTestCase):
    smoke = "compile"
    DP_CALLS = "templates.2D_H_Q8a_res100.incremental.dp_calls"

    def bench(self):
        return {"templates": [{
            "name": "2D_H_Q8a_res100",
            "points": 100,
            "incremental": {"dp_calls": 50, "audit_failures": 0},
            "memoryless": {"dp_calls": 100},
        }]}

    def test_passes_within_ceiling(self):
        self.assert_pass(self.check(self.bench()))

    def test_fails_on_dp_call_regression(self):
        bench = self.bench()
        bench["templates"][0]["incremental"]["dp_calls"] = 61
        self.assert_fail(
            self.check(bench, with_bound(committed("compile"),
                                         self.DP_CALLS, 60)),
            "fast-path coverage regressed")

    def test_fails_on_audit_failures(self):
        bench = self.bench()
        bench["templates"][0]["incremental"]["audit_failures"] = 2
        self.assert_fail(self.check(bench), "audit")

    def test_fails_when_memoryless_skips_points(self):
        bench = self.bench()
        bench["templates"][0]["memoryless"]["dp_calls"] = 99
        self.assert_fail(self.check(bench), "not memoryless")

    def test_fails_on_missing_template(self):
        self.assert_fail(self.check({"templates": []}), "missing")


class ServeSmokeTest(SmokeTestCase):
    smoke = "serve"

    def bench(self):
        return {
            "serve": {"requests": 200, "completed": 200, "errors": 0,
                      "qps": 500.0, "p50_ms": 1.0, "p99_ms": 5.0,
                      "compilations": 2, "mean_batch_size": 4.0},
            "overload": {"requests": 100, "completed": 100, "degraded": 30,
                         "shed": 30, "peak_queue_depth": 8,
                         "max_queue_depth": 8, "compilations": 2},
        }

    def test_passes_healthy_serve(self):
        self.assert_pass(self.check(self.bench()))

    def test_fails_on_compile_storm(self):
        bench = self.bench()
        bench["serve"]["compilations"] = 50
        self.assert_fail(self.check(bench), "amortization broke")

    def test_fails_on_queue_bound_violation(self):
        bench = self.bench()
        bench["overload"]["peak_queue_depth"] = 9
        self.assert_fail(self.check(bench), "queue bound")

    def test_fails_when_shedding_never_engages(self):
        bench = self.bench()
        bench["overload"]["degraded"] = bench["overload"]["shed"] = 0
        self.assert_fail(self.check(bench), "shedding never engaged")

    def test_fails_on_shed_accounting_divergence(self):
        bench = self.bench()
        bench["overload"]["shed"] = bench["overload"]["degraded"] - 1
        self.assert_fail(self.check(bench), "shed accounting diverged")

    def test_fails_on_one_extra_compile_under_overload(self):
        # overload.compilations is cumulative over the same service: one
        # compile more than the serve phase is a compile under overload,
        # even while both stay under the serve ceiling.
        bench = self.bench()
        bench["serve"]["compilations"] = 1
        bench["overload"]["compilations"] = 2
        self.assert_fail(self.check(bench),
                         "safe-plan path triggered compiles")

    def test_missing_section_names_each_field(self):
        bench = self.bench()
        del bench["overload"]
        self.assert_named_failure(self.check(bench),
                                  "FAIL: overload.completed: missing",
                                  "FAIL: overload.compilations: missing")

    def test_unknown_comparison_is_malformed(self):
        baseline = committed("serve")
        baseline["rules"][0]["op"] = "=~"
        self.assert_named_failure(self.check(self.bench(), baseline),
                                  "rule 0: unknown comparison '=~'")

    def test_baseline_without_rules_fails(self):
        for baseline in ({"description": "x", "rules": []},
                         {"description": "x"},
                         {"rules": {"serve.errors": 0}}):
            self.assert_named_failure(self.check(self.bench(), baseline),
                                      "'rules' must be a non-empty list")


class ExecSmokeTest(SmokeTestCase):
    smoke = "exec"

    def bench(self):
        section = {"scalar_seconds": 0.1, "batch_seconds": 0.02,
                   "speedup": 5.0, "rows_emitted": 1199,
                   "charged_bit_equal": True, "rows_equal": True}
        pipeline = dict(section, rows_emitted=9503, tape_bytes_per_row=14.3)
        return {"scan": copy.deepcopy(section),
                "join": dict(section, rows_emitted=1088),
                "pipeline": pipeline}

    def test_passes_bit_equal_fast(self):
        self.assert_pass(self.check(self.bench()))

    def test_fails_on_charge_divergence(self):
        bench = self.bench()
        bench["join"]["charged_bit_equal"] = False
        self.assert_fail(self.check(bench), "no longer bit-exact")

    def test_fails_on_row_drift(self):
        bench = self.bench()
        bench["scan"]["rows_emitted"] = 1233
        self.assert_fail(self.check(bench), "deterministic result drifted")

    def test_fails_on_speedup_collapse(self):
        bench = self.bench()
        bench["scan"]["speedup"] = 1.0
        self.assert_fail(self.check(bench), "throughput")

    def test_fails_on_pipeline_charge_divergence(self):
        bench = self.bench()
        bench["pipeline"]["charged_bit_equal"] = False
        self.assert_fail(self.check(bench),
                         "pipeline.charged_bit_equal = false")

    def test_fails_on_pipeline_row_mismatch(self):
        bench = self.bench()
        bench["pipeline"]["rows_equal"] = False
        self.assert_fail(self.check(bench), "pipeline.rows_equal = false")

    def test_fails_on_pipeline_row_drift(self):
        bench = self.bench()
        bench["pipeline"]["rows_emitted"] = 9502
        self.assert_fail(self.check(bench), "pipeline.rows_emitted = 9502")

    def test_fails_on_pipeline_speedup_collapse(self):
        bench = self.bench()
        bench["pipeline"]["speedup"] = 1.2
        self.assert_fail(self.check(bench), "pipeline.speedup = 1.2")

    def test_fails_when_tape_grows(self):
        bench = self.bench()
        bench["pipeline"]["tape_bytes_per_row"] = 78.9
        self.assert_fail(self.check(bench), "metering tape grew")

    def test_fails_when_pipeline_section_missing(self):
        bench = self.bench()
        del bench["pipeline"]
        self.assert_fail(self.check(bench),
                         "pipeline.charged_bit_equal: missing")


class StorageSmokeTest(SmokeTestCase):
    smoke = "storage"

    def bench(self):
        return {
            "pool_pages": 64, "dataset_pages": 512,
            "reexec": {"ratio_lru": 3.0, "ratio_2q": 3.2,
                       "rows_emitted": 3464},
            "scan_mix": {"lru_over_2q": 1.4},
            "parity": {"charged_bit_equal": True, "rows_equal": True,
                       "accounting_exact": True},
        }

    def test_passes_healthy_storage(self):
        self.assert_pass(self.check(self.bench()))

    def test_fails_when_dataset_fits_in_pool(self):
        bench = self.bench()
        bench["dataset_pages"] = 255
        self.assert_fail(self.check(bench), "no longer exceed the pool")

    def test_fails_on_cache_ratio_collapse(self):
        bench = self.bench()
        bench["reexec"]["ratio_2q"] = 1.5
        self.assert_fail(self.check(bench), "re-execution re-reads")

    def test_fails_on_scan_resistance_loss(self):
        bench = self.bench()
        bench["scan_mix"]["lru_over_2q"] = 1.0
        self.assert_fail(self.check(bench), "scan resistance")

    def test_fails_on_accounting_mismatch(self):
        bench = self.bench()
        bench["parity"]["accounting_exact"] = False
        self.assert_fail(self.check(bench), "accounting_exact")

    def test_missing_section_names_each_field(self):
        bench = self.bench()
        del bench["parity"]
        self.assert_named_failure(self.check(bench),
                                  "FAIL: parity.charged_bit_equal: missing",
                                  "FAIL: parity.rows_equal: missing",
                                  "FAIL: parity.accounting_exact: missing")


class FeedbackSmokeTest(SmokeTestCase):
    smoke = "feedback"

    def bench(self):
        return {
            "warm": {"requests": 6, "feedback_records": 6,
                     "feedback_hits": 3, "warm_runs": 3,
                     "contours_skipped": 3, "rows_identical": True,
                     "cold_steps": 9, "warm_steps": 6,
                     "driver_contours_skipped": 1},
            "shrink": {"full_points": 1600, "shrunken_points": 400,
                       "full_dp_calls": 5000, "shrunken_dp_calls": 1200,
                       "full_wall_seconds": 0.5,
                       "shrunken_wall_seconds": 0.1},
            "oracle": {"instances": 40, "warm_runs": 900,
                       "mispredicted_runs": 150, "violations": 0},
            "shootout": [
                {"policy": p, "mso": 3.0, "aso": 1.5, "max_harm": 0.0,
                 "plans": 4}
                for p in ("native", "seer", "parqo", "pao", "bouquet")],
        }

    def test_passes_healthy_feedback_loop(self):
        self.assert_pass(self.check(self.bench()))

    def test_fails_when_warm_starts_vanish(self):
        bench = self.bench()
        bench["warm"]["warm_runs"] = 0
        self.assert_fail(self.check(bench), "no longer warm-starts")

    def test_fails_on_result_divergence(self):
        bench = self.bench()
        bench["warm"]["rows_identical"] = False
        self.assert_fail(self.check(bench), "changed the query result")

    def test_fails_when_shrink_saves_nothing(self):
        bench = self.bench()
        bench["shrink"]["shrunken_dp_calls"] = bench["shrink"]["full_dp_calls"]
        self.assert_fail(self.check(bench), "no longer saves compile work")

    def test_fails_on_oracle_violation(self):
        bench = self.bench()
        bench["oracle"]["violations"] = 2
        self.assert_fail(self.check(bench), "Theorem 3 bound")

    def test_fails_on_missing_policy(self):
        bench = self.bench()
        bench["shootout"] = [r for r in bench["shootout"]
                             if r["policy"] != "pao"]
        self.assert_fail(self.check(bench), "missing policies")

    def test_fails_on_nonfinite_metric(self):
        bench = self.bench()
        bench["shootout"][0]["mso"] = None
        self.assert_fail(self.check(bench), "not finite")

    def test_fails_on_bouquet_mso_blowup(self):
        bench = self.bench()
        bench["shootout"][-1]["mso"] = 50.0
        self.assert_fail(self.check(bench), "robustness edge")


class TraceSchemaTest(CheckerTestCase):
    def spans(self):
        root = {"span_id": 1, "parent_id": 0, "trace_id": 1,
                "name": "driver.step", "start": 0.0, "dur": 0.5,
                "attrs": {"budget": 100.0, "charged": 90.0}, "sattrs": {}}
        child = {"span_id": 2, "parent_id": 1, "trace_id": 1,
                 "name": "exec.node", "start": 0.1, "dur": 0.2,
                 "attrs": {}, "sattrs": {"op": "scan"}}
        return [root, child]

    def check(self, spans, *extra):
        trace = self.write_text(
            "trace.jsonl", "".join(json.dumps(s) + "\n" for s in spans))
        return run_checker("check_trace_schema.py", trace, *extra)

    def test_passes_valid_trace(self):
        self.assert_pass(self.check(self.spans()))

    def test_fails_on_budget_violation(self):
        spans = self.spans()
        spans[0]["attrs"]["charged"] = 200.0  # > 100 * 1.01 + 10
        self.assert_fail(self.check(spans), "budget invariant violated")

    def test_fails_on_duplicate_span_id(self):
        spans = self.spans()
        spans[1]["span_id"] = 1
        self.assert_fail(self.check(spans), "duplicate span_id")

    def test_fails_on_missing_field(self):
        spans = self.spans()
        del spans[0]["dur"]
        self.assert_fail(self.check(spans), "missing field 'dur'")

    def test_dangling_parent_is_error_by_default(self):
        spans = self.spans()
        spans[1]["parent_id"] = 99
        self.assert_fail(self.check(spans), "not in export")

    def test_allow_dropped_demotes_dangling_parent(self):
        spans = self.spans()
        spans[1]["parent_id"] = 99
        self.assert_pass(self.check(spans, "--allow-dropped"))

    def test_require_names_enforced(self):
        self.assert_fail(self.check(self.spans(), "--require-names",
                                    "sim.step"),
                         "never appears")

    def test_empty_trace_is_invalid(self):
        self.assert_fail(self.check([]), "no spans")


class LintFixtureGateTest(CheckerTestCase):
    """The gate that validates the lint fixtures must itself reject rot:
    a negative fixture without markers, a marker the engine cannot
    reproduce, and a control with findings are all gate failures."""

    def check(self, *fixtures):
        return run_checker("check_lint_fixtures.py", "--root", REPO,
                           "--schema", os.path.join(SCRIPTS,
                                                    "trace_schema.json"),
                           *fixtures)

    def test_real_fixtures_pass(self):
        fixtures = sorted(
            os.path.join(REPO, "tests", "static", "lint", "fixtures", f)
            for f in os.listdir(
                os.path.join(REPO, "tests", "static", "lint", "fixtures"))
            if f.endswith(".cc"))
        self.assertGreaterEqual(len(fixtures), 6)
        self.assert_pass(self.check(*fixtures))

    def test_rejects_unmarked_negative_fixture(self):
        f = self.write_text("fail_unmarked.cc",
                            "void G();\nvoid F() { (void)G(); }\n")
        self.assert_fail(self.check(f), "no expect-lint markers")

    def test_rejects_marker_engine_cannot_reproduce(self):
        f = self.write_text(
            "fail_ghost.cc",
            "// expect-lint: bouquet-discarded-status\nvoid F() {}\n")
        self.assert_fail(self.check(f), "expected but not reported")

    def test_rejects_dirty_control(self):
        f = self.write_text("control_dirty.cc",
                            "void G();\nvoid F() { (void)G(); }\n")
        self.assert_fail(self.check(f), "reported but not expected")


if __name__ == "__main__":
    unittest.main(verbosity=2)
