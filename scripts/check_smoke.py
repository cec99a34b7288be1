#!/usr/bin/env python3
"""The smoke gate: checks a smoke bench's JSON output against the rules in
its committed baseline (bench/baselines/*_smoke.json).

Usage: check_smoke.py <bench.json> <baseline.json>

A baseline is {"description": "...", "rules": [rule, ...]}, and a rule is

  {"field": "serve.compilations", "op": "<=", "bound": 2,
   "reason": "template cache amortization broke"}

  field   dot path into the bench output. On a list, a segment picks the
          element whose "name" or "policy" equals it; "*" picks every
          element (there must be at least one). A list of paths is summed.
  op      one of == <= >= < > finite ("finite" takes no bound).
  bound   a number or boolean, or the dot path of another (single) field of
          the same output; "times": k multiplies that field.
  reason  what a failure means; printed on the FAIL line.

Exit 0 when every rule holds. Exit 1 when a rule fails, a field is
missing, a rule is malformed or the baseline has no rules: a gate never
passes vacuously.
"""

import json
import math
import operator
import sys

ORDER = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
         ">": operator.gt}
OPS = set(ORDER) | {"==", "finite"}


class Missing(Exception):
    pass


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else json.dumps(v)


def select(doc, path):
    """All (concrete path, value) pairs the dot path names in doc."""
    nodes = [("", doc)]
    for seg in path.split("."):
        picked = []
        for where, node in nodes:
            here = f"{where}.{seg}" if where else seg
            if isinstance(node, dict) and seg in node:
                picked.append((here, node[seg]))
            elif isinstance(node, list):
                keys = [el.get("name", el.get("policy", i))
                        if isinstance(el, dict) else i
                        for i, el in enumerate(node)]
                hits = [(f"{where}.{k}" if where else str(k), el)
                        for k, el in zip(keys, node) if seg in ("*", k)]
                if not hits:
                    raise Missing(path)
                picked += hits
            else:
                raise Missing(path)
        nodes = picked
    return nodes


def single(doc, path):
    nodes = select(doc, path)
    if len(nodes) != 1:
        raise Missing(f"{path} (names {len(nodes)} fields, not one)")
    return nodes[0][1]


def malformed(rule):
    """Why the rule cannot be checked, or None."""
    if not isinstance(rule, dict):
        return "not an object"
    extra = set(rule) - {"field", "op", "bound", "times", "reason"}
    if extra:
        return f"unknown keys {sorted(extra)}"
    field, op = rule.get("field"), rule.get("op")
    paths = field if isinstance(field, list) else [field]
    if not paths or not all(isinstance(p, str) and p for p in paths):
        return "field must be a dot path or a list of them"
    if op not in OPS:
        return f"unknown comparison {op!r}"
    if not isinstance(rule.get("reason"), str) or not rule["reason"]:
        return "reason must be a non-empty string"
    bound = rule.get("bound")
    if op == "finite":
        return "'finite' takes no bound" if "bound" in rule else None
    if not (is_number(bound) or isinstance(bound, str) or
            (op == "==" and isinstance(bound, bool))):
        return f"bound {bound!r} is not a number or a field path"
    if "times" in rule and not (isinstance(bound, str) and
                                is_number(rule["times"])):
        return "times needs a field bound and a number"
    return None


def sum_of(bench, paths):
    values = [single(bench, p) for p in paths]
    total = sum(values) if all(map(is_number, values)) else None
    return " + ".join(paths), total


def check(bench, rule):
    """Failure lines for one rule (empty when it holds)."""
    op, reason, bound = rule["op"], rule["reason"], rule.get("bound")
    want = f"{op} {fmt(bound)}" if op != "finite" else op
    try:
        field = rule["field"]
        values = ([sum_of(bench, field)] if isinstance(field, list)
                  else select(bench, field))
        if isinstance(bound, str):
            shown = bound
            bound = single(bench, bound)
            if "times" in rule and is_number(bound):
                shown = f"{fmt(rule['times'])} * {shown}"
                bound *= rule["times"]
            want = f"{op} {shown} ({fmt(bound)})"
    except Missing as e:
        return [f"{e}: missing from the bench output — {reason}"]
    failures = []
    for where, v in values:
        if op == "finite":
            ok = is_number(v) and math.isfinite(v)
        elif op == "==":
            ok = v == bound and isinstance(v, bool) == isinstance(bound, bool)
        else:
            ok = is_number(v) and is_number(bound) and ORDER[op](v, bound)
        line = f"{where} = {fmt(v)}, want {want}"
        if ok:
            print(f"ok   {line}")
        else:
            failures.append(f"{line} — {reason}")
    return failures


def baseline_errors(baseline, path):
    """Why the baseline cannot gate anything: empty when it is well formed."""
    if not isinstance(baseline, dict):
        return [f"{path}: not a JSON object"]
    extra = set(baseline) - {"description", "rules"}
    errors = [f"{path}: unknown keys {sorted(extra)}"] if extra else []
    rules = baseline.get("rules")
    if not isinstance(rules, list) or not rules:
        return errors + [f"{path}: 'rules' must be a non-empty list"]
    return errors + [f"{path}: rule {i}: {why}"
                     for i, why in enumerate(map(malformed, rules)) if why]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        docs = []
        for path in argv[1:]:
            with open(path) as f:
                docs.append(json.load(f))
        bench, baseline = docs
        failures = baseline_errors(baseline, argv[2])
    except (OSError, ValueError) as e:
        failures = [f"cannot read input: {e}"]
    if not failures:
        for rule in baseline["rules"]:
            failures += check(bench, rule)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"smoke: OK ({len(baseline['rules'])} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
