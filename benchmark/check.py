#!/usr/bin/env python3
"""check.py — validates BENCHMARK.json and the benchmark's run outputs.

Run from anywhere (paths resolve against this file's repository); exits 0
when clean, 1 with one line per violation otherwise.

Rules on BENCHMARK.json
  keys        The top level holds exactly command, paths, run_seconds,
              workloads, end_to_end and per_layer; run_seconds is a whole
              number in [1, 60]; command is a list of at most 32 strings of
              at most 200 characters with no absolute or escaping path;
              paths are 1-16 relative directories of [A-Za-z0-9_./-].
  names       Every workload and metric name is [A-Za-z0-9][A-Za-z0-9_.-]*,
              at most 64 characters, and used once.
  counts      2-8 workloads, 1-16 end-to-end metrics, 1-128 per-layer ones.
  fields      Workloads carry exactly name and a one-line why of at most 200
              characters. End-to-end metrics carry exactly name, unit, better
              and bound; per-layer metrics exactly name, unit and better.
              Units are 1-16 of [A-Za-z0-9_/%.-], better is lower or higher,
              and bounds lie in [0, 0.25].
  setup       setup_s is declared end to end in s, lower is better, with the
              largest bound.

Rules on run outputs (--runs DIR: files named <workload>_t<0|1>_s<seed>.out
holding a run's stdout, as repeat.sh writes them)
  result      The last line is one JSON object with exactly correct,
              attempted, failed and metrics; correct is true, attempted and
              failed are whole numbers, attempted >= 1; the workload is
              declared.
  printed     A --trace 0 run prints exactly the end-to-end metrics and a
              --trace 1 run exactly the per-layer ones: every printed metric
              is declared and every declared metric is printed, each with
              its declared unit and a "metric <name> ... samples=<n>" line.
  spread      For each (workload, end-to-end metric) over the --trace 0
              runs: the quartile spread (q3 - q1) / median, from
              statistics.quantiles(n=4), stays within the bound (setup_s
              excepted). The summary table also flags spreads above a third
              of the bound, the margin a bound should leave.

Self-test: --self-test seeds one violation per rule into an otherwise clean
in-memory specification and run set and asserts the rule catches it.
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_FILE = re.compile(r"^(?P<workload>.+)_t(?P<trace>[01])_s(?P<seed>\d+)\.out$")
SAMPLES_LINE = re.compile(r"^metric\s+(\S+)\s+\S+\s+\S+\s+samples=(\d+)\s*$")


# ------------------------------------------------------------- the spec --
def check_spec(spec: dict) -> list[str]:
    errors = []

    def err(rule: str, msg: str) -> None:
        errors.append(f"BENCHMARK.json: [{rule}] {msg}")

    if set(spec) != TOP_KEYS:
        err("keys", f"top-level keys {sorted(spec)} != {sorted(TOP_KEYS)}")
    rs = spec.get("run_seconds")
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        err("keys", f"run_seconds {rs!r} is not a whole number in [1, 60]")
    command = spec.get("command")
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and 0 < len(c) <= 200
                       for c in command)):
        err("keys", "command must be 1-32 strings of at most 200 characters")
    else:
        for c in command:
            if c.startswith("/") or ".." in c.split("/"):
                err("keys", f"command names a path outside the repo: {c}")
    paths = spec.get("paths")
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        err("keys", "paths must list 1-16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                err("keys", f"bad path {p!r}")

    lists = {k: spec.get(k) for k in ("workloads", "end_to_end", "per_layer")}
    for key, value in lists.items():
        if not isinstance(value, list):
            err("keys", f"{key} is not a list")
            lists[key] = []
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    for key, (lo, hi) in limits.items():
        if not lo <= len(lists[key]) <= hi:
            err("counts", f"{len(lists[key])} {key}, want {lo}-{hi}")

    seen: set[str] = set()
    for key, entries in lists.items():
        for entry in entries:
            name = entry.get("name") if isinstance(entry, dict) else None
            if not isinstance(name, str) or not NAME.match(name):
                err("names", f"{key}: bad name {name!r}")
            elif name in seen:
                err("names", f"{key}: {name} is used more than once")
            else:
                seen.add(name)

    for w in lists["workloads"]:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            err("fields", f"workload {w!r} must have exactly name and why")
            continue
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            err("fields", f"workload {w['name']}: why must be one line of "
                "at most 200 characters")

    def check_metric(m, keys: set[str], where: str) -> None:
        if not isinstance(m, dict) or set(m) != keys:
            err("fields", f"{where} metric {m!r} must have exactly "
                f"{sorted(keys)}")
            return
        if not isinstance(m["unit"], str) or not UNIT.match(m["unit"]):
            err("fields", f"{m['name']}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            err("fields", f"{m['name']}: better must be lower or higher")
        if "bound" in keys:
            b = m["bound"]
            if (not isinstance(b, (int, float)) or isinstance(b, bool)
                    or not 0 <= b <= 0.25):
                err("fields", f"{m['name']}: bound {b!r} not in [0, 0.25]")

    for m in lists["end_to_end"]:
        check_metric(m, {"name", "unit", "better", "bound"}, "end_to_end")
    for m in lists["per_layer"]:
        check_metric(m, {"name", "unit", "better"}, "per_layer")

    e2e = {m.get("name"): m for m in lists["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if setup is None:
        err("setup", "setup_s is not an end-to-end metric")
    elif setup.get("unit") != "s" or setup.get("better") != "lower":
        err("setup", "setup_s must be in s with lower better")
    else:
        bounds = [m.get("bound") for m in e2e.values()
                  if isinstance(m.get("bound"), (int, float))]
        if bounds and setup.get("bound") != max(bounds):
            err("setup", "setup_s must carry the largest bound")
    return errors


# --------------------------------------------------------- run outputs --
def parse_result(text: str) -> dict | None:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check_run(spec: dict, name: str, text: str) -> list[str]:
    """Checks one run's stdout. `name` is <workload>_t<trace>_s<seed>.out."""
    errors = []

    def err(rule: str, msg: str) -> None:
        errors.append(f"{name}: [{rule}] {msg}")

    m = RUN_FILE.match(name)
    if not m:
        err("result", "file name is not <workload>_t<0|1>_s<seed>.out")
        return errors
    workloads = {w["name"] for w in spec["workloads"]}
    if m["workload"] not in workloads:
        err("result", f"workload {m['workload']} is not declared")
    doc = parse_result(text)
    if doc is None:
        err("result", "last line is not a JSON object")
        return errors
    if set(doc) != RESULT_KEYS:
        err("result", f"keys {sorted(doc)} != {sorted(RESULT_KEYS)}")
        return errors
    if doc["correct"] is not True:
        err("result", "correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            err("result", f"{key} is not a whole number")
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        err("result", "attempted < 1")

    declared = spec["per_layer"] if m["trace"] == "1" else spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    printed = doc["metrics"] if isinstance(doc["metrics"], dict) else {}
    for metric in sorted(set(printed) - set(units)):
        err("printed", f"{metric} is printed but not declared")
    for metric in sorted(set(units) - set(printed)):
        err("printed", f"{metric} is declared but not printed")
    sample_lines = {}
    for line in text.splitlines():
        s = SAMPLES_LINE.match(line)
        if s:
            sample_lines[s.group(1)] = int(s.group(2))
    for metric, value in printed.items():
        if metric not in units:
            continue
        if (not isinstance(value, dict) or set(value) != {"value", "unit"}
                or not isinstance(value["value"], (int, float))):
            err("printed", f"{metric}: want {{\"value\": number, \"unit\"}}")
            continue
        if value["unit"] != units[metric]:
            err("printed", f"{metric}: unit {value['unit']} != declared "
                f"{units[metric]}")
        if metric not in sample_lines:
            err("printed", f"{metric}: no 'metric ... samples=<n>' line")
    return errors


def load_runs(runs_dir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(runs_dir.glob("*.out"))}


def summarize(spec: dict, runs: dict[str, str]) -> tuple[list[str], list[str]]:
    """Per (workload, end-to-end metric): median and quartiles over the
    --trace 0 runs against the bound. Returns (table lines, violations)."""
    values: dict[tuple[str, str], list[float]] = {}
    for name, text in runs.items():
        m = RUN_FILE.match(name)
        doc = parse_result(text)
        if not m or m["trace"] != "0" or not doc or set(doc) != RESULT_KEYS:
            continue
        for metric, v in doc["metrics"].items():
            if isinstance(v, dict) and isinstance(v.get("value"), (int, float)):
                values.setdefault((m["workload"], metric), []).append(
                    float(v["value"]))
    lines = [f"{'workload':<9} {'metric':<20} {'n':>3} {'median':>12} "
             f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}  verdict"]
    errors = []
    for w in spec["workloads"]:
        for metric in spec["end_to_end"]:
            vals = values.get((w["name"], metric["name"]), [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            if q3 == q1:
                spread = 0.0
            bound = metric["bound"]
            if spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide (> bound/3)"
            else:
                verdict = "OVER BOUND"
                if metric["name"] != "setup_s":
                    errors.append(
                        f"[spread] {w['name']} {metric['name']}: spread "
                        f"{spread:.4f} over bound {bound}")
            lines.append(
                f"{w['name']:<9} {metric['name']:<20} {len(vals):>3} "
                f"{med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                f"{bound:>7.4g}  {verdict}")
    return lines, errors


def check_all(spec: dict, runs: dict[str, str]) -> list[str]:
    errors = check_spec(spec)
    if errors:
        return errors
    for name, text in runs.items():
        errors.extend(check_run(spec, name, text))
    errors.extend(summarize(spec, runs)[1])
    return errors


# ------------------------------------------------------------ self-test --
def _run_text(metrics: dict[str, tuple[float, str]]) -> str:
    """A run's stdout: one metric line per metric, then the JSON result."""
    lines = [f"metric {k} {v} {u} samples=100" for k, (v, u) in metrics.items()]
    doc = {"correct": True, "attempted": 10, "failed": 0,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}}
    return "\n".join(lines + [json.dumps(doc)]) + "\n"


def _clean_fixture() -> tuple[dict, dict[str, str]]:
    spec = {
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": 10,
        "workloads": [{"name": "a", "why": "first"},
                      {"name": "b", "why": "second"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "lat_ms.p50", "unit": "ms", "better": "lower",
             "bound": 0.1}],
        "per_layer": [{"name": "layer.calls", "unit": "count",
                       "better": "lower"}],
    }
    runs = {}
    for seed, lat in enumerate([10.0, 10.1, 10.2, 9.9, 10.0]):
        for w in ("a", "b"):
            runs[f"{w}_t0_s{seed}.out"] = _run_text(
                {"setup_s": (1.0 + seed, "s"), "lat_ms.p50": (lat, "ms")})
    runs["a_t1_s9.out"] = _run_text({"layer.calls": (5, "count")})
    return spec, runs


def self_test() -> int:
    failures = []
    spec, runs = _clean_fixture()
    clean = check_all(spec, runs)
    if clean:
        failures.append(f"clean fixture not clean: {clean}")

    def expect(rule: str, mutate) -> None:
        s, r = copy.deepcopy(spec), dict(runs)
        mutate(s, r)
        errors = check_all(s, r)
        if not any(f"[{rule}]" in e for e in errors):
            failures.append(f"rule '{rule}' missed its seeded violation; "
                            f"got {errors or '[]'}")

    expect("keys", lambda s, r: s.update(extra=1))
    expect("keys", lambda s, r: s.update(run_seconds=61))
    expect("keys", lambda s, r: s.update(command=["/bin/sh", "x"]))
    expect("names", lambda s, r: s["per_layer"].append(
        {"name": "bad name!", "unit": "ms", "better": "lower"}))
    expect("names", lambda s, r: s["per_layer"].append(
        {"name": "lat_ms.p50", "unit": "ms", "better": "lower"}))
    expect("counts", lambda s, r: s["workloads"].extend(
        {"name": f"w{i}", "why": "x"} for i in range(7)))
    expect("counts", lambda s, r: s["end_to_end"].extend(
        {"name": f"e{i}", "unit": "ms", "better": "lower", "bound": 0.1}
        for i in range(15)))
    expect("counts", lambda s, r: s["per_layer"].extend(
        {"name": f"p{i}", "unit": "ms", "better": "lower"}
        for i in range(128)))
    expect("fields", lambda s, r: s["end_to_end"][1].pop("bound"))
    expect("fields", lambda s, r: s["end_to_end"][1].update(better="up"))
    expect("fields", lambda s, r: s["end_to_end"][1].update(unit=""))
    expect("fields", lambda s, r: s["end_to_end"][1].update(bound=0.5))
    expect("fields", lambda s, r: s["workloads"][0].update(why="a\nb"))
    expect("setup", lambda s, r: s["end_to_end"].pop(0))
    expect("setup", lambda s, r: s["end_to_end"][0].update(bound=0.05))
    expect("result", lambda s, r: r.update(
        {"a_t0_s0.out": r["a_t0_s0.out"].replace('"correct": true',
                                                 '"correct": false')}))
    expect("result", lambda s, r: r.update({"c_t0_s0.out": r["a_t0_s0.out"]}))
    expect("printed", lambda s, r: r.update(
        {"a_t1_s9.out": r["a_t1_s9.out"].replace("layer.calls",
                                                 "layer.other")}))
    expect("printed", lambda s, r: s["per_layer"].append(
        {"name": "layer.missing", "unit": "ms", "better": "lower"}))
    expect("printed", lambda s, r: r.update(
        {"a_t1_s9.out": r["a_t1_s9.out"].replace(" samples=100", "")}))
    expect("printed", lambda s, r: s["per_layer"][0].update(unit="ms"))

    def widen(s, r):
        for seed, lat in enumerate([5.0, 20.0, 7.0, 15.0, 10.0]):
            r[f"a_t0_s{seed}.out"] = _run_text(
                {"setup_s": (1.0, "s"), "lat_ms.p50": (lat, "ms")})
    expect("spread", widen)

    if failures:
        for f in failures:
            print(f"self-test: {f}", file=sys.stderr)
        print("self-test FAILED", file=sys.stderr)
        return 1
    print("self-test OK: every rule catches its seeded violation")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", type=Path, default=REPO_ROOT / "BENCHMARK.json")
    parser.add_argument("--runs", type=Path,
                        help="directory of run outputs to check and summarize")
    parser.add_argument("--self-test", action="store_true",
                        help="assert every rule catches a seeded violation")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    spec = json.loads(args.spec.read_text())
    runs = load_runs(args.runs) if args.runs else {}
    errors = check_all(spec, runs)
    if runs and not check_spec(spec):
        print("\n".join(summarize(spec, runs)[0]))
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(f"check: clean ({len(runs)} run outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
