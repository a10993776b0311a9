#!/usr/bin/env python3
"""Smoke test of the perfbench benchmark: tiny fleets, one pass.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs every workload of BENCHMARK.json with
--smoke at --trace 0 and --trace 1, and checks three things. First, the
result line carries exactly the metrics BENCHMARK.json names, each with its
unit. Second, the run is correct. Third, every share the reference fixes at
1.0 reads 1.0. Last, it checks that a directory holding only BENCHMARK.json
and the benchmark's paths makes the command fail without a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Shares that are 1.0 on every workload: no event is dropped and every
# report matches the reference.
ALWAYS_ONE = ("events_kept_share", "reports_ok_share")
# Shares over a layer a workload does not run, reported as a vacuous 1.0.
VACUOUS_ONE = {
    "paper_daemon": ("battery_answered_share",),
    "fleet_stream": ("sni_reachable_share", "battery_answered_share"),
    "battery_faults": (),
}


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output")
    return json.loads(lines[-1])


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        raise AssertionError(f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}")
    doc = result_line(out.stdout)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(doc)}")
    if doc["correct"] is not True or doc["failed"] != 0 or doc["attempted"] < 1:
        raise AssertionError(f"{where}: not correct: {doc}")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = doc["metrics"]
    if list(metrics) != [m["name"] for m in expected]:
        missing = {m["name"] for m in expected} - set(metrics)
        extra = set(metrics) - {m["name"] for m in expected}
        raise AssertionError(f"{where}: missing {sorted(missing)} extra {sorted(extra)}")
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            raise AssertionError(f"{where}: {m['name']} printed as {got}")
    if not trace:
        for name in ALWAYS_ONE + VACUOUS_ONE[workload]:
            if metrics[name]["value"] != 1.0:
                raise AssertionError(f"{where}: {name} = {metrics[name]['value']}")
        for m in expected:
            if metrics[m["name"]]["value"] == 0:
                raise AssertionError(f"{where}: end-to-end {m['name']} is 0")
    print(f"ok  {where}")


def check_bare_directory(spec):
    """Without the sources the command must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        out = subprocess.run(spec["command"] + ["--workload", "paper_daemon",
                                                "--seed", "1", "--seconds", "1",
                                                "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            raise AssertionError("bare directory: benchmark did not fail")
    print("ok  bare directory fails without a result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                check_run(spec, workload, trace)
        check_bare_directory(spec)
    except AssertionError as err:
        print(f"FAIL {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
