#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

    python3 perfbench/smoke.py

Checks, per workload, that the last output line has the agreed keys and
exactly the metrics BENCHMARK.json names, with their units; that no
operation failed except the known failures listed below; that the same
seed gives the same inputs in both runs; and that the benchmark refuses to
run, printing no result, in a directory holding only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: operations that fail at the commit that defined the benchmark (3d level
#: crossing: the quadrature ladder starts below the 64-point floor)
KNOWN_FAILURES = {"crossings_3d"}


def run(workload: str, trace: int, cwd: Path, script: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def check_result(spec: dict, workload: str, trace: int, done) -> dict:
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True, f"{workload}: a check missed its tolerance"
    assert res["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted], f"{workload}: metric names"
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float), (m, got)
    detail = json.loads((OUT / f"{workload}-seed3-trace{trace}.json").read_text())
    unexpected = set(detail["failures"]) - KNOWN_FAILURES
    assert not unexpected, f"{workload}: failed {detail['failures']}"
    return detail


def check_bare_directory(spec: dict) -> None:
    """Without the package the run must fail and print no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(spec["workloads"][0]["name"], 0, bare, bare / "perfbench" / "run.py")
        assert done.returncode != 0, "ran without the package"
        assert '"metrics"' not in done.stdout, "printed a result without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        plain = check_result(spec, name, 0, run(name, 0, ROOT, HERE / "run.py"))
        traced = check_result(spec, name, 1, run(name, 1, ROOT, HERE / "run.py"))
        assert plain["inputs"] == traced["inputs"], f"{name}: same seed, different inputs"
        print(f"ok {name}: {plain['attempted']} operations, failures {sorted(plain['failures'])}")
    check_bare_directory(spec)
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
