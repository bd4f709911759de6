#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's steadiness.

    python3 perfbench/spread.py --seeds 1-10 --workloads repro chain2d --json out.json

For every workload and end-to-end metric this prints the median over the
seeds and the quartile spread (Q3 - Q1, from statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  Runs go one after another, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--json", help="write every run's metrics and the summary here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict = {}
    summary: dict = {}
    for name in args.workloads:
        runs[name] = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            res = json.loads(done.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **res})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']} {vals}", flush=True)
        detail = json.loads((HERE / "out" / f"{name}-seed{seed}-trace0.json").read_text())
        summary[name] = {"largest_array": detail["environment"].pop("largest_array")}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "ok" if metric == "setup_s" or spread < bound / 3 else "WIDE"
            print(f"  {name:12s} {metric:13s} median {med:10.5g}  spread {spread:7.4f}  "
                  f"bound {bound}  {flag}", flush=True)
    if args.json:
        doc = {"seconds": args.seconds, "environment": detail["environment"], "summary": summary, "runs": runs}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
