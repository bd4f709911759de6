#!/usr/bin/env python3
"""Run alternating benchmark pairs of two checkouts and judge every metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload level-sweep \\
        --pairs 10 --seed 3001 --claim wall_per_ref

Pair i runs ``perfbench/run.py --workload W --seed S+i --trace 0`` once in
each checkout, each with its own ``perfbench/`` and ``src/``, one process
at a time; the parent runs first in even pairs and second in odd ones.
Each run writes its result file under its own checkout's ``perfbench/out/``,
as ``run.py`` always does; this script writes nothing itself.

For every end-to-end metric of the parent's ``BENCHMARK.json`` it prints
each side's median and quartiles (``statistics.quantiles``, n = 4), the
pairs the change wins (ties count for neither side) and the metric's bound.
The claimed metric is a gain when the change wins at least nine tenths of
the pairs, its median is better than the parent's by more than the
parent's interquartile range, and ``success_rate`` is not lower.  Every
other metric is

* ``worse`` when the change's median is worse than the parent's by more
  than the bound (relative to the parent's median);
* ``within bound`` when every change run is better than every parent run,
  or when neither side's interquartile range exceeds the bound (relative
  to its median);
* ``unresolved`` otherwise: the runs spread too widely to tell.

With ``--setup-probes N`` it then runs N single ``perfbench/run.py
--setup-probe`` processes per checkout, alternating as the pairs do (probe
i at seed S + i), and prints each side's median [q1, q3] set-up time and
the probes the change wins.  A run's ``setup_s`` is the median of only a
few samples taken close together, so it follows the host's state at that
moment; interleaved single probes compare the two trees' set-up code.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: share of the pairs the change must win for a claimed gain
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 300


def run_py(checkout: Path, *args: str) -> str:
    """Last output line of the checkout's own ``perfbench/run.py`` with these arguments."""
    cmd = [sys.executable, "perfbench/run.py", *args]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run.py {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return lines[-1]


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """Metrics of one untraced run of the checkout's own benchmark."""
    line = run_py(checkout, "--workload", workload, "--seed", str(seed), "--trace", "0")
    return {name: m["value"] for name, m in json.loads(line)["metrics"].items()}


def setup_probe(checkout: Path, workload: str, seed: int) -> float:
    """Set-up time, import included, of one fresh ``run.py --setup-probe`` process."""
    return float(run_py(checkout, "--setup-probe", "--workload", workload, "--seed", str(seed)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def gain(parent: list[float], change: list[float], lower_better: bool) -> float:
    """How much better the change's value is than the parent's (signed)."""
    sign = 1.0 if lower_better else -1.0
    return sign * (statistics.median(parent) - statistics.median(change))


def wins(parent: list[float], change: list[float], lower_better: bool) -> int:
    return sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))


def verdict(parent, change, lower_better: bool, bound: float, claimed: bool, success_ok: bool) -> str:
    """The judgement printed for one metric; see the module docstring."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if claimed:
        met = (
            wins(parent, change, lower_better) >= math.ceil(WIN_SHARE * len(parent))
            and gain(parent, change, lower_better) > p_q3 - p_q1
            and success_ok
        )
        return "gain met" if met else "gain not met"
    if -gain(parent, change, lower_better) > bound * abs(p_med):
        return "worse"
    if lower_better:
        apart = max(change) < min(parent)
    else:
        apart = min(change) > max(parent)
    spread = max(
        (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    return "within bound" if apart or spread <= bound else "unresolved"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    p.add_argument("--setup-probes", type=int, default=0, help="single set-up probes per checkout after the pairs")
    args = p.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        p.error(f"--claim must be one of {sorted(metrics)}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed))
        shown = "  ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}" for name in metrics
        )
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {shown}", flush=True)

    success = "success_rate"
    success_ok = statistics.median(r[success] for r in runs["change"]) >= statistics.median(
        r[success] for r in runs["parent"]
    )
    print(f"\n{args.workload}, {args.pairs} pair(s), median [q1, q3], parent -> change")
    for name, m in metrics.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        lower_better = m["better"] == "lower"
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        judged = verdict(parent, change, lower_better, m["bound"], name == args.claim, success_ok)
        print(
            f"  {name:13s} {p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}] -> {c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]"
            f"  change wins {wins(parent, change, lower_better)}/{args.pairs}"
            f"  parent IQR {p_q3 - p_q1:.4g}  bound {m['bound']}  {judged}"
        )

    if args.setup_probes > 0:
        probes = {"parent": [], "change": []}
        for i in range(args.setup_probes):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                probes[side].append(setup_probe(getattr(args, side), args.workload, args.seed + i))
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = quartiles(probes["parent"]), quartiles(probes["change"])
        print(
            f"\n{args.workload}, {args.setup_probes} set-up probe(s) per side, median [q1, q3] s, parent -> change\n"
            f"  setup probe   {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] -> {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]"
            f"  change wins {wins(probes['parent'], probes['change'], True)}/{args.setup_probes}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
