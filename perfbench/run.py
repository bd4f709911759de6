#!/usr/bin/env python3
"""Run one seeded workload of the sparsewalk benchmark and print its metrics.

    python3 perfbench/run.py --workload chain2d --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics (``wall_per_ref``,
the mean time of one pass counted in units of a fixed reference computation
run between its operations, see ``Reference``; ``setup_s``, the median
set-up time over several processes; ``peak_rss_mb``; ``success_rate``, one
minus the error rate).  The median pass time in seconds, ``wall_s``, is
printed and kept in the result file.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of
``spans.PER_LAYER``.
The last line of standard output is one JSON object; a result file with
the environment, inputs, failures and artifact digests goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: BLAS runs single-threaded: one process per run, no thread pools
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
#: passes per run at least; a traced run adds an untimed warm-up pass
MIN_PASSES = 3
RUN_TIMEOUT_S = 170
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measurement budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import the package and build the seeded inputs; the set-up being timed."""
    import workloads

    import sparsewalk

    origin = Path(sparsewalk.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"imported sparsewalk from {origin}, not from {ROOT / 'src'}")
    wl = workloads.WORKLOADS[args.workload]
    rng = workloads.seeded_rng(args.seed, wl.name)
    return workloads, wl, wl.setup(rng, wl.sizes[args.size], ROOT)


def setup_samples(args) -> list[float]:
    """Set-up time measured in fresh processes (import included)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Reference:
    """A fixed computation, independent of sparsewalk, run between operations.

    The host is shared and its speed drifts: at the commit that defined this
    benchmark, one pass of ``repro`` took anywhere from 3.1 s to 6.2 s within
    six minutes in a single process, and a fixed computation timed next to it
    moved with it.  So after every operation of a pass this runs a slice of
    reference units, about a tenth of the operation's time, and the operation
    is counted in reference units: its wall time over the unit time pooled
    from the slices just before and after it.  A unit mixes interpreted
    Python, a small LAPACK call and streaming over an array larger than L2;
    across the workloads this tracked their pass times better than units
    that add FFTs or random reads from a larger array.  Its arrays take about
    4 MB, which every run adds to its peak RSS alike.
    """

    SHARE = 0.1
    MIN_UNITS = 4

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((64, 64))
        self.sym = sym + sym.T
        self.stream = np.ones(1 << 19)
        self.cost = self.slices_s = 0.0
        self.last = self.slice(8)
        self.take()

    def unit(self) -> None:
        np = self.np
        acc, table = 0.0, {}
        for i in range(4000):
            acc = acc * 0.999 + i * 1e-6
            table[i & 255] = acc
        np.linalg.eigh(self.sym)
        for _ in range(6):
            np.multiply(self.stream, 1.0000001, out=self.stream)

    def slice(self, units: int) -> tuple[int, float]:
        """Run ``units`` units; return their number and their time."""
        t = time.perf_counter()
        for _ in range(units):
            self.unit()
        elapsed = time.perf_counter() - t
        self.slices_s += elapsed
        return units, elapsed

    def around(self, run):
        """Wrap ``Ledger.run``: time each operation and follow it with a slice."""

        def timed(name, op):
            t = time.perf_counter()
            run(name, op)
            wall = time.perf_counter() - t
            units, elapsed = self.last
            self.last = self.slice(max(self.MIN_UNITS, round(self.SHARE * wall * units / elapsed)))
            self.cost += wall * (units + self.last[0]) / (elapsed + self.last[1])

        return timed

    def take(self) -> tuple[float, float]:
        """Reference units and slice seconds since the last call, then reset both."""
        taken = (self.cost, self.slices_s)
        self.cost = self.slices_s = 0.0
        return taken


def measure_passes(passes, seconds: float, least: int) -> None:
    """Call passes(i) until the next pass would end past the budget, at least ``least`` times."""
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(passes(len(walls)))
        elapsed = time.perf_counter() - start
        if len(walls) >= least and elapsed + statistics.median(walls) > seconds:
            return


def environment(wl, inputs) -> dict:
    import mpmath
    import numpy as np

    l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        l3 = l3 or int(size.rstrip("K")) * 1024
    except (OSError, ValueError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # build metadata layout differs across numpy versions
        blas = {"unknown": repr(exc)}
    label, nbytes = wl.largest(inputs)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_bytes": l3,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
        "largest_array": {"what": label, "bytes": nbytes, "share_of_l3": nbytes / l3 if l3 else None},
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    samples = setup_samples(args) if args.trace == 0 else []
    t0 = time.perf_counter()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    workloads, wl, inputs = setup(args)
    samples.insert(0, time.perf_counter() - t0)
    if recorder is not None:
        recorder.uninstall()
        recorder.phase = "pass"
    ledger = workloads.Ledger()
    scratch = OUT / f"cli-{wl.name}-{os.getpid()}"
    walls = {"untraced": [], "traced": []} if recorder is None else {"warmup": [], "untraced": [], "traced": []}
    reference = Reference() if recorder is None else None
    if reference is not None:
        ledger.run = reference.around(ledger.run)
    costs = []

    def one_pass(i: int) -> float:
        # traced runs: warm-up, then traced and untraced passes in turn
        traced = recorder is not None and i % 2 == 1
        kind = "warmup" if recorder is not None and i == 0 else "traced" if traced else "untraced"
        if traced:
            recorder.install()
        t = time.perf_counter()
        wl.iterate(inputs, ledger, scratch / str(i))
        elapsed = time.perf_counter() - t
        if traced:
            recorder.uninstall()
        wall = elapsed
        if reference is not None:
            cost, slices_s = reference.take()
            costs.append(cost)
            wall -= slices_s
        walls[kind].append(wall)
        return elapsed

    try:
        measure_passes(one_pass, args.seconds, MIN_PASSES + (recorder is not None))
        artifacts = workloads.artifact_digests(scratch / "0") if scratch.exists() else {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    error_rate = ledger.failed / ledger.attempted
    top_self = []
    if recorder is None:
        metrics = {
            "wall_per_ref": {"value": statistics.fmean(costs), "unit": "ratio"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "success_rate": {"value": 1.0 - error_rate, "unit": "ratio"},
        }
    else:
        overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
        artifact_bytes = sum(a["bytes"] for a in artifacts.values())
        metrics = recorder.metrics(len(walls["traced"]), overhead, artifact_bytes)
        top_self = recorder.top_self(len(walls["traced"]))

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": wl.name,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == wl.name),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "environment": environment(wl, inputs),
        "inputs": wl.describe(inputs),
        "passes": walls,
        "wall_s": statistics.median(walls["untraced"]),
        "passes_in_reference_units": costs,
        "setup_samples_s": samples,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": error_rate,
        "failures": ledger.failures,
        "cli_artifacts": artifacts,
        "top_self_time_per_pass": top_self,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if recorder is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(recorder.dump()) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  passes {sum(len(w) for w in walls.values())}")
    print(f"  error_rate {error_rate:.6g} ratio ({ledger.failed} of {ledger.attempted} operations failed)")
    for op, why in ledger.failures.items():
        print(f"  failed: {op}: {why}")
    print(f"  wall_s {result['wall_s']:.6g} s (median pass; not a gated metric, the host's speed drifts)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for name, own in top_self:
        print(f"  top self time per traced pass: {name} {own:.4g} s")
    print(f"  result file: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, one process each, in turn."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "sparsewalk" / "__init__.py").is_file():
        print(f"no sparsewalk package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args)
        print(time.perf_counter() - t0)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
