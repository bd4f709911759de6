"""The four seeded workloads of the sparsewalk benchmark.

A workload has a ``setup`` that turns the seed into inputs (potentials,
lambda sets, displacement sets, configs) and an ``iterate`` that runs every
operation of the workload once, checking each result against an
independent route.  Kernel validation happens inside ``iterate``: every
CLI run pays for it, so it is timed.

Only public names of the package are used.  No operation reads
``TruncatedOperator.matrix`` or ``.sym`` or passes a thread count, so a
matrix-free operator or the removal of ``--threads`` runs unchanged here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sparsewalk as sw
from sparsewalk import acceptance, cli, config, potential, resolvent, spectral
from sparsewalk import birman_schwinger as bs
from sparsewalk import gibbs

FLOAT_BYTES = 8


class Ledger:
    """Outcome of every operation run in one process.

    An operation fails when it raises (any exception, SparseWalkError or
    not) or when one of its checks misses its tolerance; the run goes on
    either way.  ``wrong`` counts only the second kind: a result that was
    produced and is incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, str] = {}

    def run(self, name: str, op: Callable[[], dict]) -> None:
        self.attempted += 1
        try:
            checks = op()
        except Exception as exc:  # every exception is a failed operation
            self.failed += 1
            self.failures.setdefault(name, f"{type(exc).__name__}: {exc}")
            return
        missed = sorted(label for label, ok in checks.items() if not ok)
        if missed:
            self.failed += 1
            self.wrong += 1
            self.failures.setdefault(name, "checks missed: " + ", ".join(missed))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


# -- repro: the 14 acceptance criteria and the nine CLI experiments, all 1d ----

CLI_RUNS = (
    ("validate", "presets.json"),
    ("green", "green_lazy.json"),
    ("bs", "bs_scan.json"),
    ("spectrum", "spectrum_anchor.json"),
    ("essential", "presets.json"),
    ("decay", "presets.json"),
    ("gibbs", "presets.json"),
    ("doob", "presets.json"),
    ("fk", "fk_delta.json"),
)

#: fk checks its Monte Carlo estimate at 3 sigma; every seed in this range
#: passes that check at the commit the benchmark was defined on
FK_SEED_RANGE = (1, 256)


def repro_setup(rng, size, root: Path) -> dict:
    configs = root / "demos" / "configs"
    runs = []
    for kind, name in CLI_RUNS:
        if kind not in size["cli"]:
            continue
        path = configs / name
        config.load_config(path)
        runs.append((kind, path))
    seeds = {
        "doob": int(rng.integers(1, 2**31)),
        "fk": int(rng.integers(FK_SEED_RANGE[0], FK_SEED_RANGE[1] + 1)),
    }
    return {"criteria": size["criteria"], "cli_runs": runs, "seeds": seeds}


def repro_iterate(inp, ledger: Ledger, scratch: Path) -> None:
    for index in inp["criteria"]:
        criterion = getattr(acceptance, f"criterion_{index}")
        ledger.run(f"criterion_{index:02d}", lambda c=criterion: {"PASS": c().passed})
    for kind, path in inp["cli_runs"]:
        out = scratch / kind
        argv = [kind, "--config", str(path), "--out", str(out)]
        if kind in inp["seeds"]:
            argv += ["--seed", str(inp["seeds"][kind])]

        def op(argv=argv, out=out):
            code = cli.main(argv)
            return {"exit 0": code == 0, "summary.json": (out / "summary.json").is_file()}

        ledger.run(f"cli_{kind}", op)


def repro_describe(inp) -> dict:
    return {
        "criteria": list(inp["criteria"]),
        "cli": [[kind, str(Path(path).name)] for kind, path in inp["cli_runs"]],
        "seeds": inp["seeds"],
        "ranges": {"doob seed": [1, 2**31 - 1], "fk seed": list(FK_SEED_RANGE)},
    }


def repro_largest(inp) -> tuple[str, int]:
    # criterion 14's 2d plane wave on Q(0, 203) outgrows criterion 9's 513-site
    # dense control matrix; 1d truncations stop at L = 80
    side = 2 * 203 + 1
    return f"criterion 14 complex plane wave ({side} x {side})", side * side * 2 * FLOAT_BYTES


# -- green-table: one lambda, many displacements, in 2d ------------------------


def _sparse_sites_2d(rng, count: int, near: int, radius: int, gap: int) -> dict:
    """count sites of height U(0.2, 0.6), pairwise sup distance >= gap.

    The first two lie within sup radius ``near`` of the origin so that
    small boxes still see part of the support.
    """
    values: dict = {}
    while len(values) < count:
        r = near if len(values) < 2 else radius
        site = tuple(int(c) for c in rng.integers(-r, r + 1, size=2))
        if all(max(abs(a - b) for a, b in zip(site, s)) >= gap for s in values):
            values[site] = float(rng.uniform(0.2, 0.6))
    return values


def green_setup(rng, size, root: Path) -> dict:
    R = size["table_radius"]
    disps = [(i, j) for i in range(-R, R + 1) for j in range(-R, R + 1)]
    probes = [disps[int(i)] for i in rng.choice(len(disps), size=size["probes"], replace=False)]
    sites = _sparse_sites_2d(rng, size["sites"], near=3, radius=14, gap=3)
    return {
        "lam_table": _signed(rng, 1.2, 2.0),
        "lam_bs": _signed(rng, 1.2, 2.0),
        "lam_rvb": _signed(rng, 8.0, 12.0),
        "displacements": disps,
        "probes": probes,
        "spec": potential.make_potential(2, sites, box_radius=16),
        "bs_box": 16,
        "rvb_box": size["rvb_box"],
        "pts_table": size["pts_table"],
        "pts_bs": size["pts_bs"],
        "pts_rvb": size["pts_rvb"],
    }


def green_iterate(inp, ledger: Ledger, scratch: Path) -> None:
    st: dict = {}

    def kernel():
        st["k"] = sw.simple2d()
        return {"lower = -1": _close(st["k"].lower, -1.0, 1e-9)}

    def table():
        k, lam = st["k"], inp["lam_table"]
        tab = resolvent.green_table(k, lam, inp["displacements"], inp["pts_table"])
        checks = {"size": len(tab) == len(inp["displacements"])}
        for x in inp["probes"]:
            ref = resolvent.green_kernel(k, lam, x, inp["pts_table"]).value
            checks[f"green_kernel{x}"] = _close(tab[x], ref, 1e-10)
        series = resolvent.g_lambda_series(k, lam).value
        checks["g(0) = series"] = _close(lam * tab[(0, 0)], series, 1e-8)
        return checks

    def assemble():
        spec = inp["spec"]
        asm = bs.assemble_bs(st["k"], spec, inp["lam_bs"], inp["bs_box"], inp["pts_bs"])
        heights = np.array(asm.support_values)
        return {
            "support": len(asm.support_sites) == len(spec.sites),
            "symmetric": float(np.max(np.abs(asm.matrix - asm.matrix.T))) <= 1e-12,
            "diagonal = gamma V": float(np.max(np.abs(np.diag(asm.matrix) - asm.gamma * heights)))
            <= 1e-10,
        }

    def neumann():
        lam = inp["lam_bs"]
        alpha = 0.5 * math.acosh(2.0 * abs(lam) - 1.0)  # half the axis decay rate
        cert = bs.neumann_invertibility(
            st["k"], inp["spec"], (), lam, alpha, inp["bs_box"], inp["pts_bs"]
        )
        return {"certificate valid": cert.valid}

    def factorized():
        box = inp["rvb_box"]
        R, residual = bs.resolvent_via_bs(
            st["k"], inp["spec"], inp["lam_rvb"], box, pts_per_axis=inp["pts_rvb"]
        )
        side = (2 * box + 1) ** 2
        return {"shape": R.shape == (side, side), "identity residual <= 1e-6": residual <= 1e-6}

    ledger.run("kernel_2d", kernel)
    ledger.run("green_table", table)
    ledger.run("assemble_bs", assemble)
    ledger.run("neumann_invertibility", neumann)
    ledger.run("resolvent_via_bs", factorized)


def green_describe(inp) -> dict:
    return {
        "lam_table": inp["lam_table"],
        "lam_bs": inp["lam_bs"],
        "lam_rvb": inp["lam_rvb"],
        "displacements": len(inp["displacements"]),
        "probes": [list(x) for x in inp["probes"]],
        "sites": [[list(s), h] for s, h in zip(inp["spec"].sites, inp["spec"].heights)],
        "ranges": {
            "lam_table": "+-[1.2, 2.0]",
            "lam_bs": "+-[1.2, 2.0]",
            "lam_rvb": "+-[8, 12]",
            "sites": "sup radius 14 (two within 3), pairwise gap >= 3, heights [0.2, 0.6]",
        },
    }


def green_largest(inp) -> tuple[str, int]:
    finest = (4 * max(inp["pts_table"], inp["pts_bs"], inp["pts_rvb"])) ** 2
    vol = (2 * inp["rvb_box"] + 1) ** 2
    candidates = [
        (f"p-hat grid ({finest} points)", finest * FLOAT_BYTES),
        (f"resolvent_via_bs matrices ({vol} x {vol})", vol * vol * FLOAT_BYTES),
    ]
    return max(candidates, key=lambda c: c[1])


# -- level-sweep: many lambda at displacement 0 ---------------------------------


def level_setup(rng, size, root: Path) -> dict:
    lazies = []
    for _ in range(size["lazy_kernels"]):
        q = float(rng.uniform(0.0, 0.45))
        ess = tuple(sorted(float(v) for v in rng.uniform(0.5, 2.0, size=size["levels"])))
        # heights cycle through the essential values on the sites +-3^k
        values = {}
        k = 0
        while 3**k <= 2048:
            h = ess[k % len(ess)]
            values[(3**k,)] = h
            values[(-(3**k),)] = h
            k += 1
        spec = potential.make_potential(
            1, values, tail="sparse", essential_values=ess, box_radius=2048
        )
        lazies.append({"q": q, "spec": spec})
    scans = []
    for _ in range(size["bs_scans"]):
        q, v = float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.5, 2.0))
        scans.append({"q": q, "v": v, "spec": potential.single_delta(1, v)})
    q3 = float(rng.uniform(0.0, 0.3))
    raw3 = {(0, 0, 0): q3}
    for axis in range(3):
        for sign in (1, -1):
            off = [0, 0, 0]
            off[axis] = sign
            raw3[tuple(off)] = (1.0 - q3) / 6.0
    return {
        "lazies": lazies,
        "v2": [float(v) for v in rng.uniform(2.5, 5.0, size=size["levels_2d"])],
        "scans": scans,
        "q3": q3,
        "raw3": raw3,
        "v3": float(rng.uniform(3.0, 6.0)),
    }


def level_iterate(inp, ledger: Ledger, scratch: Path) -> None:
    for i, lazy in enumerate(inp["lazies"]):

        def predict(q=lazy["q"], spec=lazy["spec"]):
            kernel = sw.lazy1d(q)
            pred = spectral.essential_spectrum_predictor(kernel, spec)
            checks = {}
            for v in (e for e in spec.essential_values if e > 0.0):
                lam_minus, lam_plus = spectral.lambda_pm_1d(q, v)
                above = pred.above.get(v)
                below = pred.below.get(v, ())
                checks[f"lambda_+(v={v:.4f})"] = above is not None and _close(above, lam_plus, 1e-9)
                checks[f"lambda_-(v={v:.4f})"] = len(below) == 1 and _close(below[0], lam_minus, 1e-9)
            return checks

        ledger.run(f"essential_1d_{i}", predict)

    def crossings_2d():
        kernel = sw.simple2d()
        checks = {}
        for v in inp["v2"]:
            target = 1.0 + 1.0 / v
            lc = resolvent.g_level_crossings(kernel, target)
            if lc.above is None or len(lc.below) != 1:
                checks[f"two roots v={v:.4f}"] = False
                continue
            # the simple walk is bipartite, so g_{-lambda}(0) = g_lambda(0)
            checks[f"root pair symmetric v={v:.4f}"] = _close(lc.above, -lc.below[0], 1e-9)
            for root in (lc.above, lc.below[0]):
                series = resolvent.g_lambda_series(kernel, root).value
                checks[f"series at {root:+.6f}"] = _close(series, target, 1e-6)
        return checks

    ledger.run("crossings_2d", crossings_2d)

    for i, scan in enumerate(inp["scans"]):

        def crossing_scan(q=scan["q"], v=scan["v"], spec=scan["spec"]):
            kernel = sw.lazy1d(q)
            lam = bs.bs_crossing_scan(kernel, spec, 1.03, 4.0, box=60, xtol=1e-10)
            return {"lambda_+": _close(lam, spectral.lambda_pm_1d(q, v)[1], 1e-6)}

        ledger.run(f"bs_crossing_scan_{i}", crossing_scan)

    st: dict = {}

    def validate_3d():
        st["k3"] = sw.validate_kernel(inp["raw3"])
        k3 = st["k3"]
        return {"reach 1": k3.reach == 1, "lower = 2q - 1": _close(k3.lower, 2 * inp["q3"] - 1, 1e-9)}

    def crossings_3d():
        target = 1.0 + 1.0 / inp["v3"]
        lc = resolvent.g_level_crossings(st["k3"], target)
        checks = {}
        for root in ([lc.above] if lc.above is not None else []) + list(lc.below):
            if abs(root) > 1.0:
                series = resolvent.g_lambda_series(st["k3"], root).value
                checks[f"series at {root:+.6f}"] = _close(series, target, 1e-6)
        checks["root above"] = lc.above is not None
        return checks

    ledger.run("validate_kernel_3d", validate_3d)
    # fails at the commit that defined this benchmark: the 3d quadrature
    # ladder starts below g_lambda_quadrature's 64-point floor
    ledger.run("crossings_3d", crossings_3d)


def level_describe(inp) -> dict:
    return {
        "lazy": [{"q": z["q"], "essential_values": list(z["spec"].essential_values)} for z in inp["lazies"]],
        "v2": inp["v2"],
        "scans": [{"q": s["q"], "v": s["v"]} for s in inp["scans"]],
        "q3": inp["q3"],
        "v3": inp["v3"],
        "ranges": {
            "lazy q": [0.0, 0.45],
            "lazy essential values": [0.5, 2.0],
            "2d v": [2.5, 5.0],
            "bs scan q, v": [[0.0, 0.4], [0.5, 2.0]],
            "3d q": [0.0, 0.3],
            "3d v": [3.0, 6.0],
        },
    }


def level_largest(inp) -> tuple[str, int]:
    # validate_kernel scans p-hat on a 256^3 grid: phases are (256^3, 7) doubles
    points = 256**3
    return "validate_kernel 3d phase array (256^3 x 7)", points * len(inp["raw3"]) * FLOAT_BYTES


# -- chain2d: a dense 2d truncation and the Doob chain built on it ---------------


def chain_setup(rng, size, root: Path) -> dict:
    L = size["L"]
    anchor_site = tuple(int(c) for c in rng.integers(-2, 3, size=2))
    spec = potential.build_geometric_sparse(
        2,
        v=float(rng.uniform(0.4, 0.6)),
        base=3,
        box_radius=L,
        anchor=(anchor_site, float(rng.uniform(1.4, 1.8))),
    )
    return {
        "L": L,
        "spec": spec,
        "steps": size["steps"],
        "chain_seed": int(rng.integers(1, 2**31)),
        "mc_seed": int(rng.integers(1, 2**31)),
        "mc_samples": size["mc_samples"],
        "mc_n": 12,
        "partition_N": size["partition_N"],
        "gap_L": size["gap_L"],
    }


def chain_iterate(inp, ledger: Ledger, scratch: Path) -> None:
    st: dict = {}
    L, spec = inp["L"], inp["spec"]

    def truncate():
        st["k"] = sw.simple2d()
        st["op"] = spectral.truncated_operator(st["k"], spec, L)
        return {"volume": st["op"].volume == (2 * L + 1) ** 2}

    def eigensolve():
        st["top"] = spectral.eigensolve_top(st["op"], 6).by_value[0]
        return {"top residual <= 1e-10": st["top"].residual <= 1e-10}

    def perron():
        r, phi = spectral.perron_pair(st["op"])
        st["pair"] = (r, phi)
        return {"agrees with eigensolve_top": _close(r, st["top"].value, 1e-9), "phi > 0": float(phi.min()) > 0.0}

    def doob():
        st["chain"] = gibbs.doob_kernel(st["k"], spec, st["pair"], L)
        return {"row deficit <= 1e-6": st["chain"].row_deficit <= 1e-6}

    def simulate():
        chain = st["chain"]
        path = gibbs.simulate_chain(chain, (0, 0), inp["steps"], inp["chain_seed"])
        emp = gibbs.occupation_distribution(chain, path)
        tv = 0.5 * float(np.abs(emp - chain.stationary).sum())
        return {
            "length": len(path) == inp["steps"] + 1,
            "inside box": int(np.max(np.abs(path))) <= L,
            "occupation TV <= 0.05": tv <= 0.05,
        }

    def monte_carlo():
        n = inp["mc_n"]
        box = sw.LatticeBox.cube(n + 2, 2)
        exact = float(gibbs.fk_semigroup(st["k"], spec, np.ones(box.shape), n, box)[n + 2, n + 2])
        est, err = gibbs.fk_monte_carlo(st["k"], spec, None, n, inp["mc_samples"], inp["mc_seed"])
        return {"within 5 sigma of fk_semigroup": abs(est - exact) <= 5.0 * err}

    def partition():
        growth = gibbs.partition_growth(st["k"], spec, inp["partition_N"])
        return {"ratio estimate near r": abs(growth.final_ratio_estimate - st["pair"][0]) <= 1e-3}

    def gap():
        proj = spectral.gap_projection_test(st["k"], spec, inp["gap_L"])
        return {
            "eps < 1": proj.eps_fit < 1.0,
            "eps within 10%": abs(proj.eps_fit - proj.eps_pred) <= 0.10 * proj.eps_pred,
        }

    ledger.run("truncated_operator", truncate)
    ledger.run("eigensolve_top", eigensolve)
    ledger.run("perron_pair", perron)
    ledger.run("doob_kernel", doob)
    ledger.run("simulate_chain", simulate)
    ledger.run("fk_monte_carlo", monte_carlo)
    ledger.run("partition_growth", partition)
    ledger.run("gap_projection_test", gap)


def chain_describe(inp) -> dict:
    spec = inp["spec"]
    return {
        "L": inp["L"],
        "potential": spec.generator,
        "anchor": [[list(s), h] for s, h in zip(spec.sites, spec.heights) if h > spec.v0],
        "chain_seed": inp["chain_seed"],
        "mc_seed": inp["mc_seed"],
        "steps": inp["steps"],
        "mc_samples": inp["mc_samples"],
        "ranges": {"v": [0.4, 0.6], "anchor value": [1.4, 1.8], "anchor site": "sup radius 2"},
    }


def chain_largest(inp) -> tuple[str, int]:
    vol = (2 * inp["L"] + 1) ** 2
    return f"dense truncation ({vol} x {vol})", vol * vol * FLOAT_BYTES


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    iterate: Callable
    describe: Callable
    largest: Callable
    sizes: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "repro", repro_setup, repro_iterate, repro_describe, repro_largest,
            {
                "full": {"criteria": tuple(range(1, 15)), "cli": tuple(k for k, _ in CLI_RUNS)},
                "toy": {"criteria": (2, 6, 12, 14), "cli": ("validate", "green", "fk")},
            },
        ),
        Workload(
            "green-table", green_setup, green_iterate, green_describe, green_largest,
            {
                "full": {"table_radius": 10, "probes": 6, "sites": 8, "rvb_box": 6,
                         "pts_table": 128, "pts_bs": 128, "pts_rvb": 64},
                "toy": {"table_radius": 3, "probes": 3, "sites": 3, "rvb_box": 6,
                        "pts_table": 128, "pts_bs": 128, "pts_rvb": 64},
            },
        ),
        Workload(
            "level-sweep", level_setup, level_iterate, level_describe, level_largest,
            {
                "full": {"lazy_kernels": 2, "levels": 3, "levels_2d": 1, "bs_scans": 2},
                "toy": {"lazy_kernels": 1, "levels": 1, "levels_2d": 0, "bs_scans": 1},
            },
        ),
        Workload(
            "chain2d", chain_setup, chain_iterate, chain_describe, chain_largest,
            {
                "full": {"L": 22, "steps": 400_000, "mc_samples": 200_000,
                         "partition_N": 80, "gap_L": 16},
                "toy": {"L": 12, "steps": 20_000, "mc_samples": 20_000,
                        "partition_N": 80, "gap_L": 6},
            },
        ),
    )
}


def seeded_rng(seed: int, workload: str) -> np.random.Generator:
    """Generator keyed by the seed and the workload, independent across workloads."""
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, key])


def artifact_digests(scratch: Path) -> dict:
    """sha256 and size of every file the CLI runs wrote (recorded, never gated)."""
    out = {}
    for path in sorted(p for p in scratch.rglob("*") if p.is_file()):
        data = path.read_bytes()
        out[str(path.relative_to(scratch))] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
    return out
