"""Command-line experiment runner.

Every subcommand reads a JSON config (`--config`), runs one experiment, and
writes deterministic artifacts into `--out`: a CSV table per experiment and
a versioned JSON summary.  `suite paper-repro` replays the whole acceptance
battery and exits nonzero if any criterion fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from . import birman_schwinger as bsmod
from . import gibbs as gibbsmod
from . import lattice, resolvent, spectral
from .config import (
    check_experiment,
    kernel_from_config,
    load_config,
    number,
    numbers,
    potential_from_config,
    require,
)
from .errors import ConfigInvalid, ExperimentFailed, SparseWalkError

SCHEMA_VERSION = 1


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else c for c in row])
    _write_atomic(path, buf.getvalue())


def _write_summary(out: Path, kind: str, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "experiment": kind, **payload}
    _write_atomic(out / "summary.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")


# -- experiments ---------------------------------------------------------------

def exp_validate(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    rows = [(list(off), p) for off, p in zip(kernel.offsets, kernel.probs)]
    _write_csv(out / "kernel.csv", ["offset", "probability"], rows)
    return {
        "dimension": kernel.dimension,
        "range": kernel.reach,
        "p0": kernel.p0,
        "spectrum_lower": kernel.lower,
        "bipartite": spectral.bipartite_detect(kernel) is not None,
    }


def exp_green(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    lambdas = numbers(require(cfg, "lambdas", "green"), "lambdas")
    xs = cfg.get("xs", [0])
    if not isinstance(xs, list):
        raise ConfigInvalid(f"'xs' must be a list of displacements, got {xs!r}")
    d = kernel.dimension
    xs = [numbers(x, "xs", int, d) if isinstance(x, list) else number(x, "xs", int) for x in xs]
    pts = number(cfg.get("pts_per_axis", 256), "pts_per_axis", int, least=resolvent.PTS_FLOOR)
    rows = []
    for lam in lambdas:
        for x in xs:
            ev = resolvent.green_kernel(kernel, lam, x, pts)
            rows.append((lam, x if isinstance(x, int) else list(x), ev.value, ev.method, ev.est_error))
    _write_csv(out / "green.csv", ["lambda", "x", "value", "method", "est_error"], rows)
    return {"points": len(rows)}


def _positive(cfg: dict, key: str, default: float) -> float:
    # a config error (exit 2) here, since exp_bs turns every certificate
    # error into valid_certificate=False and exp_decay's would be exit 1
    value = number(cfg.get(key, default), key)
    if not value > 0.0:
        raise ConfigInvalid(f"'{key}' must be positive, got {value!r}")
    return value


def exp_bs(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    if spec is None:
        raise ConfigInvalid("bs experiment needs a potential")
    lo = number(require(cfg, "lambda_lo", "bs"), "lambda_lo")
    hi = number(require(cfg, "lambda_hi", "bs"), "lambda_hi")
    count = number(cfg.get("scan_points", 21), "scan_points", int, least=1)
    box = number(cfg.get("box_radius", 256), "box_radius", int, least=1)
    alpha = _positive(cfg, "alpha", 0.5)
    rows = []
    for lam in np.linspace(lo, hi, count):
        asm = bsmod.assemble_bs(kernel, spec, float(lam), box)
        _, dist = bsmod.bs_eigenvalue_test(asm)
        try:
            cert = bsmod.neumann_invertibility(kernel, spec, (), float(lam), alpha, box)
            valid = cert.valid
        except SparseWalkError:
            valid = False
        rows.append((float(lam), dist, valid))
    _write_csv(out / "bs.csv", ["lambda", "distance_to_1", "valid_certificate"], rows)
    return {"scan": [lo, hi, count]}


def exp_spectrum(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    floor = spectral._truncation_floor(kernel)
    Ls = numbers(require(cfg, "L_sequence", "spectrum"), "L_sequence", int, least=floor)
    if len(set(Ls)) < 2:
        raise ConfigInvalid(f"'L_sequence' needs at least two box radii that differ, got {Ls}")
    bundle = spectral.spectral_report(kernel, spec, Ls)
    lam0 = bundle.lambda0 if bundle.lambda0 is not None else ""
    rows = [
        (rep.L, rep.r, rep.ell, rep.gap, rep.abs_gap, rep.second_abs, lam0,
         rep.decay.rate if rep.decay is not None else "")
        for rep in bundle.reports
    ]
    _write_csv(
        out / "spectrum.csv",
        ["L", "r", "ell", "gap", "abs_gap", "second_abs", "lambda0_pred", "decay_alpha"],
        rows,
    )
    eigen = {str(rep.L): [float(w) for w in rep.eigenvalues] for rep in bundle.reports}
    _write_atomic(out / "eigenvalues.json", json.dumps(eigen, sort_keys=True) + "\n")
    return {
        "lambda0": bundle.lambda0,
        "lambda_v": list(bundle.lambda_v),
        "discrete": list(bundle.discrete),
    }


def exp_essential(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    if spec is None:
        raise ConfigInvalid("essential experiment needs a potential")
    pred = spectral.essential_spectrum_predictor(kernel, spec)
    rows = [("lambda0", pred.lambda0 if pred.lambda0 is not None else "")]
    rows += [(f"root_above_v={v}", lam) for v, lam in sorted(pred.above.items())]
    for v, lams in sorted(pred.below.items()):
        for i, lam in enumerate(lams):
            rows.append((f"root_below_v={v}_{i}", lam))
    _write_csv(out / "essential.csv", ["quantity", "lambda"], rows)
    return {"lambda_v": list(pred.lambda_v), "lambda0": pred.lambda0}


def exp_decay(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    if spec is None:
        raise ConfigInvalid("decay experiment needs a potential")
    lam = number(cfg.get("lambda", 2.0), "lambda")
    alpha = _positive(cfg, "alpha", 0.6)
    box = number(cfg.get("box_radius", 512), "box_radius", int, least=1)
    L = number(cfg.get("L", 80), "L", int, least=spectral._truncation_floor(kernel))
    lo, hi = numbers(cfg.get("fit_window", (10, 18)), "fit_window", int, 2)
    if not (0 <= lo and hi <= L and hi - lo + 1 >= resolvent.MIN_FIT_POINTS):
        span = f"and span at least {resolvent.MIN_FIT_POINTS} sites"
        raise ConfigInvalid(f"'fit_window' [{lo}, {hi}] must lie in [0, L] = [0, {L}] {span}")
    cert = bsmod.neumann_invertibility(kernel, spec, (), lam, alpha, box)
    op = spectral.truncated_operator(kernel, spec, L)
    pred = spectral.essential_spectrum_predictor(kernel, spec)
    rows = []
    for pair in spectral.discrete_pairs(op, pred.bottom, pred.top)[1]:
        fit = spectral.axis_decay(op, pair.phi, (lo, hi))
        rows.append((pair.value, fit.rate, fit.residual_rms) if fit else (pair.value, "", ""))
    _write_csv(out / "decay.csv", ["eigenvalue", "decay_rate", "fit_rms"], rows)
    return {
        "certificate_valid": cert.valid,
        "epsilon0": cert.epsilon0,
        "contraction": cert.contraction,
        "discrete_count": len(rows),
    }


def _chain_from_config(cfg, kernel, spec):
    L = number(cfg.get("L", 60), "L", int, least=spectral._truncation_floor(kernel))
    op = spectral.truncated_operator(kernel, spec, L)
    r, phi = spectral.perron_pair(op)
    return op, gibbsmod.doob_kernel(kernel, spec, (r, phi), op.box)


def exp_gibbs(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    n_lo, n_hi = numbers(cfg.get("n_range", (10, 60)), "n_range", int, 2)
    k_fixed = number(cfg.get("k", 1), "k", int, least=1)
    if not k_fixed < n_lo <= n_hi:
        raise ConfigInvalid(f"'n_range' [{n_lo}, {n_hi}] must satisfy k = {k_fixed} < lo <= hi")
    e1 = [1] + [0] * (kernel.dimension - 1)
    site = tuple(numbers(cfg.get("indicator_site", e1), "indicator_site", int, kernel.dimension))
    # the functional reads S_1, which only ever lands on a support offset
    if site not in kernel.offsets:
        raise ConfigInvalid(f"'indicator_site' {list(site)} is not a one-step move of the kernel")
    op, chain = _chain_from_config(cfg, kernel, spec)
    # before any artifact: past DENSE_CAP this raises BoxTooLarge
    w = np.linalg.eigvalsh(op.sym)

    fit = gibbsmod.convergence_rate(
        kernel, spec, chain, k_fixed, range(n_lo, n_hi + 1),
        lambda path: 1.0 if path[0] == site else 0.0,
    )
    rows = [(n, d, fit.eps_fit) for n, d in fit.deviations]
    _write_csv(out / "gibbs.csv", ["n", "D_n", "fitted_eps"], rows)
    second = spectral._second_abs(w, float(w[-1]))
    return {"fitted_eps": fit.eps_fit, "spectral_eps": second / float(w[-1])}


def _seed(cfg: dict) -> int:
    # a config error (exit 2) before any computation; counter_rng's own
    # SeedOutOfRange would come only at the first draw, as exit 1
    seed = number(cfg["seed"], "seed", int, least=0)
    if seed >= gibbsmod.SEED_LIMIT:
        raise ConfigInvalid(f"'seed' must be below 2**64, got {seed}")
    return seed


def exp_doob(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    steps = number(cfg.get("steps", 100000), "steps", int, least=0)
    seed = _seed(cfg)
    op, chain = _chain_from_config(cfg, kernel, spec)
    path = gibbsmod.simulate_chain(chain, (0,) * kernel.dimension, steps, seed)
    emp = gibbsmod.occupation_distribution(chain, path)
    tv = 0.5 * float(np.abs(emp - chain.stationary).sum())
    rows = [
        ([int(c) for c in site], float(m), float(e))
        for site, m, e in zip(chain.sites, chain.stationary, emp)
        if m > 1e-12 or e > 0
    ]
    _write_csv(out / "doob.csv", ["site", "stationary", "empirical"], rows)
    return {"row_deficit": chain.row_deficit, "tv_distance": tv, "rate": chain.rate}


def exp_fk(cfg: dict, out: Path) -> dict:
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    n = number(cfg.get("n", 20), "n", int, least=0)
    samples = number(cfg.get("samples", 100000), "samples", int, least=gibbsmod.MIN_SAMPLES)
    seed = _seed(cfg)
    box = lattice.LatticeBox.cube(n * kernel.reach + 2, kernel.dimension)
    powers = lattice._powers(kernel, gibbsmod._dvec_on(spec, box), np.ones(box.shape), n, box)
    exact = [float(z[(box.radius,) * kernel.dimension]) for z in powers]
    rows = [(m, z, z ** (1.0 / m) if m else 1.0, "", "") for m, z in enumerate(exact)]
    est, err = gibbsmod.fk_monte_carlo(kernel, spec, None, n, samples, seed)
    rows[-1] = rows[-1][:3] + (est, err)
    _write_csv(out / "fk.csv", ["n", "exact", "z_root", "mc_estimate", "mc_stderr"], rows)
    if abs(est - exact[-1]) > 3.0 * err:
        raise ExperimentFailed(
            f"fk: Monte Carlo estimate {est} deviates from exact {exact[-1]} beyond 3 sigma"
        )
    return {"n": n, "exact": exact[-1], "estimate": est, "stderr": err}


RUNNERS = {
    "validate": exp_validate,
    "green": exp_green,
    "bs": exp_bs,
    "spectrum": exp_spectrum,
    "essential": exp_essential,
    "decay": exp_decay,
    "gibbs": exp_gibbs,
    "doob": exp_doob,
    "fk": exp_fk,
}


def run_experiment(cfg: dict, out_dir) -> dict:
    kind = check_experiment(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        payload = RUNNERS[kind](cfg, out)
    except (ConfigInvalid, ExperimentFailed):
        raise
    except SparseWalkError as err:
        tb = err.__traceback__
        while tb is not None and tb.tb_next is not None:
            tb = tb.tb_next
        origin = tb.tb_frame.f_globals.get("__name__", "?") if tb else "?"
        raise ExperimentFailed(
            f"{kind}: invariant {type(err).__name__} violated in {origin}: {err}"
        ) from err
    _write_summary(out, kind, {"results": payload})
    return payload


def run_suite(name: str, out_dir, only=None) -> bool:
    if name != "paper-repro":
        raise ConfigInvalid(f"unknown suite {name!r}; available: paper-repro")
    indices = sorted(acceptance.CRITERIA) if not only else sorted(only)
    bad = [i for i in indices if i not in acceptance.CRITERIA]
    if bad:
        raise ConfigInvalid(f"unknown criteria {bad}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [acceptance.run_criterion(i) for i in indices]
    # timings go to stdout only: artifact files must be byte-identical run to run
    rows = [(r.index, r.name, "PASS" if r.passed else "FAIL") for r in results]
    _write_csv(out / "suite.csv", ["criterion", "name", "status"], rows)
    payload = {
        "results": {
            str(r.index): {
                "name": r.name,
                "passed": r.passed,
                "checks": {k: bool(v) for k, v in r.checks.items()},
            }
            for r in results
        }
    }
    _write_summary(out, "suite", payload)
    for r in results:
        print(r.summary_line())
    return all(r.passed for r in results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsewalk",
        description="Spectral laboratory for sparsely perturbed lattice walks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in RUNNERS:
        p = sub.add_parser(kind, help=f"run the '{kind}' experiment from a config")
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    p = sub.add_parser("suite", help="run an aggregate verification suite")
    p.add_argument("name", nargs="?", default="paper-repro")
    p.add_argument("--out", default="results/suite")
    p.add_argument("--only", type=int, nargs="*", default=None, help="criteria subset")
    return parser


#: the parser of main, built by its first call: build_parser takes about
#: 1.6 ms and parsing leaves the parser unchanged, so one serves every call
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.command == "suite":
            ok = run_suite(args.name, args.out, only=args.only)
            return 0 if ok else 1
        cfg = load_config(args.config)
        cfg["experiment"] = args.command
        if args.seed is not None:
            cfg["seed"] = args.seed
        run_experiment(cfg, args.out)
        return 0
    except ConfigInvalid as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ExperimentFailed as err:
        print(f"experiment failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
