"""Fingerprint of the results that a pure refactor must leave unchanged.

Prints one JSON document holding the ``repr`` of every ``values`` entry of
the 14 acceptance criteria and the sha256 of every artifact written by the
nine CLI experiments on ``demos/configs`` (``doob`` and ``fk`` at a fixed
seed), plus nineteen sections: ``bs2d``, the ``resolvent_via_bs`` residual
and Frobenius norm and every ``neumann_invertibility`` certificate field
for a fixed 3-site potential under the simple 2d walk; ``kernels``, the
bottom of the spectrum ``WalkKernel.lower`` of six kernels in 1d, 2d and
3d; ``chain2d``, the Perron pair, the Doob chain and the digests of a
seeded path of the simple 2d walk on Q(0, 12) under an anchored geometric
sparse potential and of its ``occupation_distribution``, so a change to the
sampler or to the counting shows; ``eigen2d``, the top ``eigensolve_top``
values by value and moduli by |value| of that operator, with their residuals;
``green_nd``, Green values in 2d and 3d: the level crossings of the
simple 2d walk, ``g_lambda_quadrature`` of the simple 2d and lazy 3d
walks, and a ``green_table`` of a 2d kernel with diagonal moves;
``green_full2d``, ``green_table`` values of a 2d kernel with range 2 on
both axes, the one case on the full torus grid beyond 1d; ``sturm``,
the ``(distance, exact)`` pairs of the 60-digit Sturm oracle on seven 1d
cases (a float target, a str target at L = 128, a target that is an
eigenvalue, so the search ends on the floor, a target more than 1 above
the spectrum, so the search widens, one below its bottom, one inside
the bulk, and criterion 5's L = 1024 call, which ends on the floor);
``gap2d``, the branch, fitted and predicted rates of
``gap_projection_test`` on the kernel and potential of the 2d chain case;
and ``crossings1d``, both level crossings of g_lambda(0) = 1 + 1/v for the
1d lazy walk at three q and three v, and for a range-3 1d kernel at the
same v; ``gibbs2d``, the ``convergence_rate`` deviations of the
kernel and potential of the 2d chain case against its chain, the
``partition_growth`` values Z_N to N = 80 for that potential, and
``convolution_power_at_zero`` of the 2d kernel with diagonal moves for
n <= 20; ``discrete1d``, the ``discrete_pairs`` values and their
``axis_decay`` rates and residuals for the lazy 1d walk (q = 0.3) and the
simple 1d walk under the anchored geometric potential at L = 80, below
the essential spectrum as well as above; and ``shifted2d``, the
``resolvent_via_bs`` residual and Frobenius norm and the ``assemble_bs``
support count and matrix norm of the ``bs2d`` case on a box centred off the
origin; and ``mc_nd``, the ``fk_monte_carlo`` estimate and standard error
at a fixed seed for the simple 2d walk and the 289-offset uniform walk on
the 17 x 17 square, each under the potential of the 2d chain case, for the
lazy 3d walk under a 3d geometric potential, and for the lazy 1d walk from
x0 = 5 under a potential of non-dyadic heights at a sample count that is
not a multiple of ``MC_CHUNK``, each with f = 1 and with a decaying f; and
``bsscan1d``, the ``bs_crossing_scan``
crossing of a single delta under the lazy 1d walk at criterion 4's six
(v, q) and at v = 1.5, q = 0.3, with criterion 4's bracket, box and
xtol; and ``saddle2d``, the ``WalkKernel.lower`` of a 2d kernel whose grid
argmin of p-hat sits beside a saddle; and ``irreducible``, the verdict of
``validate_kernel`` (``accepted`` or ``NotIrreducible``) on six named
supports: three proper sublattices, a 1d even support, and two long
generator pairs that generate the whole lattice; and ``report1d``, every
number the ``spectrum`` experiment writes per box radius (r, ell, gap,
abs_gap, second_abs and the decay rate and fit rms of the top
eigenfunction) and its discrete eigenvalues, from ``spectral_report`` on
the setting of ``spectrum_anchor.json`` and on the lazy 1d walk
(q = 0.3) under the same potential and radii; and ``green1d_far``, the
``green_table`` values of the lazy 1d walk (q = 0.25) and the simple 1d
walk at lambda = 1.05, 2 and -2 and |x| up to 1024, at pts 512; and
``eigen_degenerate``, the ``eigensolve_top`` values by value and their
residuals on four truncations whose wanted eigenvalues repeat, so the
two-row Lanczos run must find every copy: the simple 2d walk on Q(0, 10)
at count 4 (a double eigenvalue), the simple 3d walk and the lazy 3d walk
(q = 0.3) on Q(0, 4) at counts 6 and 7 (two triple ones), and the lazy 1d
walk (q = 0.25) on Q(0, 100) under heights 2 at +-3^k at count 6 (wanted
values within 5e-13 of each other).
The package is imported from ``PYTHONPATH``, so two checkouts are compared
by running this script against each and diffing the outputs:

    PYTHONPATH=<checkout>/src python3 tools/same_results.py > same.json

A change that moves low-order bits on purpose is checked against a saved
fingerprint instead:

    PYTHONPATH=src python3 tools/same_results.py --against same.json

This prints every value that moved, marked beyond tolerance if its
relative change exceeds 1e-9 (or, below 1e-12 in magnitude, its absolute
change exceeds 1e-14), then lists the artifacts whose digest changed.  A
path digest has no tolerance: any change is beyond it.  It exits 1 if any
value (or CLI exit code) moved beyond those tolerances.  A saved
fingerprint without the ``bs2d``, ``kernels``, ``chain2d``, ``eigen2d``,
``green_nd``, ``green_full2d``, ``sturm``, ``gap2d``, ``crossings1d``,
``gibbs2d``, ``discrete1d``, ``shifted2d``, ``mc_nd``, ``bsscan1d``,
``saddle2d``, ``irreducible``, ``report1d``, ``green1d_far`` or
``eigen_degenerate`` section
still loads; that section is then left out of the comparison.

BLAS runs single-threaded, as in ``perfbench/run.py``: the script sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy is imported, whatever the caller's environment holds.  The
``eigen2d`` values move in their last digits with the thread count, so
fingerprints taken under different default settings still compare equal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import sparsewalk as sw
from sparsewalk import acceptance, cli, spectral
from sparsewalk.config import kernel_from_config, load_config, potential_from_config
from sparsewalk.errors import NotIrreducible

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
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
SEEDED = {"doob": 12345, "fk": 7}
#: the 2d Birman-Schwinger case: simple2d, lambda 2, box radius 4, pts 64
BS2D_SITES = {(0, 0): 1.0, (1, -1): 0.5, (-2, 1): 0.25}
#: the shifted 2d case: the bs2d case on a radius-4 box centred here
SHIFTED2D_CENTER = (2, -1)
#: kernels whose ``lower`` is recorded: the presets, two kernels whose
#: minimum of p-hat lies off every grid, and the 3d lazy walk (q = 0.17)
KERNELS = {
    "simple1d": sw.simple1d,
    "lazy1d(0.25)": lambda: sw.lazy1d(0.25),
    "simple2d": sw.simple2d,
    "offgrid1d": lambda: sw.validate_kernel({1: 0.3, -1: 0.3, 2: 0.2, -2: 0.2}),
    "offgrid2d": lambda: sw.validate_kernel(
        {
            (1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15,
            (1, 1): 0.1, (-1, -1): 0.1, (1, -1): 0.1, (-1, 1): 0.1,
        }
    ),
    "lazy3d(0.17)": lambda: lazy3d(0.17),
}
#: the 2d chain case: simple2d on Q(0, 12), geometric sparse v = 0.5 on
#: +-3^k e1 with an anchor of 1.6 at (1, -1), a 20k-step path from the origin;
#: the eigen case takes its top EIGEN2D_COUNT pairs
CHAIN2D_L = 12
CHAIN2D_STEPS = 20_000
CHAIN2D_SEED = 2468
EIGEN2D_COUNT = 6
#: the 2d/3d Green case: level 1 + 1/3.5 of simple2d, g_lambda(0) at pts 64,
#: and a pts-64 table at lambda 1.3 of a kernel with p(+-(1,1)) != p(+-(1,-1))
GREEN_ND_TARGET = 1.0 + 1.0 / 3.5
GREEN_ND_LAMBDAS = (1.3, -1.5)
DIAGONAL_2D = {(1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15, (1, 1): 0.2, (-1, -1): 0.2}
DIAGONAL_XS = [(a, b) for a in range(-2, 3) for b in range(-2, 3)] + [(70, -3), (-5, 33)]
#: the far 1d case: tables of GREEN1D_FAR_KERNELS at GREEN1D_FAR_LAMBDAS and
#: pts 512, out to |x| = 1024 = 2 pts
GREEN1D_FAR_KERNELS = {"lazy1d(0.25)": lambda: sw.lazy1d(0.25), "simple1d": sw.simple1d}
GREEN1D_FAR_LAMBDAS = (1.05, 2.0, -2.0)
GREEN1D_FAR_XS = (1, 10, 100, 512, 1000, 1024)
#: the full-grid 2d case: pts-64 tables at GREEN_ND_LAMBDAS of a kernel
#: with no range-1 axis, on the displacements of the diagonal case
RANGE2_2D = {(1, 0): 0.15, (-1, 0): 0.15, (0, 2): 0.15, (0, -2): 0.15, (2, 1): 0.2, (-2, -1): 0.2}
#: the Sturm cases: (kernel, potential, L, target); 2/sqrt(3) to 64
#: digits is lambda_+ of the simple walk under the geometric potential, and 0
#: is an eigenvalue of the free simple walk on any box of odd side.  The
#: delta case's spectrum lies in [-1, 2] (p-hat >= -1/2 and 1 + V <= 2), so
#: 3.5 is more than 1 above it (the search widens) and -1.5 below its bottom;
#: 0.3 sits inside the bulk of the geometric case
TWO_OVER_ROOT3 = "1.1547005383792515290182975610039149112952035025402537520372046529"


def _geometric_sturm():
    return sw.build_geometric_sparse(1, 1.0, 3, box_radius=2048)


STURM_CASES = {
    "lazy1d(0.25) delta 1.3": (
        lambda: sw.lazy1d(0.25), lambda: sw.single_delta(1, 1.0), 64, 1.3
    ),
    "geometric L=128": (sw.simple1d, _geometric_sturm, 128, TWO_OVER_ROOT3),
    "free floor": (sw.simple1d, lambda: None, 64, 0),
    "lazy1d(0.25) delta above 3.5": (
        lambda: sw.lazy1d(0.25), lambda: sw.single_delta(1, 1.0), 64, 3.5
    ),
    "lazy1d(0.25) delta below -1.5": (
        lambda: sw.lazy1d(0.25), lambda: sw.single_delta(1, 1.0), 64, -1.5
    ),
    "geometric bulk 0.3 L=128": (sw.simple1d, _geometric_sturm, 128, "0.3"),
    "geometric floor L=1024": (sw.simple1d, _geometric_sturm, 1024, TWO_OVER_ROOT3),
}
#: the 1d crossing case: lazy1d at CROSSING_QS and a range-3 kernel, each
#: at the levels 1 + 1/v for v in CROSSING_VS
CROSSING_QS = (0.0, 0.25, 0.45)
CROSSING_VS = (0.3, 1.0, 2.5)
RANGE3_1D = {0: 0.1, 1: 0.2, -1: 0.2, 2: 0.15, -2: 0.15, 3: 0.1, -3: 0.1}
#: the 2d Gibbs case: the indicator of a first step to e1 for n in
#: GIBBS2D_NS, Z_N to GIBBS2D_N_MAX, and return probabilities to GIBBS2D_RETURN
GIBBS2D_NS = range(10, 61)
GIBBS2D_N_MAX = 80
GIBBS2D_RETURN = 20
#: the 1d discrete case: the anchored geometric potential of the acceptance
#: battery under DISCRETE1D_KERNELS on Q(0, 80), each pair's axis decay fitted
#: on the default window of the decay experiment
DISCRETE1D_KERNELS = {"lazy1d(0.3)": lambda: sw.lazy1d(0.3), "simple1d": sw.simple1d}
DISCRETE1D_L = 80
DISCRETE1D_WINDOW = (10, 18)
#: the nd Monte Carlo case: MC_ND_SAMPLES paths of MC_ND_N steps from the
#: origin at seed MC_ND_SEED, with f = 1 and with f = exp(-|x|_1 / 4); the
#: 1d case starts at MC_1D_X0 and draws MC_1D_SAMPLES, which ends mid-chunk,
#: under the heights MC_1D_SITES
MC_ND_N = 12
MC_ND_SAMPLES = 20_000
MC_ND_SEED = 97
MC_1D_X0 = (5,)
MC_1D_SAMPLES = 10_001
MC_1D_SITES = {3: 0.3, 5: 1.0 / 3.0, 6: 0.7, 8: 1.1, 11: 0.45}
#: the 1d Birman-Schwinger crossing case: (v, q) of a single delta under
#: lazy1d(q), scanned on [1.03, 4.0] at box radius 60 and xtol 1e-10
BSSCAN1D_CASES = [(v, q) for v in (0.5, 1.0, 2.0) for q in (0.0, 0.25)] + [(1.5, 0.3)]
#: the saddle case: a 2d kernel whose p-hat grid argmin, cell (0, 255) at
#: 256 points per axis, sits beside the saddle at (pi, pi)
SADDLE2D = {(0, 0): 0.13245605167956526}
for _off, _p in (
    ((1, 0), 0.13725633299288578),
    ((1, 1), 0.06215126163449404),
    ((2, 1), 0.13903615845314515),
    ((2, 3), 0.07380970347817357),
    ((2, -2), 0.021518517601518863),
):
    SADDLE2D[_off] = SADDLE2D[tuple(-c for c in _off)] = _p
#: the irreducibility case: each support's moves; p is uniform on +-moves
IRREDUCIBLE_MOVES = {
    "even 1d": [(2,)],
    "index 2 in 2d": [(1, 1), (1, -1)],
    "rank 1 in 2d": [(1, 0), (2, 0)],
    "3d even-sum lattice with holding": [
        (0, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)
    ],
    "unimodular pair in 2d": [(3, 5), (5, 8)],
    "coprime pair in 1d": [(5,), (7,)],
}
#: the 1d report case: the spectrum experiment's config, as written and with
#: its kernel replaced by the lazy 1d walk at REPORT1D_Q
REPORT1D_CONFIG = CONFIGS / "spectrum_anchor.json"
REPORT1D_Q = 0.3
#: the degenerate eigen case: (walk, potential, L, count) of truncations
#: whose wanted eigenvalues repeat, exactly on the free boxes and nearly under
#: the symmetric sparse potential
EIGEN_DEGENERATE = {
    "simple2d L=10 count 4": (sw.simple2d, None, 10, 4),
    "lazy3d(0.0) L=4 count 6": (lambda: lazy3d(0.0), None, 4, 6),
    "lazy3d(0.3) L=4 count 7": (lambda: lazy3d(0.3), None, 4, 7),
    "lazy1d(0.25) +-3^k L=100 count 6": (
        lambda: sw.lazy1d(0.25), sw.build_geometric_sparse(1, 2.0, 3, box_radius=100), 100, 6
    ),
}
#: sections an older saved fingerprint may lack
OPTIONAL = (
    "bs2d", "kernels", "chain2d", "eigen2d", "green_nd", "green_full2d", "sturm", "gap2d",
    "crossings1d", "gibbs2d", "discrete1d", "shifted2d", "mc_nd", "bsscan1d", "saddle2d",
    "irreducible", "report1d", "green1d_far", "eigen_degenerate",
)

#: numeric literals inside a value's repr; the text between them must match
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
REL_TOL = 1e-9
ABS_TOL = 1e-14
TINY = 1e-12


def fingerprint() -> dict:
    values = {}
    for index in sorted(acceptance.CRITERIA):
        result = acceptance.run_criterion(index)
        values[str(index)] = {str(k): repr(v) for k, v in result.values.items()}
    artifacts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, name in CLI_RUNS:
            out = Path(tmp) / kind
            argv = [kind, "--config", str(CONFIGS / name), "--out", str(out)]
            if kind in SEEDED:
                argv += ["--seed", str(SEEDED[kind])]
            digests = {"exit": cli.main(argv)}
            for path in sorted(out.iterdir()):
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            artifacts[kind] = digests
    kernels = {name: repr(make().lower) for name, make in KERNELS.items()}
    return {
        "values": values,
        "artifacts": artifacts,
        "bs2d": bs2d(),
        "kernels": kernels,
        "chain2d": chain2d(),
        "eigen2d": eigen2d(),
        "green_nd": green_nd(),
        "green_full2d": green_full2d(),
        "sturm": sturm(),
        "gap2d": gap2d(),
        "crossings1d": crossings1d(),
        "gibbs2d": gibbs2d(),
        "discrete1d": discrete1d(),
        "shifted2d": shifted2d(),
        "mc_nd": mc_nd(),
        "bsscan1d": bsscan1d(),
        "saddle2d": {"lower": repr(sw.validate_kernel(SADDLE2D).lower)},
        "irreducible": irreducible(),
        "report1d": report1d(),
        "green1d_far": green1d_far(),
        "eigen_degenerate": eigen_degenerate(),
    }


def report1d() -> dict:
    """Reprs of the spectrum experiment's numbers per L, and of its discrete spectrum."""
    cfg = load_config(REPORT1D_CONFIG)
    kernel = kernel_from_config(cfg)
    spec = potential_from_config(cfg, kernel.dimension)
    out = {}
    walks = {"spectrum_anchor": kernel, f"lazy1d({REPORT1D_Q})": sw.lazy1d(REPORT1D_Q)}
    for name, walk in walks.items():
        bundle = sw.spectral_report(walk, spec, cfg["L_sequence"])
        for rep in bundle.reports:
            for field in ("r", "ell", "gap", "abs_gap", "second_abs"):
                out[f"{name} L={rep.L} {field}"] = repr(getattr(rep, field))
            fit = rep.decay
            out[f"{name} L={rep.L} decay"] = repr((fit.rate, fit.residual_rms) if fit else None)
        out[f"{name} discrete"] = repr(bundle.discrete)
    return out


def irreducible() -> dict:
    """The verdict of validate_kernel on each support of the irreducibility case."""
    out = {}
    for name, moves in IRREDUCIBLE_MOVES.items():
        support = set(moves) | {tuple(-c for c in m) for m in moves}
        try:
            sw.validate_kernel({o: 1.0 / len(support) for o in support})
            out[name] = "accepted"
        except NotIrreducible:
            out[name] = "NotIrreducible"
    return out


def bs2d() -> dict:
    """Reprs of the 2d resolvent residual and norm and of the certificate."""
    kernel = sw.simple2d()
    spec = sw.make_potential(2, BS2D_SITES)
    R, residual = sw.resolvent_via_bs(kernel, spec, 2.0, 4, pts_per_axis=64)
    cert = sw.neumann_invertibility(kernel, spec, (), 2.0, 0.3, 4, pts_per_axis=64)
    out = {"resolvent_residual": repr(residual), "resolvent_frobenius": repr(float(np.linalg.norm(R)))}
    for field in dataclasses.fields(cert):
        out[f"neumann_{field.name}"] = repr(getattr(cert, field.name))
    return out


def shifted2d() -> dict:
    """Reprs of the bs2d resolvent and assembly on a box centred off the origin."""
    kernel = sw.simple2d()
    spec = sw.make_potential(2, BS2D_SITES)
    box = sw.LatticeBox.cube(4, 2, center=SHIFTED2D_CENTER)
    R, residual = sw.resolvent_via_bs(kernel, spec, 2.0, box, pts_per_axis=64)
    asm = sw.assemble_bs(kernel, spec, 2.0, box, 64)
    return {
        "resolvent_residual": repr(residual),
        "resolvent_frobenius": repr(float(np.linalg.norm(R))),
        "support_sites": repr(len(asm.support_sites)),
        "matrix_norm": repr(float(np.linalg.norm(asm.matrix))),
    }


def chain2d_operator():
    """Kernel, potential and truncation of the 2d chain case."""
    kernel = sw.simple2d()
    spec = sw.build_geometric_sparse(2, 0.5, 3, box_radius=CHAIN2D_L, anchor=((1, -1), 1.6))
    return kernel, spec, sw.truncated_operator(kernel, spec, CHAIN2D_L)


def chain2d() -> dict:
    """Reprs of the 2d Perron pair and Doob chain, and path and occupation digests."""
    kernel, spec, op = chain2d_operator()
    r, phi = sw.perron_pair(op)
    chain = sw.doob_kernel(kernel, spec, (r, phi), op.box)
    path = sw.simulate_chain(chain, (0, 0), CHAIN2D_STEPS, CHAIN2D_SEED)
    emp = sw.occupation_distribution(chain, path)
    return {
        "perron_r": repr(r),
        "phi_min": repr(float(phi.min())),
        "row_deficit": repr(chain.row_deficit),
        "stationary_max": repr(float(chain.stationary.max())),
        "path_sha256": hashlib.sha256(path.astype(np.int64).tobytes()).hexdigest(),
        "occupation_sha256": hashlib.sha256(emp.tobytes()).hexdigest(),
    }


def eigen2d() -> dict:
    """Reprs of the top eigenvalues of the 2d chain case and their residuals."""
    sol = sw.eigensolve_top(chain2d_operator()[2], EIGEN2D_COUNT)
    out = {}
    for i, pair in enumerate(sol.by_value):
        out[f"by_value {i} value"] = repr(pair.value)
        out[f"by_value {i} residual"] = repr(pair.residual)
    # the walk is bipartite, so +-x tie in |value| and either may come first
    for i, pair in enumerate(sol.by_abs):
        out[f"by_abs {i} modulus"] = repr(abs(pair.value))
        out[f"by_abs {i} residual"] = repr(pair.residual)
    return out


def eigen_degenerate() -> dict:
    """Reprs of the top values and residuals of the degenerate eigen case."""
    out = {}
    for name, (walk, spec, L, count) in EIGEN_DEGENERATE.items():
        sol = sw.eigensolve_top(sw.truncated_operator(walk(), spec, L), count)
        for i, pair in enumerate(sol.by_value):
            out[f"{name} by_value {i} value"] = repr(pair.value)
            out[f"{name} by_value {i} residual"] = repr(pair.residual)
    return out


def gap2d() -> dict:
    """Reprs of gap_projection_test on the kernel and potential of the 2d chain case."""
    kernel, spec, _ = chain2d_operator()
    proj = sw.gap_projection_test(kernel, spec, CHAIN2D_L)
    return {
        "branch": repr(proj.branch),
        "eps_fit": repr(proj.eps_fit),
        "eps_pred": repr(proj.eps_pred),
    }


def gibbs2d() -> dict:
    """Reprs of the 2d Gibbs deviations, partition values and return probabilities."""
    kernel, spec, op = chain2d_operator()
    chain = sw.doob_kernel(kernel, spec, sw.perron_pair(op), op.box)
    fit = sw.convergence_rate(
        kernel, spec, chain, 1, GIBBS2D_NS, lambda path: 1.0 if path[0] == (1, 0) else 0.0
    )
    growth = sw.partition_growth(kernel, spec, GIBBS2D_N_MAX)
    diagonal = sw.validate_kernel(DIAGONAL_2D)
    return {
        "deviations": repr(fit.deviations),
        "z_values": repr(growth.z_values),
        "diagonal2d returns": repr(
            [sw.convolution_power_at_zero(diagonal, n) for n in range(GIBBS2D_RETURN + 1)]
        ),
    }


def discrete1d() -> dict:
    """Reprs of the discrete pairs of the 1d discrete case and their axis decay."""
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=2048, anchor=((0,), 2.0))
    out = {}
    for name, make in DISCRETE1D_KERNELS.items():
        kernel = make()
        pred = sw.essential_spectrum_predictor(kernel, spec)
        op = sw.truncated_operator(kernel, spec, DISCRETE1D_L)
        for i, pair in enumerate(spectral.discrete_pairs(op, pred.bottom, pred.top)[1]):
            fit = spectral.axis_decay(op, pair.phi, DISCRETE1D_WINDOW)
            out[f"{name} {i} value"] = repr(pair.value)
            out[f"{name} {i} decay"] = repr((fit.rate, fit.residual_rms))
    return out


def mc_nd() -> dict:
    """Reprs of (estimate, stderr) of fk_monte_carlo in 1d, 2d and 3d, with and without f."""
    kernel, spec, _ = chain2d_operator()
    square = [(a, b) for a in range(-8, 9) for b in range(-8, 9)]
    cases = {
        "simple2d": (kernel, spec, None, MC_ND_SAMPLES),
        "lazy3d(0.17)": (
            lazy3d(0.17),
            sw.build_geometric_sparse(3, 0.5, 3, box_radius=MC_ND_N, anchor=((1, 0, 0), 1.6)),
            None,
            MC_ND_SAMPLES,
        ),
        "uniform17x17": (
            sw.validate_kernel({x: 1.0 / len(square) for x in square}), spec, None, MC_ND_SAMPLES
        ),
        "lazy1d(0.25) from 5": (
            sw.lazy1d(0.25), sw.make_potential(1, MC_1D_SITES), MC_1D_X0, MC_1D_SAMPLES
        ),
    }
    fs = {"f=1": None, "f=decay": lambda x: np.exp(-0.25 * np.abs(x).sum(axis=1))}
    return {
        f"{name} {label}": repr(
            sw.fk_monte_carlo(walk, pot, f, MC_ND_N, samples, MC_ND_SEED, x0=x0)
        )
        for name, (walk, pot, x0, samples) in cases.items()
        for label, f in fs.items()
    }


def green_nd() -> dict:
    """Reprs of 2d level crossings, 2d/3d g_lambda(0) and a 2d Green table."""
    simple2d = sw.simple2d()
    lc = sw.g_level_crossings(simple2d, GREEN_ND_TARGET)
    out = {"crossing_above": repr(lc.above), "crossing_below": repr(lc.below)}
    for name, kernel in (("simple2d", simple2d), ("lazy3d(0.17)", lazy3d(0.17))):
        for lam in GREEN_ND_LAMBDAS:
            out[f"g0 {name} {lam}"] = repr(sw.g_lambda_quadrature(kernel, lam, 64).value)
    table = sw.green_table(sw.validate_kernel(DIAGONAL_2D), 1.3, DIAGONAL_XS, 64)
    for x in DIAGONAL_XS:
        out[f"diagonal2d G{x}"] = repr(table[x])
    return out


def crossings1d() -> dict:
    """Reprs of both level crossings of the 1d crossing case."""
    kernels = {f"lazy1d({q})": sw.lazy1d(q) for q in CROSSING_QS}
    kernels["range3"] = sw.validate_kernel(RANGE3_1D)
    out = {}
    for name, kernel in kernels.items():
        for v in CROSSING_VS:
            lc = sw.g_level_crossings(kernel, 1.0 + 1.0 / v)
            out[f"{name} v={v} above"] = repr(lc.above)
            out[f"{name} v={v} below"] = repr(lc.below)
    return out


def bsscan1d() -> dict:
    """Reprs of the Birman-Schwinger crossings of the 1d crossing-scan case."""
    return {
        f"v={v} q={q}": repr(
            sw.bs_crossing_scan(sw.lazy1d(q), sw.single_delta(1, v), 1.03, 4.0, box=60, xtol=1e-10)
        )
        for v, q in BSSCAN1D_CASES
    }


def green_full2d() -> dict:
    """Reprs of full-grid 2d Green tables, above and below the spectrum."""
    kernel = sw.validate_kernel(RANGE2_2D)
    out = {}
    for lam in GREEN_ND_LAMBDAS:
        table = sw.green_table(kernel, lam, DIAGONAL_XS, 64)
        for x in DIAGONAL_XS:
            out[f"range2 {lam} G{x}"] = repr(table[x])
    return out


def green1d_far() -> dict:
    """Reprs of far 1d Green tables, above and below the spectrum."""
    out = {}
    for name, make in GREEN1D_FAR_KERNELS.items():
        for lam in GREEN1D_FAR_LAMBDAS:
            table = sw.green_table(make(), lam, GREEN1D_FAR_XS, 512)
            for x in GREEN1D_FAR_XS:
                out[f"{name} {lam} G({x})"] = repr(table[(x,)])
    return out


def sturm() -> dict:
    """Reprs of the Sturm oracle's (distance, exact) on the STURM_CASES."""
    return {
        name: repr(sw.truncated_spectrum_distance_1d(kernel(), spec(), L, target))
        for name, (kernel, spec, L, target) in STURM_CASES.items()
    }


def lazy3d(q: float) -> sw.WalkKernel:
    """Lazy nearest-neighbour walk on Z^3: p(0) = q, p(+-e_i) = (1 - q) / 6."""
    raw = {(0, 0, 0): q}
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        raw[e] = raw[tuple(-c for c in e)] = (1.0 - q) / 6.0
    return sw.validate_kernel(raw)


def moved_beyond(old: str, new: str) -> bool:
    """Whether a value repr changed beyond the tolerances (or in structure)."""
    if NUMBER.split(old) != NUMBER.split(new):
        return True
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        scale = max(abs(a), abs(b))
        if abs(a - b) > (ABS_TOL if scale < TINY else REL_TOL * scale):
            return True
    return False


def report(old: dict, new: dict) -> int:
    """Print what moved between two fingerprints; 1 if beyond tolerance."""
    beyond = 0
    moved = 0
    sections = [
        (f"criterion {index}", old["values"].get(index, {}), new["values"].get(index, {}))
        for index in sorted(set(old["values"]) | set(new["values"]), key=int)
    ]
    for name in OPTIONAL:
        if name in old:
            sections.append((name, old[name], new[name]))
        else:
            print(f"saved fingerprint has no {name} section; not compared")
    for label, a, b in sections:
        for key in sorted(set(a) | set(b)):
            was, now = a.get(key, "<missing>"), b.get(key, "<missing>")
            if was == now:
                continue
            moved += 1
            far = key.endswith("sha256") or moved_beyond(was, now)
            beyond += far
            print(f"{'beyond' if far else 'within'} tolerance: {label} {key}: {was} -> {now}")
    print(f"{moved} value(s) moved, {beyond} beyond tolerance")
    for kind in sorted(set(old["artifacts"]) | set(new["artifacts"])):
        a, b = old["artifacts"].get(kind, {}), new["artifacts"].get(kind, {})
        if a.get("exit") != b.get("exit"):
            beyond += 1
            print(f"exit code changed: {kind}: {a.get('exit')} -> {b.get('exit')}")
        for name in sorted((set(a) | set(b)) - {"exit"}):
            if a.get(name) != b.get(name):
                print(f"artifact changed: {kind}/{name}")
    return 1 if beyond else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, help="saved fingerprint to compare with")
    args = p.parse_args(argv)
    result = fingerprint()
    if args.against is not None:
        return report(json.loads(args.against.read_text()), result)
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
