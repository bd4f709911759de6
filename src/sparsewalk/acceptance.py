"""Acceptance battery: one function per exit criterion.

Each criterion returns a CriterionResult carrying named boolean checks and
the measured numbers, so the pytest suite and the CLI runner share one
source of truth.  Tolerances are pinned here, not in the callers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext

import numpy as np

from . import birman_schwinger as bs
from . import gibbs, lattice, potential, resolvent, spectral

ANCHOR_SITE_VALUE = ((0,), 2.0)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    seconds: float
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:02d} {self.name} ({self.seconds:.1f}s)"


def _result(index, name, t0, checks, values) -> CriterionResult:
    return CriterionResult(
        index=index,
        name=name,
        passed=all(checks.values()),
        seconds=time.perf_counter() - t0,
        checks=checks,
        values=values,
    )


def _geometric(anchored: bool = False) -> potential.PotentialSpec:
    anchor = ANCHOR_SITE_VALUE if anchored else None
    return potential.build_geometric_sparse(1, v=1.0, base=3, box_radius=2048, anchor=anchor)


def criterion_1() -> CriterionResult:
    """Three Green evaluation routes agree to 1e-8 across q and lambda."""
    t0 = time.perf_counter()
    checks, values = {}, {}
    for q in (0.0, 0.25, 0.5):
        kernel = lattice.lazy1d(q)
        for lam in (1.25, -1.25, 2.0, -2.0, 10.0, -10.0):
            closed = resolvent.g_lambda_closed_1d(q, lam).value
            quad = resolvent.g_lambda_quadrature(kernel, lam, 512).value
            series = resolvent.g_lambda_series(kernel, lam, tol=1e-12).value
            spread = max(abs(closed - quad), abs(closed - series), abs(quad - series))
            checks[f"q={q},lam={lam}"] = spread <= 1e-8
            values[f"spread q={q} lam={lam}"] = spread
    return _result(1, "green oracle agreement", t0, checks, values)


def criterion_2() -> CriterionResult:
    """Closed-form landmark values of g at q = 1/4 and q = 1/2."""
    t0 = time.perf_counter()
    q = 0.25
    kernel = lattice.lazy1d(q)
    lam_a = (2 * q - 1) / (2 * q)  # -1
    lam_b = (2 * q - 1) / q  # -2
    g_a = resolvent.g_lambda_closed_1d(q, lam_a).value
    g_b = resolvent.g_lambda_closed_1d(q, lam_b).value
    g_a_quad = resolvent.g_lambda_quadrature(kernel, lam_a, 2048).value
    g_b_quad = resolvent.g_lambda_quadrature(kernel, lam_b, 2048).value
    expected_b = np.sqrt(1 - 2 * q) / (1 - q)
    g_zero = resolvent.g_lambda_closed_1d(0.5, 0.0).value
    checks = {
        "g(-1)=1 closed": abs(g_a - 1.0) <= 1e-9,
        "g(-1)=1 quadrature": abs(g_a_quad - 1.0) <= 1e-9,
        "g(-2)=sqrt(1-2q)/(1-q) closed": abs(g_b - expected_b) <= 1e-9,
        "g(-2) quadrature": abs(g_b_quad - expected_b) <= 1e-9,
        "g_0(0)=0 at q=1/2": abs(g_zero) <= 1e-9,
    }
    values = {"g(-1)": g_a, "g(-2)": g_b, "expected_b": float(expected_b), "g0": g_zero}
    return _result(2, "closed-form landmark values", t0, checks, values)


def criterion_3() -> CriterionResult:
    """Single point perturbation: truncated top eigenvalue and decay rate."""
    t0 = time.perf_counter()
    checks, values = {}, {}
    for v in (0.5, 1.0, 2.0):
        for q in (0.0, 0.25):
            kernel = lattice.lazy1d(q)
            spec = potential.single_delta(1, v)
            op = spectral.truncated_operator(kernel, spec, 60)
            sol = spectral.eigensolve_top(op, count=1)
            top = sol.by_value[0]
            lam_plus = spectral.lambda_pm_1d(q, v)[1]
            fit = spectral.axis_decay(op, top.phi, (1, 12))
            rate_exact = -np.log(resolvent.phi_closed_1d(q, lam_plus))
            checks[f"eig v={v} q={q}"] = abs(top.value - lam_plus) <= 1e-6
            checks[f"decay v={v} q={q}"] = abs(fit.rate - rate_exact) <= 1e-4
            values[f"eig_err v={v} q={q}"] = abs(top.value - lam_plus)
            values[f"rate_err v={v} q={q}"] = abs(fit.rate - rate_exact)
    return _result(3, "single-delta exactness", t0, checks, values)


def criterion_4() -> CriterionResult:
    """Eigenvalue correspondence and resolvent factorization."""
    t0 = time.perf_counter()
    checks, values = {}, {}
    for v in (0.5, 1.0, 2.0):
        for q in (0.0, 0.25):
            kernel = lattice.lazy1d(q)
            spec = potential.single_delta(1, v)
            op = spectral.truncated_operator(kernel, spec, 60)
            top = float(np.linalg.eigvalsh(op.sym)[-1])
            crossing = bs.bs_crossing_scan(kernel, spec, 1.03, 4.0, box=60, xtol=1e-10)
            checks[f"crossing v={v} q={q}"] = abs(crossing - top) <= 1e-6
            values[f"crossing_err v={v} q={q}"] = abs(crossing - top)
    kernel = lattice.simple1d()
    spec = potential.single_delta(1, 1.0)
    R, resid = bs.resolvent_via_bs(kernel, spec, 2.0, box=40)
    op = spectral.truncated_operator(kernel, spec, 40)
    direct = np.linalg.inv(2.0 * np.eye(op.volume) - op.matrix)
    interior = np.max(np.abs(op.sites), axis=1) <= 20
    diff = float(np.max(np.abs((R - direct)[np.ix_(interior, interior)])))
    checks["factorized resolvent vs direct"] = diff <= 1e-6
    checks["identity residual"] = resid <= 1e-6
    values["resolvent_diff"] = diff
    values["identity_residual"] = resid
    return _result(4, "Birman-Schwinger correspondence", t0, checks, values)


def criterion_5() -> CriterionResult:
    """Truncated spectra accumulate at the predicted excess points.

    The true distances sit far below float64 resolution (the sparse-site
    eigenvalues converge super-exponentially), so the measurement uses the
    60-digit Sturm oracle on the tridiagonal truncation, aimed at
    +-2/sqrt(3) computed to the same 60 digits.
    """
    t0 = time.perf_counter()
    spec = _geometric()
    kernel = lattice.simple1d()
    checks, values = {}, {}
    with localcontext(Context(prec=60)):
        lam_plus = Decimal(2) / Decimal(3).sqrt()
        targets = (("lam_plus", lam_plus), ("lam_minus", -lam_plus))
    for label, target in targets:
        dists = {}
        for L in (256, 512, 1024):
            dists[L] = spectral.truncated_spectrum_distance_1d(kernel, spec, L, target)
        d_first = dists[256][0]
        d_last = dists[1024][0]
        checks[f"{label} first resolved"] = dists[256][1]
        checks[f"{label} halves"] = d_last <= d_first / 2.0
        checks[f"{label} monotone"] = dists[512][0] <= d_first
        values[f"{label} distances"] = {L: dists[L][0] for L in dists}
    return _result(5, "essential-spectrum accumulation", t0, checks, values)


def criterion_6() -> CriterionResult:
    """Anchored spec: r stabilizes, exceeds the essential top, phi > 0."""
    t0 = time.perf_counter()
    kernel = lattice.simple1d()
    spec = _geometric(anchored=True)
    rs = {}
    for L in (40, 60, 80):
        op = spectral.truncated_operator(kernel, spec, L)
        rs[L] = float(np.linalg.eigvalsh(op.sym)[-1])
    lam_plus = spectral.lambda_pm_1d(0.0, 1.0)[1]
    op = spectral.truncated_operator(kernel, spec, 80)
    r_pow, phi = spectral.perron_pair(op, tol=1e-9)
    checks = {
        "r Cauchy in L": abs(rs[80] - rs[60]) <= 1e-6 and abs(rs[60] - rs[40]) <= 1e-6,
        "r exceeds lambda_+(1)": rs[80] > lam_plus + 1e-3,
        "phi strictly positive": float(phi.min()) > 0.0,
        "power iteration agrees": abs(r_pow - rs[80]) <= 1e-8,
    }
    values = {"r": rs, "lambda_plus": lam_plus, "phi_min": float(phi.min())}
    return _result(6, "spectral gap at the right edge", t0, checks, values)


def criterion_7() -> CriterionResult:
    """Absolute-gap dichotomy: bipartite route and diagonal-dominance route."""
    t0 = time.perf_counter()
    checks, values = {}, {}
    kernel = lattice.simple1d()
    spec = _geometric(anchored=True)
    sign = spectral.bipartite_detect(kernel)
    op = spectral.truncated_operator(kernel, spec, 80)
    w = np.linalg.eigvalsh(op.sym)
    sym_defect = float(np.max(np.abs(w + w[::-1])))
    proj = spectral.gap_projection_test(kernel, spec, 80)
    checks["bipartite sign found"] = sign is not None
    checks["spectrum negation-symmetric"] = sym_defect <= 1e-10
    checks["two-term branch"] = proj.branch == "bipartite"
    checks["two-term eps < 1"] = proj.eps_fit < 1.0
    checks["two-term eps matches"] = abs(proj.eps_fit - proj.eps_pred) <= 0.10 * proj.eps_pred
    values["sym_defect"] = sym_defect
    values["bipartite eps"] = (proj.eps_fit, proj.eps_pred)

    lazy = lattice.lazy1d(0.3)
    dom = spectral.diag_dominance_check(lazy)
    op3 = spectral.truncated_operator(lazy, spec, 80)
    w3 = np.linalg.eigvalsh(op3.sym)
    proj3 = spectral.gap_projection_test(lazy, spec, 80)
    checks["diag dominance margin 0.3"] = abs(dom.margin - 0.3) <= 1e-12 and dom.holds
    checks["-r < ell strictly"] = w3[0] > -w3[-1] + 1e-6
    checks["one-term branch"] = proj3.branch == "one_term"
    checks["one-term eps matches"] = abs(proj3.eps_fit - proj3.eps_pred) <= 0.10 * proj3.eps_pred
    values["lazy eps"] = (proj3.eps_fit, proj3.eps_pred)
    values["lazy edges"] = (float(w3[0]), float(w3[-1]))
    return _result(7, "absolute gap dichotomy", t0, checks, values)


def criterion_8() -> CriterionResult:
    """Edge inequality slack nonnegative across the kernel/potential battery."""
    t0 = time.perf_counter()
    battery = []
    for q in (0.0, 0.25, 0.3):
        kernel = lattice.lazy1d(q)
        battery.append((f"q={q} zero", kernel, None))
        battery.append((f"q={q} delta", kernel, potential.single_delta(1, 1.0)))
        battery.append((f"q={q} geometric", kernel, _geometric()))
        battery.append((f"q={q} anchor", kernel, _geometric(anchored=True)))
    checks, values = {}, {}
    for label, kernel, spec in battery:
        slack = spectral.edge_inequality_check(kernel, spec, 40)
        checks[label] = slack >= -1e-8
        values[label] = slack
    return _result(8, "edge inequality", t0, checks, values)


def criterion_9() -> CriterionResult:
    """Off-diagonal tail bound: collapsing for sparse, bounded for dense."""
    t0 = time.perf_counter()
    kernel = lattice.simple1d()
    sparse_spec = _geometric()
    asm = bs.assemble_bs(kernel, sparse_spec, 2.0, box=512)
    sparse_bounds = [bs.off_diag_tail_norm(asm, N) for N in (8, 32, 128)]
    dense_spec = potential.dense_level(1, 1.0, box_radius=256)
    asm_dense = bs.assemble_bs(kernel, dense_spec, 2.0, box=256)
    dense_bounds = [bs.off_diag_tail_norm(asm_dense, N) for N in (8, 32, 128)]
    checks = {
        "sparse decreasing": sparse_bounds[0] > sparse_bounds[1] > sparse_bounds[2],
        "sparse below 1e-3": sparse_bounds[2] < 1e-3,
        "dense bounded below": min(dense_bounds) > 0.05,
    }
    values = {"sparse": sparse_bounds, "dense": dense_bounds}
    return _result(9, "compactness witness", t0, checks, values)


def criterion_10() -> CriterionResult:
    """Neumann certificate at lambda = 2 plus clean eigenfunction decay."""
    t0 = time.perf_counter()
    kernel = lattice.simple1d()
    cert = bs.neumann_invertibility(kernel, _geometric(), (), 2.0, alpha=0.6, box=512)
    checks = {
        "epsilon0 positive": cert.epsilon0 > 0.0,
        "contraction below 1": cert.contraction < 1.0,
        "certificate valid": cert.valid,
    }
    values = {
        "epsilon0": cert.epsilon0,
        "contraction": cert.contraction,
        "green_decay_rate": cert.green_decay_rate,
    }
    hull = spectral.lambda_pm_1d(0.0, 1.0)  # (lambda_-, lambda_+) of v = 1, closed form
    for label, spec in (("pure", _geometric()), ("anchor", _geometric(anchored=True))):
        op = spectral.truncated_operator(kernel, spec, 80)
        discrete = spectral.discrete_pairs(op, *hull)[1]
        checks[f"{label} has discrete spectrum"] = bool(discrete)
        for pair in discrete:
            fit = spectral.axis_decay(op, pair.phi, (10, 18))
            key = f"{label} eig {pair.value:+.6f}"
            checks[key] = fit is not None and fit.rate > 0.0 and fit.residual_rms < 0.1
            values[key] = (fit.rate, fit.residual_rms) if fit else None
    return _result(10, "decay certificate", t0, checks, values)


def criterion_11() -> CriterionResult:
    """Gibbs marginals converge to the chain law at the spectral rate.

    The anchored potential is symmetric, so with the simple walk the first
    step is uniform on {-1, +1} and the test functional is degenerate; the
    lazy kernel (q = 0.3, the non-bipartite branch of criterion 7) makes
    the one-step marginal informative.
    """
    t0 = time.perf_counter()
    kernel = lattice.lazy1d(0.3)
    spec = _geometric(anchored=True)
    op = spectral.truncated_operator(kernel, spec, 80)
    w = np.linalg.eigvalsh(op.sym)
    r = float(w[-1])
    second = spectral._second_abs(w, r)
    r_pow, phi = spectral.perron_pair(op, tol=1e-9)
    chain = gibbs.doob_kernel(kernel, spec, (r_pow, phi), op.box)

    def f_indicator(path) -> float:
        return 1.0 if path[0] == (1,) else 0.0

    fit = gibbs.convergence_rate(kernel, spec, chain, 1, range(10, 61), f_indicator)
    pred = second / r
    rel = abs(fit.eps_fit - pred) / pred
    checks = {
        "deviations decay": fit.deviations[0][1] > fit.deviations[-1][1],
        "rate within 15%": rel <= 0.15,
    }
    values = {
        "eps_fit": fit.eps_fit,
        "eps_pred": pred,
        "rel_err": rel,
        "D_first": fit.deviations[0][1],
        "D_last": fit.deviations[-1][1],
    }
    return _result(11, "Gibbs-to-chain convergence", t0, checks, values)


def criterion_12() -> CriterionResult:
    """Partition growth reaches the top of the spectrum.

    The raw root Z_N^(1/N) converges only at speed O(1/N) (its offset is
    log of the spectral coefficient over N, about 4e-3 here at N = 200);
    the power-method readout sqrt(Z_N / Z_{N-2}) is the estimator with the
    geometric rate quoted by this criterion and is the one held to 1e-3.
    """
    t0 = time.perf_counter()
    checks, values = {}, {}
    kernel = lattice.simple1d()
    for label, spec, ref in (
        ("delta", potential.single_delta(1, 1.0), spectral.lambda_pm_1d(0.0, 1.0)[1]),
        ("anchor", _geometric(anchored=True), None),
    ):
        if ref is None:
            op = spectral.truncated_operator(kernel, spec, 80)
            ref = float(np.linalg.eigvalsh(op.sym)[-1])
        growth = gibbs.partition_growth(kernel, spec, 200)
        est = growth.final_ratio_estimate
        root = growth.final_root
        checks[f"{label} ratio estimate within 1e-3"] = abs(est - ref) <= 1e-3
        checks[f"{label} raw root approaches"] = abs(root - ref) <= 10.0 / 200.0
        values[f"{label}"] = {"ratio_est": est, "raw_root": root, "reference": ref}
    return _result(12, "partition growth", t0, checks, values)


def criterion_13() -> CriterionResult:
    """Monte Carlo agrees with the exact semigroup; errors scale as 1/sqrt."""
    t0 = time.perf_counter()
    kernel = lattice.simple1d()
    spec = potential.single_delta(1, 1.0)
    n = 20
    box = lattice.LatticeBox.cube(n + 2, 1)
    exact = float(
        gibbs.fk_semigroup(kernel, spec, np.ones(box.shape), n, box)[box.radius]
    )
    # the 100k paths are the first 100k of the 300k run: one stream gives both
    weights = gibbs._fk_weights(kernel, spec, None, n, 300_000, 2024, None)
    (est1, err1), (est3, err3) = gibbs._estimates(weights, (100_000, 300_000))
    ratio = err1 / err3
    checks = {
        "within 3 sigma": abs(est1 - exact) <= 3.0 * err1,
        "stderr scaling sqrt(3) +- 20%": abs(ratio - np.sqrt(3.0)) <= 0.2 * np.sqrt(3.0),
    }
    values = {
        "exact": exact,
        "estimate": est1,
        "stderr": err1,
        "stderr_3x": err3,
        "ratio": ratio,
    }
    return _result(13, "Monte Carlo consistency", t0, checks, values)


def criterion_14() -> CriterionResult:
    """Plane-wave residual exponent near -1/2 in d = 1 and d = 2."""
    t0 = time.perf_counter()
    ns = (25, 50, 100, 200)
    slope1, _ = lattice.weyl_scaling_fit(lattice.simple1d(), 0.0, ns)
    slope2, _ = lattice.weyl_scaling_fit(lattice.simple2d(), (0.0, 0.0), ns)
    checks = {
        "d=1 exponent": -0.65 <= slope1 <= -0.35,
        "d=2 exponent": -0.65 <= slope2 <= -0.35,
    }
    values = {"slope_d1": slope1, "slope_d2": slope2}
    return _result(14, "Weyl-sequence scaling", t0, checks, values)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
    14: criterion_14,
}


def run_criterion(index: int) -> CriterionResult:
    return CRITERIA[index]()
