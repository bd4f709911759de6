import math

import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk import resolvent
from sparsewalk.errors import (
    DimensionMismatch,
    GridTooCoarse,
    LambdaInSpectrum,
    LambdaNotFinite,
    LazinessOutOfRange,
    NonPositiveValue,
    QuadratureNotConverged,
    SeriesDiverges,
    SparseWalkError,
    TargetNotAboveOne,
    TooFewPoints,
)
from sparsewalk.lattice import (
    LatticeBox,
    _char_grid,
    _fibre_axis,
    _grid_phase,
    apply_P,
    char_on_grid,
)
from sparsewalk.resolvent import (
    _PTS_BISECT,
    CROSSING_XTOL,
    _g0_on_grid,
    _root,
    _verify_root,
)

KERNELS = {"lazy1d": lambda: sw.lazy1d(0.25), "simple2d": sw.simple2d}


# -- full-grid reference: the cosine-weighted mean and its FFT ----------------

def _integrand(base: np.ndarray, x: tuple[int, ...], level: int) -> np.ndarray:
    """1/(lam - p-hat) on a flattened grid, weighted by cos(theta . x)."""
    if not any(x):
        return base
    return (base.reshape((level,) * len(x)) * np.cos(_grid_phase(x, level))).ravel()


def _shift(c, level: int):
    """exp(i theta_j c) / exp(2 pi i j c / N) on the midpoint grid: (-1)^c exp(i pi c / N)."""
    m = (c + level) % (2 * level) - level  # the same factor for c and c mod 2N
    return np.where(m % 2, -1.0, 1.0) * np.exp(1j * np.pi / level * m)


def _fft_means(base: np.ndarray, xs, level: int) -> np.ndarray:
    """mean(base * cos(theta . x)) for every x in xs, by FFT.

    The last axis is contracted by an inverse FFT of every grid line, read
    at x_last mod N and shifted to the midpoint grid: one row per distinct
    x_last, in increasing order.  The other axes take one inverse FFT of
    each row, read at x' mod N and shifted by the sum of x'.
    """
    xs = np.array(xs)
    d = xs.shape[1]
    ks, where = np.unique(xs[:, -1], return_inverse=True)
    lines = np.fft.ifft(base.reshape(-1, level), norm="forward")[:, ks % level]
    rows = _shift(ks, level)[:, None] * lines.T
    rows = rows.reshape((len(ks),) + (level,) * (d - 1))
    if d > 1:
        rows = np.fft.ifftn(rows, axes=range(1, d), norm="forward")
    rest = xs[:, :-1]
    values = rows[(where,) + tuple((rest % level).T)] * _shift(rest.sum(axis=1), level)
    return values.real / base.size


def test_quadrature_simple_walk():
    # oracle: closed form gives delta = 0.5625, g = 1.25/0.75 = 5/3
    ev = sw.g_lambda_quadrature(sw.simple1d(), 1.25, 256)
    assert ev.value == pytest.approx(5.0 / 3.0, abs=1e-8)
    assert ev.est_error < 1e-10


def test_quadrature_lazy_paper_point():
    # g at (2q-1)/(2q) = -1 equals 1 for q = 1/4
    ev = sw.g_lambda_quadrature(sw.lazy1d(0.25), -1.0, 512)
    assert ev.value == pytest.approx(1.0, abs=1e-9)


def test_quadrature_near_zero_probe():
    # left-edge probe at q = 1/2: value just below 1e-3 in magnitude
    ev = sw.g_lambda_quadrature(sw.lazy1d(0.5), -1e-6, 16384)
    assert abs(ev.value) < 1e-3
    assert abs(ev.value) > 5e-4  # the probe is near the boundary, not zero


def test_quadrature_rejects_spectrum():
    with pytest.raises(LambdaInSpectrum):
        sw.g_lambda_quadrature(sw.simple1d(), 0.5)
    with pytest.raises(LambdaInSpectrum):
        sw.g_lambda_quadrature(sw.lazy1d(0.5), 0.0)


def test_green_kernel_examples():
    k = sw.simple1d()
    # oracle: g(1) = (5/3) * 0.5, G = g / lambda
    ev = sw.green_kernel(k, 1.25, 1, 256)
    assert ev.value == pytest.approx((5.0 / 3.0) * 0.5 / 1.25, abs=1e-8)
    g0 = sw.g_lambda_quadrature(k, 1.25, 256)
    ev0 = sw.green_kernel(k, 1.25, 0, 256)
    assert ev0.value == pytest.approx(g0.value / 1.25, abs=1e-10)


def test_green_kernel_geometric_ratio():
    k = sw.simple1d()
    vals = [sw.green_kernel(k, 1.25, x, 256).value for x in range(0, 8)]
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    assert np.allclose(ratios, 0.5, atol=1e-9)


def test_green_translation_symmetry():
    k = sw.simple2d()
    a = sw.green_kernel(k, 1.5, (2, 1), 128).value
    b = sw.green_kernel(k, 1.5, (-2, -1), 128).value
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize(
    "name, lam, x, pts",
    [
        ("lazy1d", 1.25, (3,), 256),
        ("lazy1d", -1.25, (-2,), 256),
        ("simple2d", 1.5, (2, -1), 128),
        ("simple2d", -1.5, (0, 3), 128),
    ],
)
def test_quadrature_views_agree_exactly(name, lam, x, pts):
    # green_kernel, green_table and g_lambda_quadrature share one engine
    k = KERNELS[name]()
    origin = (0,) * k.dimension
    table = sw.green_table(k, lam, [x, origin, 0], pts)
    assert table[(0,)] == table[origin]  # a bare 0 is the origin in any dimension
    assert sw.green_kernel(k, lam, x, pts).value == table[x]
    g0 = sw.g_lambda_quadrature(k, lam, pts)
    assert g0.value == lam * table[origin]
    assert g0.est_error == abs(lam) * sw.green_kernel(k, lam, origin, pts).est_error


@pytest.mark.parametrize("lam", [1.25, -1.25])
def test_green_table_matches_closed_form_1d(lam):
    # an independent route for every x != 0 of the lazy walk
    q = 0.25
    xs = list(range(-40, 41))
    table = sw.green_table(sw.lazy1d(q), lam, xs, 256)
    for x in xs:
        assert table[(x,)] == pytest.approx(sw.g_lambda_closed_1d(q, lam, x).value / lam, abs=1e-14)


@pytest.mark.parametrize("lam", [1.3, -1.3])
def test_green_table_matches_direct_means_2d(lam):
    # p(+-(1,1)) != p(+-(1,-1)): the kernel is symmetric under x -> -x only,
    # not axis by axis, so cos(theta_1 x_1) cos(theta_2 x_2) alone is wrong;
    # (70, -3) lies beyond pts/2 on the coarsest grid
    k = sw.validate_kernel(
        {(1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15, (1, 1): 0.2, (-1, -1): 0.2}
    )
    pts = 64
    xs = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    xs += [(70, -3), (-5, 33)]
    table = sw.green_table(k, lam, xs, pts)
    for level in (pts, 2 * pts, 4 * pts):
        base = 1.0 / (lam - char_on_grid(k, level))
        direct = [float(np.mean(_integrand(base, x, level))) for x in xs]
        assert list(_fft_means(base, xs, level)) == pytest.approx(direct, abs=1e-14), level
    # green_table reports the finest level
    assert [table[x] for x in xs] == pytest.approx(direct, abs=1e-14)


def test_grid_floor_is_a_named_error():
    # a coarse grid is a caller error, never a level the 3d ladder may skip
    assert not issubclass(GridTooCoarse, QuadratureNotConverged)
    k = sw.simple1d()
    with pytest.raises(GridTooCoarse):
        sw.green_table(k, 1.25, [0, 1, 2], 8)
    with pytest.raises(GridTooCoarse):
        sw.green_kernel(k, 1.25, 1, 32)
    with pytest.raises(GridTooCoarse):
        sw.g_lambda_quadrature(k, 1.25, 63)


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("offset", [1e-3, 0.01, 0.25, 2.0])
def test_kappa_star_is_the_closed_form_decay_rate(q, offset):
    # in 1d kappa* solves (1 - q)(cosh kappa - 1) = delta: -log |phi|^(+-1)
    k = sw.lazy1d(q)
    for lam in (1.0 + offset, k.lower - offset):
        rate = abs(math.log(abs(sw.phi_closed_1d(q, lam))))
        assert resolvent._kappa_star(k, lam, [0]) == pytest.approx(rate, rel=1e-14, abs=0.0), lam


@pytest.mark.parametrize("lam", [1.05, 1.3, 2.0, -1.05, -2.0])
def test_kappa_star_2d_is_arccosh(lam):
    # simple2d: (cosh kappa - 1) / 2 = |lam| - 1 on either axis
    rate = resolvent._kappa_star(sw.simple2d(), lam, range(2))
    assert rate == pytest.approx(math.acosh(2.0 * abs(lam) - 1.0), rel=1e-14, abs=0.0)


def test_kappa_star_far_from_the_spectrum():
    # the doubling bracket passes kappa where sinh^2 overflows: inf, not an error
    for lam in (1e200, -1e300):
        rate = resolvent._kappa_star(sw.simple1d(), lam, [0])
        assert rate == pytest.approx(math.acosh(abs(lam)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("pts", [64, 67, 100, 256])
def test_error_bound_holds_against_closed_form_1d(pts):
    # at pts 64 the aliasing bound dominates near the edge, at 256 the rounding floor;
    # N = 268 and 400 have odd factors, outside the radix-2 FFT bound
    q = 0.25
    k = sw.lazy1d(q)
    xs = list(range(41))
    for lam in (1.001, 1.01, -1.25, k.lower - 1e-3):
        levels = resolvent._green_levels(k, lam, xs, pts)
        for x in xs:
            value, alias, rounding = levels[(x,)]
            exact = sw.g_lambda_closed_1d(q, lam, x).value / lam
            assert abs(value - exact) <= alias + rounding, (lam, x)


@pytest.mark.parametrize("q", [0.0, 0.25])
@pytest.mark.parametrize("lam", [1.05, 1.25, 2.0, -2.0])
def test_far_green_table_matches_closed_form_1d(q, lam):
    # out to |x| = N / 2 at N = 2048, the rounding must not grow with the phase pi |x|
    xs = list(range(1025))
    levels = resolvent._green_levels(sw.lazy1d(q), lam, xs, 512)
    for x in xs:
        value, alias, rounding = levels[(x,)]
        error = abs(value - sw.g_lambda_closed_1d(q, lam, x).value / lam)
        assert error <= alias + rounding, x
        assert error <= 1e-15, x


def test_error_bound_holds_between_grids_2d():
    # |Q_N - Q_4N| <= bound_N + bound_4N, with far displacements near the alias
    k = sw.simple2d()
    xs = [(0, 0), (1, 0), (0, 7), (3, -2), (100, 3), (150, 0), (200, 0), (240, -5), (-250, 1)]
    coarse = resolvent._green_levels(k, 1.01, xs, 64)
    fine = resolvent._green_levels(k, 1.01, xs, 256)
    for x in xs:
        (a, *bound_a), (b, *bound_b) = coarse[x], fine[x]
        assert abs(a - b) <= sum(bound_a) + sum(bound_b), x
    # far enough out the bound is real: it is what the certified views refuse
    assert coarse[(200, 0)][1] > 1e-12


def test_large_error_bound_raises():
    # 256 points per axis cannot resolve kappa* = 0.045 at lambda = 1.001
    k = sw.simple1d()
    with pytest.raises(QuadratureNotConverged):
        sw.g_lambda_quadrature(k, 1.001, 64)
    with pytest.raises(QuadratureNotConverged):
        sw.green_kernel(k, 1.001, 3, 64)
    with pytest.raises(QuadratureNotConverged):
        sw.green_table(k, 1.001, [0, 1], 64)
    ev = sw.g_lambda_quadrature(k, 1.001, 1024)
    assert abs(ev.value - sw.g_lambda_closed_1d(0.0, 1.001).value) <= ev.est_error


def test_displacement_longer_than_the_dimension_is_named():
    with pytest.raises(DimensionMismatch):
        sw.green_table(sw.simple2d(), 2.0, [(1, 2, 3)], 64)
    with pytest.raises(DimensionMismatch):
        sw.green_kernel(sw.simple1d(), 2.0, (1, 2), 64)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_is_named(lam):
    with pytest.raises(LambdaNotFinite):
        sw.green_table(sw.simple1d(), lam, [0, 1], 64)
    with pytest.raises(LambdaNotFinite):
        sw.g_lambda_quadrature(sw.simple2d(), lam, 64)


def test_series_matches_closed_form():
    ev = sw.g_lambda_series(sw.simple1d(), 1.25, tol=1e-12)
    assert ev.value == pytest.approx(5.0 / 3.0, abs=1e-8)


def test_series_large_lambda():
    # oracle: first three nonzero terms 1 + 0.5/100 + 0.375/10000
    ev = sw.g_lambda_series(sw.simple1d(), 10.0, tol=1e-12)
    assert ev.value == pytest.approx(1.0 + 0.5e-2 + 0.375e-4, abs=1e-6)


def test_series_tends_to_one():
    vals = [sw.g_lambda_series(sw.simple1d(), lam, tol=1e-12).value for lam in (10.0, 100.0, 1000.0)]
    assert abs(vals[-1] - 1.0) < 1e-3
    assert abs(vals[0] - 1.0) > abs(vals[1] - 1.0) > abs(vals[2] - 1.0)


def test_series_rejects_unit_disc():
    with pytest.raises(SeriesDiverges):
        sw.g_lambda_series(sw.simple1d(), 1.0)
    with pytest.raises(SeriesDiverges):
        sw.g_lambda_series(sw.simple1d(), -0.5)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_series_rejects_non_finite_lambda(lam):
    # NaN slipped past the |lambda| <= 1 guard and +-inf reached log(0):
    # both ended in a bare ValueError from the n_stop formula
    with pytest.raises(LambdaNotFinite):
        sw.g_lambda_series(sw.simple1d(), lam)


def test_phi_closed_form_checks_q():
    # q = 1 divided by zero; q = 1.5 returned a number (-0.17)
    for q, lam in ((1.0, 2.0), (1.5, 3.0), (-0.1, 2.0)):
        for closed in (sw.phi_closed_1d, sw.g_lambda_closed_1d):
            with pytest.raises(LazinessOutOfRange):
                closed(q, lam)
    with pytest.raises(LambdaInSpectrum):
        sw.phi_closed_1d(0.25, 0.0)


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("lam", [1.25, 3.0, -1.25, -3.0])
def test_closed_form_green_decays_by_phi(q, lam):
    phi = sw.phi_closed_1d(q, lam)
    ratio = phi if lam > 1.0 else 1.0 / phi
    g = [sw.g_lambda_closed_1d(q, lam, x).value for x in range(6)]
    for x in range(5):
        assert g[x + 1] == pytest.approx(ratio * g[x], rel=1e-12)
    assert sw.g_lambda_closed_1d(q, lam, -3).value == g[3]


def test_closed_form_values():
    assert sw.g_lambda_closed_1d(0.0, 1.25, 0).value == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert sw.g_lambda_closed_1d(0.0, 1.25, 2).value == pytest.approx(5.0 / 12.0, rel=1e-15)
    # paper landmark: g at (2q-1)/q for q = 1/4 equals sqrt(1-2q)/(1-q)
    got = sw.g_lambda_closed_1d(0.25, -2.0, 0).value
    assert got == pytest.approx(math.sqrt(0.5) / 0.75, rel=1e-12)
    assert sw.g_lambda_closed_1d(0.5, 0.0, 0).value == 0.0


def test_three_method_agreement():
    for q in (0.0, 0.25, 0.5):
        k = sw.lazy1d(q)
        for lam in (1.1, 1.5, 3.0, -1.1, -2.0, -5.0):
            closed = sw.g_lambda_closed_1d(q, lam).value
            quad = sw.g_lambda_quadrature(k, lam, 512).value
            assert quad == pytest.approx(closed, abs=1e-8), (q, lam)
            if abs(lam) > 1.05:
                series = sw.g_lambda_series(k, lam, tol=1e-11).value
                assert series == pytest.approx(closed, abs=1e-8), (q, lam)


def test_series_vs_quadrature_2d():
    # no closed form exists in d = 2: path counting is the independent check
    k = sw.simple2d()
    for lam in (1.25, -1.25, 2.0):
        quad = sw.g_lambda_quadrature(k, lam, 256).value
        series = sw.g_lambda_series(k, lam, tol=1e-10).value
        assert series == pytest.approx(quad, abs=1e-8), lam


def test_g_monotone_above_one():
    k = sw.simple1d()
    lams = np.arange(1.05, 4.01, 0.05)
    vals = [sw.g_lambda_quadrature(k, float(l), 512).value for l in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_lower_bound_below_spectrum():
    # Jensen bound g > |lam| / (|lam| + p(0)) for lam < ell(P) < 0
    for q in (0.0, 0.25):
        k = sw.lazy1d(q)
        for lam in np.arange(k.lower - 2.0, k.lower - 0.05, 0.1):
            val = sw.g_lambda_quadrature(k, float(lam), 1024).value
            assert val > abs(lam) / (abs(lam) + q)


def test_divergence_probe_1d():
    # g(1+h) exceeds 1e3 once h is small enough (found by halving)
    k = sw.simple1d()
    h = 0.1
    while h > 1e-12:
        val = sw.g_lambda_closed_1d(0.0, 1.0 + h).value
        if val >= 1e3:
            break
        h /= 2.0
    else:
        pytest.fail("no divergence detected")
    quad = sw.g_lambda_quadrature(k, 1.0 + h, 32768).value
    assert quad >= 1e3


def test_divergence_probe_2d_increments():
    # log-rate divergence: increments per halving stay bounded away from 0
    k = sw.simple2d()
    hs = [0.1 / 2**j for j in range(8)]
    vals = [sw.g_lambda_quadrature(k, 1.0 + h, 512).value for h in hs]
    increments = np.diff(vals)
    assert np.all(increments > 0.05)
    assert increments[-1] > 0.5 * increments[0]


def test_decay_fit_exact_geometric():
    pairs = [(x, 3.0 * 0.5**x) for x in range(1, 12)]
    fit = sw.decay_rate_estimate(pairs)
    assert fit.rate == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit.residual_rms < 1e-12


def test_decay_fit_green_values():
    k = sw.simple1d()
    for lam, expected in ((1.25, math.log(2.0)), (2.0 / math.sqrt(3.0), math.log(math.sqrt(3.0)))):
        vals = [(x, abs(sw.green_kernel(k, lam, x, 512).value)) for x in range(1, 13)]
        fit = sw.decay_rate_estimate(vals)
        assert fit.rate == pytest.approx(expected, abs=1e-6)


def test_decay_fit_errors():
    with pytest.raises(TooFewPoints):
        sw.decay_rate_estimate([(x, 1.0) for x in range(5)])
    with pytest.raises(NonPositiveValue):
        sw.decay_rate_estimate([(x, -1.0) for x in range(10)])


def test_level_crossings_match_closed_form():
    crossings = sw.g_level_crossings(sw.simple1d(), 2.0)
    lam_minus, lam_plus = sw.lambda_pm_1d(0.0, 1.0)
    assert crossings.above == pytest.approx(lam_plus, abs=1e-9)
    assert len(crossings.below) == 1
    assert crossings.below[0] == pytest.approx(lam_minus, abs=1e-9)


def _lazy3d(q):
    raw = {(0, 0, 0): q}
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        raw[e] = raw[tuple(-c for c in e)] = (1.0 - q) / 6.0
    return sw.validate_kernel(raw)


def _series_full_box(kernel, lam, tol=1e-10):
    # the path-counting loop over the whole box of radius n_stop * reach + reach + 1
    ratio = 1.0 / abs(lam)
    n_stop = max(1, int(math.ceil(math.log(tol * (1.0 - ratio)) / math.log(ratio))))
    box = LatticeBox.cube(n_stop * kernel.reach + kernel.reach + 1, kernel.dimension)
    dist = np.zeros(box.shape)
    origin = (box.radius,) * kernel.dimension
    dist[origin] = 1.0
    total = power = 1.0
    for _ in range(n_stop):
        dist = apply_P(kernel, dist, box)
        power /= lam
        total += power * float(dist[origin])
    return total


@pytest.mark.parametrize(
    "make, lam",
    [
        (lambda: sw.lazy1d(0.25), 1.05),
        (lambda: sw.lazy1d(0.25), -1.3),
        (sw.simple2d, 1.25),
        (sw.simple2d, -1.25),
        (lambda: _lazy3d(0.17), 2.5),
    ],
)
def test_series_active_ball_is_bit_identical(make, lam):
    k = make()
    assert sw.g_lambda_series(k, lam).value == _series_full_box(k, lam)


#: jointly symmetric only, with diagonal moves: along the last axis
#: z = 0.15 + 0.2 exp(i theta_0), so arg z != 0
DIAGONAL_2D = {(1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15, (1, 1): 0.2, (-1, -1): 0.2}
#: z = 0.4 cos(theta_0) changes sign between grid points: arg z jumps
#: between 0 and pi, and R comes close to 0
CROSSED_2D = {(1, 0): 0.1, (-1, 0): 0.1, (1, 1): 0.2, (-1, -1): 0.2, (1, -1): 0.2, (-1, 1): 0.2}
#: range 2 on the last axis, so the fibres run along the first
FIRST_AXIS_2D = {(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.15, (0, -1): 0.15, (0, 2): 0.15, (0, -2): 0.15}
#: z = 0.2 (cos theta_0 + cos theta_1) along the last axis vanishes on
#: whole diagonals of the grid, where R = 0 exactly
VANISHING_3D = {
    (a, b, c): 0.05 if c == 0 else 0.1
    for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))
    for c in (-1, 0, 1)
}
FIBRE_CASES = {
    "simple2d": (sw.simple2d, 1, 256),
    "diagonal2d": (lambda: sw.validate_kernel(DIAGONAL_2D), 1, 256),
    "crossed2d": (lambda: sw.validate_kernel(CROSSED_2D), 1, 256),
    "first_axis2d": (lambda: sw.validate_kernel(FIRST_AXIS_2D), 0, 256),
    "lazy3d": (lambda: _lazy3d(0.17), 2, 128),
    "vanishing3d": (lambda: sw.validate_kernel(VANISHING_3D), 2, 128),
}


def _full_grid_means(k, lam, xs, level):
    # the plain mean over the full torus grid, uncached
    base = 1.0 / (lam - _char_grid(k.offsets, k.probs, level).ravel())
    return np.mean(base), _fft_means(base, xs, level)


@pytest.mark.parametrize("name", FIBRE_CASES)
@pytest.mark.parametrize("side", ["above", "below"])
def test_fibre_route_matches_full_grid(name, side):
    make, axis, level = FIBRE_CASES[name]
    k = make()
    assert _fibre_axis(k.offset_array()) == axis
    d = k.dimension
    rng = np.random.default_rng(7)
    xs = [tuple(int(c) for c in x) for x in rng.integers(-6, 7, size=(20, d)) if any(x)]
    # negative and large coordinates along the fibre axis
    for a in (-1, -5, 17, -40 if d == 2 else -20):
        x = [2] * d
        x[axis] = a
        xs.append(tuple(x))
    for lam in ((1.3, 3.0) if side == "above" else (-1.5, k.lower - 0.1)):
        mean, values = _full_grid_means(k, lam, xs, level)
        table = sw.green_table(k, lam, xs + [0], 64)
        assert table[(0,)] == pytest.approx(mean, abs=1e-14), lam
        assert [table[x] for x in xs] == pytest.approx(list(values), abs=1e-14), lam
        g0 = sw.g_lambda_quadrature(k, lam, 64)
        assert g0.value == pytest.approx(lam * mean, abs=1e-14), lam
        assert g0.est_error < 1e-13


#: range 2 on both axes: no fibre formula, the full torus grid
RANGE2_2D = {(1, 0): 0.15, (-1, 0): 0.15, (0, 2): 0.15, (0, -2): 0.15, (2, 1): 0.2, (-2, -1): 0.2}


@pytest.mark.parametrize("lam", [1.3, -1.3])
def test_no_range1_axis_stays_on_full_grid(lam):
    k = sw.validate_kernel(RANGE2_2D)
    assert _fibre_axis(k.offset_array()) is None
    xs = [(1, 0), (2, -3), (0, 5), (-4, 1)]
    pts = 64
    table = sw.green_table(k, lam, xs + [(0, 0)], pts)
    # bit-identical to the FFT of the full grid at the finest level
    base = 1.0 / (lam - char_on_grid(k, 4 * pts))
    assert table[(0, 0)] == float(np.mean(base))
    canon = [min(x, tuple(-c for c in x)) for x in xs]
    assert [table[x] for x in xs] == list(_fft_means(base, canon, 4 * pts))
    g = _g0_on_grid(k, lam, 128)
    assert g == lam * np.mean(1.0 / (lam - char_on_grid(k, 128)))


@pytest.mark.parametrize("lam", [1.3, -1.3])
def test_full_grid_dft_matches_reference_at_every_level(monkeypatch, lam):
    k = sw.validate_kernel(RANGE2_2D)
    assert _fibre_axis(k.offset_array()) is None
    pts = 64
    # negative coordinates, and coordinates beyond pts/2 and beyond 4 pts/2
    xs = [(1, 0), (-3, 2), (2, -3), (0, -5), (40, 1), (-7, 90), (150, -33), (-200, 0)]
    calls = []
    dft = resolvent._dft

    def spy(rows, order, axis, level):
        out = dft(rows, order, axis, level)
        calls.append((order, axis, level, out))
        return out

    monkeypatch.setattr(resolvent, "_dft", spy)
    # _green_levels itself: (-200, 0) lies too close to the alias at N = 256 for
    # the certified views, whose error bound there exceeds their tolerance
    levels = resolvent._green_levels(k, lam, xs, pts)
    [(order, axis, level, out)] = calls
    assert axis == 1 and level == 4 * pts
    base = 1.0 / (lam - char_on_grid(k, level))
    assert list(out / base.size) == list(_fft_means(base, order, level))
    finest = dict(zip(map(tuple, order.tolist()), out / base.size))
    assert [levels[x][0] for x in xs] == [float(finest[min(x, tuple(-c for c in x))]) for x in xs]


def test_level_crossing_root_2d_matches_series():
    k = sw.simple2d()
    target = 1.0 + 1.0 / 3.5
    lc = sw.g_level_crossings(k, target)
    assert lc.above is not None and len(lc.below) == 1
    for root in (lc.above, lc.below[0]):
        assert type(root) is float
        assert sw.g_lambda_series(k, root, tol=1e-12).value == pytest.approx(target, abs=1e-9)


def test_level_crossings_near_the_edge_2d():
    # v = 0.3 puts both roots within 1e-5 of the spectrum, where a coarse
    # sign scan and the bisection grid once disagreed and made a false bracket
    k = sw.simple2d()
    target = 1.0 + 1.0 / 0.3
    lc = sw.g_level_crossings(k, target)
    assert lc.above is not None and len(lc.below) == 1
    for root in (lc.above, lc.below[0]):
        _verify_root(k, root, target)
    # the walk is bipartite, so g_{-lambda}(0) = g_lambda(0)
    assert abs(lc.below[0] + lc.above) <= 1e-9


def _range3_1d(seed):
    """Random symmetric 1d kernel on 0, +-1, +-2, +-3."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=4)
    w /= w[0] + 2.0 * w[1:].sum()
    raw = {0: w[0]}
    for x in (1, 2, 3):
        raw[x] = raw[-x] = w[x]
    return sw.validate_kernel(raw)


#: 1d walks on the full grid and 2d walks on fibres (DIAGONAL_2D keeps both
#: axes range 1); every one has ell < 0
CROSSING_BATTERY = {
    "lazy1d(0)": lambda: sw.lazy1d(0.0),
    "lazy1d(0.2)": lambda: sw.lazy1d(0.2),
    "lazy1d(0.4)": lambda: sw.lazy1d(0.4),
    "range3-1d-1": lambda: _range3_1d(1),
    "range3-1d-2": lambda: _range3_1d(2),
    "simple2d": sw.simple2d,
    "diagonal2d": lambda: sw.validate_kernel(DIAGONAL_2D),
}


@pytest.mark.parametrize("name", CROSSING_BATTERY)
def test_one_crossing_below_the_spectrum(name):
    # g is convex in 1/lambda below ell, with g = 1 at 1/lambda = 0, so on
    # any grid g - target changes sign at most once there; the solver finds
    # exactly the roots a dense scan of the bisection grid sees
    k = CROSSING_BATTERY[name]()
    assert k.lower < 0.0
    fine = _PTS_BISECT[k.dimension]
    for v in (0.3, 1.0, 2.5):
        target = 1.0 + 1.0 / v
        lc = sw.g_level_crossings(k, target)
        floor = -((v + 1.0) * abs(k.lower) + 1.0)
        lams = k.lower - np.geomspace(1e-7, k.lower - floor, 300)
        excess = np.array([_g0_on_grid(k, float(lam), fine) for lam in lams]) - target
        changes = int(np.count_nonzero(np.diff(np.sign(excess))))
        assert changes <= 1, (v, changes)
        assert len(lc.below) == changes, v
        if changes:
            assert excess[0] > 0.0 > excess[-1], v
            i = int(np.flatnonzero(np.diff(np.sign(excess)))[0])
            assert lams[i + 1] <= lc.below[0] <= lams[i], v
        if name.startswith("lazy1d"):
            lam_minus, lam_plus = sw.lambda_pm_1d(k.p0, v)
            assert lc.above == pytest.approx(lam_plus, abs=1e-9)
            assert lc.below[0] == pytest.approx(lam_minus, abs=1e-9)


@pytest.mark.parametrize("name", CROSSING_BATTERY)
def test_crossings_are_xtol_close_in_few_grid_means(name, monkeypatch):
    # each root lies within CROSSING_XTOL / 2 of a sign change of the grid
    # mean it solves on, and a solve takes at most 40 of those means (plain
    # bisection took 76-87 on these cases)
    k = CROSSING_BATTERY[name]()
    fine = _PTS_BISECT[k.dimension]
    calls = []

    def counted(kernel, lam, pts):
        calls.append(lam)
        return _g0_on_grid(kernel, lam, pts)

    monkeypatch.setattr(resolvent, "_g0_on_grid", counted)
    for v in (0.3, 1.0, 2.5):
        target = 1.0 + 1.0 / v
        calls.clear()
        lc = sw.g_level_crossings(k, target)
        assert len(calls) <= 40, (v, len(calls))
        assert lc.above is not None and len(lc.below) == 1, v
        for root in (lc.above, lc.below[0]):
            sides = [_g0_on_grid(k, root + h * CROSSING_XTOL, fine) - target for h in (-0.5, 0.5)]
            assert (sides[0] > 0.0) != (sides[1] > 0.0), (v, root, sides)


def _solve(f, inner, outer, xtol):
    """_root from the end values of f; the root and the evaluations it made."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return _root(counted, inner, outer, f(inner), f(outer), xtol), calls


def _sign_change_within(f, x, h):
    return f(x) == 0.0 or (f(x - h) > 0.0) != (f(x + h) > 0.0)


ROOT_CASES = {
    # slope 2 left of the root, 1/50 right of it
    "kinked": (lambda x: 2.0 * (0.3 - x) if x < 0.3 else 0.02 * (0.3 - x), 0.0, 1.0),
    # within 1e-15 of 0.5 on [0, 0.3], steep at the outer end
    "flat near inner": (lambda x: 0.5 - math.exp(60.0 * (x - 0.9)), 0.0, 1.0),
    "inner above outer": (lambda x: math.tanh(4.0 * (x - 0.25)), 1.0, -3.0),
    "cubic": (lambda x: 0.1 - x**3, -1.0, 2.0),
}


@pytest.mark.parametrize("name", ROOT_CASES)
@pytest.mark.parametrize("xtol", [1e-12, 1e-6])
def test_root_is_within_half_xtol_of_the_sign_change(name, xtol):
    f, inner, outer = ROOT_CASES[name]
    root, calls = _solve(f, inner, outer, xtol)
    assert min(inner, outer) <= root <= max(inner, outer)
    assert _sign_change_within(f, root, 0.5 * xtol), (root, f(root))
    # bisection needs log2(width / xtol) evaluations; Brent's fallback keeps
    # the worst case within a small multiple of that
    assert len(calls) <= 3 * math.log2(abs(outer - inner) / xtol), len(calls)


def test_root_of_a_jump_is_within_half_xtol():
    # no interpolation helps at a jump, so only the final bracket bounds the
    # distance; a bracket stopped at xtol instead of xtol / 2 leaves some of
    # these jumps up to 0.95 xtol away
    xtol = 1e-6
    for jump in np.linspace(0.01, 0.99, 97):
        root, _ = _solve(lambda x: 1.0 if x <= jump else -1.0, 0.0, 1.0, xtol)
        assert abs(root - jump) <= 0.5 * xtol, jump


def test_root_at_the_outer_end_is_returned_without_evaluations():
    root, calls = _solve(lambda x: 0.5 - x, 0.0, 0.5, 1e-12)
    assert root == 0.5 and calls == []


def test_root_in_a_bracket_narrower_than_xtol():
    xtol = 1e-9
    # narrower than xtol / 2: the end nearer the root, without evaluations
    root, calls = _solve(lambda x: 1.0 - x, 1.0 - 1e-10, 1.0 + 3e-10, xtol)
    assert root == 1.0 - 1e-10 and calls == []
    # between xtol / 2 and xtol: still within xtol / 2 of the sign change
    root, calls = _solve(lambda x: 1.0 - x, 1.0 - 8e-10, 1.0 + 1e-10, xtol)
    assert abs(root - 1.0) <= 0.5 * xtol and len(calls) <= 2


def test_root_terminates_below_the_float_spacing():
    # a step with no zero among the doubles and xtol far below their
    # spacing near 1e6: the bracket stops at a few ulps instead of looping
    c = 1e6 + 1.0 / 3.0
    root, calls = _solve(lambda x: 1.0 if x <= c else -1.0, 0.0, 2e6, 1e-30)
    assert abs(root - c) <= 4 * math.ulp(c) and len(calls) <= 200


def test_level_crossings_target_not_above_one():
    with pytest.raises(TargetNotAboveOne) as info:
        sw.g_level_crossings(sw.simple1d(), 1.0)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)
