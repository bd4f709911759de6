"""Resolvent and Green's function of the unperturbed walk.

For lambda off the spectrum the resolvent (lambda - P)^(-1) has kernel
G_lambda(x, y) = G_lambda(0, y - x), and the rescaled diagonal

    g_lambda(x) = lambda * G_lambda(0, x)

drives everything downstream: the excess essential spectrum solves
g_lambda(0) = 1 + 1/v, and Birman-Schwinger matrices are built from
off-diagonal Green values.  Three mutually checking evaluation routes are
provided: torus quadrature (any dimension), a Neumann power series valid
for |lambda| > 1 (path counting, independent of Fourier analysis), and the
explicit closed form for the 1d lazy walk.

Quadrature is the midpoint rule on the torus.  ``_inverse`` is the one map
from (kernel, lambda, level) to the grid it averages:

* Fibre grid (d >= 2 with a range-1 axis a, |y_a| <= 1 on the support:
  every preset and the nearest-neighbour walks).  Along a the kernel reads
  p-hat = alpha(theta') + R(theta') cos(theta_a + arg z(theta')), with
  theta' the other coordinates (``_fibre_grid``).  With A = lambda - alpha
  and s = sqrt(A^2 - R^2), the theta_a-mean of 1/(lambda - p-hat) is
  exactly sgn(A)/s, so only the d - 1 other axes take the midpoint rule.
* Full grid (``char_on_grid``), 1/(lambda - p-hat) at every point: 1d,
  where the fibre formula *is* ``g_lambda_closed_1d`` and quadrature must
  stay an independent route, and kernels with range >= 2 on every axis.

The origin is the plain mean of that grid.  Every x != 0 comes from one
DFT, ``_dft``: one weight row per coordinate x_a along one axis, and one
inverse FFT of each row over the d - 1 other axes, which gives every x'
on the grid at once.  The midpoint grid theta_j = -pi + (j + 1/2) 2 pi / N
only turns each value by (-1)^c e^{i pi c / N}, c = sum x' (``_turn``).
On fibres the row is exact: the theta_a-mean of
exp(i k theta_a)/(lambda - p-hat) is sgn(A) rho^|k| exp(-i k arg z)/s
with rho = R/(A + sgn(A) s), the 1d closed form on each fibre.  On the
full grid the axis is the last one and the row is its midpoint rule,
read from one inverse FFT of every grid line along it; in 1d that FFT
is the whole table.

Two evaluators read ``_inverse``:

* ``_green_levels`` (certified): G_lambda(0, x) for a set of displacements
  on one grid of 4 pts points per axis, pts >= 64, each with a bound on
  its aliasing error from the Combes-Thomas rate ``_kappa_star``.
  ``green_table``, ``green_kernel`` and ``g_lambda_quadrature`` are views
  of it.
* ``_g0_on_grid`` (uncertified): lambda * mean ``_inverse`` at a single
  grid, for one lambda: one step of the level-crossing root solver.

The level crossings g_lambda(0) = target > 1 need no scan.  Above the
spectrum g decreases from +infinity (d <= 2) to 1.  Below the bottom edge
ell < 0, with t = 1/lambda, g = mean 1/(1 - t p-hat) is convex in t, since
1 - t p-hat > 0 there, and g = 1 at t = 0; the same holds for every grid
and fibre mean, each a mean over p-hat values in [ell, 1].  So {g <= target}
is an interval reaching t = 0, and each side holds at most one root, found
by one bracketed solve, ``_root`` (Brent's zeroin).  The solver evaluates g
on ``_PTS_BISECT`` grids and checks each root on ``_PTS_LADDER``, whose base
grids are tried in turn until the error bound falls below 1e-11 |g|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    LambdaInSpectrum,
    LambdaNotFinite,
    LazinessOutOfRange,
    NonPositiveValue,
    QuadratureNotConverged,
    SeriesDiverges,
    TargetNotAboveOne,
    TooFewPoints,
)
from .lattice import (
    WalkKernel,
    _as_offset,
    _fibre_axis,
    _fibre_grid,
    char_on_grid,
)

#: points where spectrum proximity is rejected outright
SPECTRUM_GUARD = 1e-12

#: fewest points a decay fit takes
MIN_FIT_POINTS = 8

#: fewest quadrature points per axis (GridTooCoarse below it)
PTS_FLOOR = 64


@dataclass(frozen=True)
class GreenEvaluation:
    """One evaluated resolvent quantity with a method tag and error estimate."""

    value: float
    method: str
    est_error: float


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential-decay fit of positive samples."""

    rate: float
    residual_rms: float


def _guard_spectrum(kernel: WalkKernel, lam: float, margin: float = SPECTRUM_GUARD) -> None:
    if not math.isfinite(lam):
        raise LambdaNotFinite(f"lambda={lam!r} is not a finite number")
    if kernel.lower - margin <= lam <= 1.0 + margin:
        raise LambdaInSpectrum(f"lambda={lam!r} within {margin} of [{kernel.lower!r}, 1]")


def _ct_margin(kernel: WalkKernel, lam: float, axes, kappa: float) -> float:
    """c(kappa) = dist(lam, [ell, 1]) - max over i in ``axes`` of sum_y p(y) (cosh(kappa y_i) - 1).

    While c(kappa) > 0, |G_lambda(0, y)| <= e^{-kappa |y_i|} / c(kappa) for
    every i in axes (Combes & Thomas, CMP 34, 1973).
    """
    # plain floats suit a handful of offsets; cosh - 1 = 2 sinh^2(/2) has no cancellation
    # near kappa = 0, and s * s overflows to inf where s ** 2 would raise
    excess = 0.0
    for i in axes:
        total = 0.0
        for y, p in zip(kernel.offsets, kernel.probs):
            s = math.sinh(0.5 * kappa * y[i])
            total += 2.0 * p * s * s
        excess = max(excess, total)
    return max(lam - 1.0, kernel.lower - lam) - excess


def _kappa_star(kernel: WalkKernel, lam: float, axes) -> float:
    """kappa*: the smallest root over ``axes`` of c(kappa), cached per (kernel, lam, axes)."""
    return _kappa_star_cached(kernel, lam, tuple(axes))


@lru_cache(maxsize=256)
def _kappa_star_cached(kernel: WalkKernel, lam: float, axes: tuple[int, ...]) -> float:
    """``_kappa_star`` by ``_root`` from doubling brackets, one root per axis."""
    roots = []
    for i in axes:
        margin = partial(_ct_margin, kernel, lam, (i,))
        hi = 1.0
        while (f_hi := margin(hi)) > 0.0:
            hi *= 2.0
        roots.append(_root(margin, 0.0, hi, margin(0.0), f_hi, 0.0))
    return min(roots)


def _inverse(kernel: WalkKernel, axis: int | None, lam, level: int) -> np.ndarray:
    """The grid whose mean is G_lambda(0, 0), flattened.

    With axis None, 1/(lam - p-hat) on the full grid; otherwise sgn(A)/s
    with A = lam - alpha, s = sqrt(A^2 - R^2), the exact theta_a-mean of
    1/(lam - p-hat) on every fibre of ``_fibre_grid``.
    """
    if axis is None:
        return 1.0 / (lam - char_on_grid(kernel, level))
    alpha, R, _ = _fibre_grid(kernel, axis, level)
    A = lam - alpha
    return np.sign(A) / np.sqrt((A - R) * (A + R))


#: entries of the largest intermediate table of ``_dft``
_DFT_BLOCK = 2**16


def _turn(c, level: int) -> np.ndarray:
    """(-1)^c exp(i pi c / N), N = level, with c taken mod 2N into [-N, N).

    On the midpoint grid theta_j = -pi + (j + 1/2) 2 pi / N,
    exp(i theta_j c) = _turn(c) exp(2 pi i j c / N).
    """
    m = (np.asarray(c) + level) % (2 * level) - level
    return np.where(m % 2, -1.0, 1.0) * np.exp(1j * np.pi / level * m)


def _dft(rows, xs: np.ndarray, axis: int, level: int) -> np.ndarray:
    """Re sum_theta' rows(x_a)(theta') exp(i theta' . x') for every row x of xs.

    theta' runs over the midpoint grid of the d - 1 axes other than
    ``axis``, and x' are the matching coordinates of x.  rows(c) returns
    the weight rows of the coordinates c along ``axis``, one row of
    level**(d - 1) points per c; it is called on blocks of the coordinates
    that occur in xs, each block at most ``_DFT_BLOCK`` entries or one
    row.  One inverse FFT of each row over the d - 1 axes gives every x' at
    once (Cooley & Tukey, Math. Comp. 19, 1965); each x reads it at
    x' mod N and turns it by ``_turn`` of sum x', so negative coordinates
    and |c| > N / 2 need no other folding.
    """
    d = xs.shape[1]
    ks, kwhere = np.unique(xs[:, axis], return_inverse=True)
    rest = np.delete(xs, axis, axis=1)
    turn = _turn(rest.sum(axis=1), level)
    at = tuple((rest % level).T)
    block = max(1, _DFT_BLOCK // level ** (d - 1))
    out = np.empty(len(xs))
    for start in range(0, len(ks), block):
        table = rows(ks[start : start + block]).reshape((-1,) + (level,) * (d - 1))
        if d > 1:
            table = np.fft.ifftn(table, axes=range(1, d), norm="forward")
        sel = (kwhere >= start) & (kwhere < start + block)
        out[sel] = (table[(kwhere[sel] - start,) + tuple(a[sel] for a in at)] * turn[sel]).real
    return out


def _green_levels(
    kernel: WalkKernel, lam: float, displacements, pts_per_axis: int
) -> dict[tuple[int, ...], tuple[float, float, float]]:
    """G_lambda(0, x), its aliasing bound and its rounding floor for each displacement.

    One grid of N = 4 pts points per axis serves every displacement (x and
    -x read one value): the origin is the mean of ``_inverse``, every
    x != 0 comes from ``_dft``.  On the k integrated axes (all d, or the
    d - 1 off the fibre axis) the midpoint rule aliases exactly:
    Q_N(x) - G(0, x) = sum_{m != 0} +-G(0, x + N m) (Trefethen & Weideman,
    SIAM Review 56, 2014).  The (2j + 1)^k - (2j - 1)^k terms with
    |m|_inf = j are each at most e^{-kappa (jN - X)} / c(kappa)
    (``_ct_margin``), X = max |x_i| over those axes, kappa = max(kappa* -
    1/N, kappa*/2); summed in closed form for k <= 3 and X < N, infinite
    otherwise.  The floor: eps |G(0, 0)| / delta from the rounding of p-hat
    (delta = c(0), the distance to the spectrum), eps pi |x_a| |G(0, 0)|
    from the phase and power of each fibre row, and the FFT's rounding on a
    mean of n = N^k weights w.  For N a power of two that is the radix-2
    normwise bound t eta ||w||_2 / sqrt(n), with t = log2 n and
    eta = u + gamma_4 (sqrt 2 + u) for twiddles within u = eps / 2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2).
    The weights are at most |_inverse| <= 1/delta, which keeps one sign, so
    ||w||_2 / sqrt(n) <= sqrt(|G(0, 0)| / delta); the bound also covers the
    pairwise mean at the origin and the product with ``_turn``.  Other N
    take mixed-radix or Bluestein passes, which that theorem does not
    cover; there the floor keeps eps sqrt(n) (1 + pi |x|_1) |G(0, 0)|, the
    generous probabilistic bound of a sum of n terms with phases pi |x|_1
    (Higham & Mary, SIAM J. Sci. Comput. 41, 2019).
    """
    if pts_per_axis < PTS_FLOOR:
        raise GridTooCoarse(f"pts_per_axis must be >= {PTS_FLOOR}, got {pts_per_axis}")
    _guard_spectrum(kernel, lam)
    d = kernel.dimension
    keys = [_as_offset(x, None) for x in displacements]
    for x in keys:
        if len(x) > d:
            raise DimensionMismatch(f"displacement {x} has dimension {len(x)}, above {d}")
    axis = _fibre_axis(kernel.offset_array())
    axes = [a for a in range(d) if a != axis]
    level = 4 * pts_per_axis
    base = _inverse(kernel, axis, lam, level)
    g0 = float(np.mean(base))
    kstar = _kappa_star(kernel, lam, axes)
    kappa = max(kstar - 1.0 / level, 0.5 * kstar)
    r, s = math.exp(-kappa * level), -math.expm1(-kappa * level)  # s = 1 - r
    # sum_j [(2j + 1)^k - (2j - 1)^k] r^(j - 1)
    shells = {1: 2.0 / s, 2: 8.0 / s**2, 3: 24.0 * (1.0 + r) / s**3 + 2.0 / s}
    scale = shells.get(len(axes), math.inf) / _ct_margin(kernel, lam, axes, kappa)
    # off the spectrum _inverse keeps one sign: its mean magnitude is |mean|
    ulp = math.ulp(1.0) * abs(g0)
    slope = 1.0 / _ct_margin(kernel, lam, axes, 0.0)  # c(0) = delta
    n = base.size
    if n & (n - 1):  # odd factors: the floor grows with |x|_1
        fft, per_x = ulp * math.sqrt(n), ulp * math.sqrt(n) * math.pi
    else:
        t, u = math.log2(n), 0.5 * math.ulp(1.0)
        eta = u + 4.0 * u / (1.0 - 4.0 * u) * (math.sqrt(2.0) + u)
        fft, per_x = t * eta / (1.0 - t * eta) * math.sqrt(abs(g0) * slope), 0.0
    # x = 0 (missing trailing coordinates are 0, so in any d) is the plain mean
    out = dict.fromkeys(keys, (g0, scale * r, ulp * slope + fft))
    nonzero = [x for x in out if any(x)]
    if not nonzero:
        return out
    xs = np.array([x + (0,) * (d - len(x)) for x in nonzero], dtype=np.int64)
    size = np.abs(xs)
    # x and -x read the same coordinates, the ones whose first nonzero entry is
    # negative, so their values agree to the bit
    lead = xs[np.arange(len(xs)), np.argmax(xs != 0, axis=1)]
    xs[lead > 0] *= -1
    if axis is None:
        cols = base.reshape(-1, level)
        step = max(1, _DFT_BLOCK // level)

        def rows(c):
            # sum_j cols[:, j] exp(2 pi i j c / N), turned onto the midpoint grid
            lines = (cols[i : i + step] for i in range(0, len(cols), step))
            table = np.concatenate([np.fft.ifft(b, norm="forward")[:, c % level] for b in lines])
            return _turn(c, level)[:, None] * table.T
    else:
        alpha, R, argz = _fibre_grid(kernel, axis, level)
        rho = R / (lam - alpha + 1.0 / base)  # 1/base = sgn(A) s

        def rows(c):
            k = c[:, None]
            return base * rho ** np.abs(k) * np.exp(-1j * k * argz)
    means = _dft(rows, xs, d - 1 if axis is None else axis, level) / n
    X = size[:, axes].max(axis=1)
    alias = np.where(X < level, scale * np.exp(kappa * (np.minimum(X, level) - level)), math.inf)
    along = 0.0 if axis is None else size[:, axis]
    rounding = ulp * (slope + math.pi * along) + fft + per_x * size.sum(axis=1)
    out.update(zip(nonzero, zip(means.tolist(), alias.tolist(), rounding.tolist())))
    return out


def _certified(kernel: WalkKernel, lam: float, displacements, pts_per_axis: int):
    """(G, error bound) per x; QuadratureNotConverged if aliasing exceeds 1e-12 (1 + |G|)."""
    levels = _green_levels(kernel, lam, displacements, pts_per_axis)
    for x, (value, alias, _) in levels.items():
        if alias > 1e-12 * (1.0 + abs(value)):
            raise QuadratureNotConverged(
                f"aliasing bound {alias:.3e} of G(0, {x}) at lambda={lam!r}; refine pts_per_axis"
            )
    return {x: (value, alias + rounding) for x, (value, alias, rounding) in levels.items()}


def g_lambda_quadrature(kernel: WalkKernel, lam: float, pts_per_axis: int = 256) -> GreenEvaluation:
    """g_lambda(0) = lambda (2 pi)^-d  integral dtheta / (lambda - p-hat).

    Midpoint rule on one torus grid (spectrally accurate off the spectrum),
    exact along a range-1 axis in d >= 2; the error is the bound of
    ``_green_levels``, and QuadratureNotConverged means it was too large.
    """
    [(mean, err)] = _certified(kernel, lam, [(0,) * kernel.dimension], pts_per_axis).values()
    return GreenEvaluation(value=lam * mean, method="quadrature", est_error=err * abs(lam))


def green_kernel(
    kernel: WalkKernel, lam: float, x, pts_per_axis: int = 256
) -> GreenEvaluation:
    """Green value G_lambda(0, x) by torus quadrature.

    By translation invariance G_lambda(x, y) = G_lambda(0, y - x); by the
    symmetry of p the value depends on x only through +-x.
    """
    [(value, err)] = _certified(kernel, lam, [x], pts_per_axis).values()
    return GreenEvaluation(value=value, method="quadrature", est_error=err)


def green_table(
    kernel: WalkKernel, lam: float, displacements, pts_per_axis: int = 256
) -> dict[tuple[int, ...], float]:
    """G_lambda(0, x) for many displacements sharing one grid."""
    levels = _certified(kernel, lam, displacements, pts_per_axis)
    return {x: value for x, (value, _) in levels.items()}


def g_lambda_series(kernel: WalkKernel, lam: float, tol: float = 1e-10) -> GreenEvaluation:
    """g_lambda(0) = sum_n lambda^(-n) p_n(0), valid for |lambda| > 1.

    Independent of the Fourier route: return probabilities are accumulated
    by exact repeated convolution, and the tail is bounded geometrically by
    |lambda|^(-n) / (1 - 1/|lambda|).
    """
    if not math.isfinite(lam):
        raise LambdaNotFinite(f"lambda={lam!r} is not a finite number")
    if abs(lam) <= 1.0:
        raise SeriesDiverges(f"series needs |lambda| > 1, got {lam!r}")
    ratio = 1.0 / abs(lam)
    n_stop = max(1, int(math.ceil(math.log(tol * (1.0 - ratio)) / math.log(ratio))))
    # step n only updates the ball of radius min(n, n_stop - n) * reach: dist
    # vanishes beyond n * reach, and nothing beyond (n_stop - n) * reach can
    # return to the origin by step n_stop.  Two buffers of the widest ball
    # plus one reach serve every step; outside its ball a buffer is stale or
    # zero, and reads never leave the ball of the step before.
    r, d = kernel.reach, kernel.dimension
    radius = (n_stop // 2 + 1) * r
    dist, new = np.zeros((2 * radius + 1,) * d), np.zeros((2 * radius + 1,) * d)
    origin = (radius,) * d
    dist[origin] = 1.0
    total = 1.0  # n = 0 term
    power = 1.0
    for n in range(1, n_stop + 1):
        w = min(n, n_stop - n) * r
        out = new[(slice(radius - w, radius + w + 1),) * d]
        out[...] = 0.0
        for off, p in zip(kernel.offsets, kernel.probs):
            out += p * dist[tuple(slice(radius - w - o, radius + w + 1 - o) for o in off)]
        dist, new = new, dist
        power /= lam
        total += power * float(dist[origin])
    tail = ratio**n_stop / (1.0 - ratio)
    return GreenEvaluation(value=total, method="series", est_error=tail)


def g_lambda_closed_1d(q: float, lam: float, x: int = 0) -> GreenEvaluation:
    """Closed form of g_lambda(x) for the 1d lazy walk p(0)=q, p(+-1)=(1-q)/2.

    With delta = (lam - 1)(lam - (2q - 1)) and
    phi = (lam - q - sqrt(delta)) / (1 - q):

        g_lambda(x) =  (lam / sqrt(delta)) phi^|x|      for lam > 1,
        g_lambda(x) = -(lam / sqrt(delta)) phi^(-|x|)   for lam < 2q - 1.

    The left spectral edge for q = 1/2 sits at 0 where the limit value is 0;
    that single boundary point is special-cased.
    """
    if lam == 0.0 and q == 0.5:
        return GreenEvaluation(value=0.0, method="closed_1d", est_error=0.0)
    phi = phi_closed_1d(q, lam)
    root = math.sqrt((lam - 1.0) * (lam - (2.0 * q - 1.0)))
    if lam > 1.0:
        value = lam / root * phi ** abs(int(x))
    else:
        value = -lam / root * phi ** (-abs(int(x)))
    return GreenEvaluation(value=value, method="closed_1d", est_error=0.0)


def phi_closed_1d(q: float, lam: float) -> float:
    """Geometric ratio phi(lambda) of the 1d closed form (decay base)."""
    if not 0.0 <= q < 1.0:
        raise LazinessOutOfRange(f"q must lie in [0, 1), got {q!r}")
    edge = 2.0 * q - 1.0
    if edge - SPECTRUM_GUARD <= lam <= 1.0 + SPECTRUM_GUARD:
        raise LambdaInSpectrum(f"lambda={lam!r} inside [{edge!r}, 1]")
    return (lam - q - math.sqrt((lam - 1.0) * (lam - edge))) / (1.0 - q)


def decay_rate_estimate(values) -> DecayFit:
    """Least-squares line on (|x|, log value); rate is minus the slope."""
    pts = [(float(r), float(v)) for r, v in values]
    if len(pts) < MIN_FIT_POINTS:
        raise TooFewPoints(f"need >= {MIN_FIT_POINTS} points, got {len(pts)}")
    for r, v in pts:
        if v <= 0.0:
            raise NonPositiveValue(f"value {v!r} at |x|={r} is not positive")
    xs = np.array([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    coef = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coef, xs)
    return DecayFit(rate=float(-coef[0]), residual_rms=float(np.sqrt(np.mean(resid**2))))


# -- level crossings of g_lambda(0) ------------------------------------------

#: certified base grids for root verification, tried in turn; the 3d
#: ladder starts below the 64-point floor, so 3d roots fail GridTooCoarse
_PTS_LADDER = {1: (512, 2048, 8192, 32768), 2: (128, 512), 3: (32, 64)}

#: single-level grids for the root-solver steps of the level crossings
_PTS_BISECT = {1: 32768, 2: 2048, 3: 128}

#: g_level_crossings puts each root within CROSSING_XTOL / 2 of a sign change
#: of g - target on its ``_PTS_BISECT`` grid
CROSSING_XTOL = 1e-12


def _g0_on_grid(kernel: WalkKernel, lam: float, pts_per_axis: int) -> float:
    """lam * mean ``_inverse`` at one grid level; no convergence certificate."""
    axis = _fibre_axis(kernel.offset_array())
    return lam * float(np.mean(_inverse(kernel, axis, lam, pts_per_axis)))


def _g0(kernel: WalkKernel, lam: float) -> float:
    """g_lambda(0), escalating through the _PTS_LADDER base grids.

    Returns the first level whose aliasing bound is at most
    1e-11 max(1, |g|), or else the last level's value.
    """
    origin = (0,) * kernel.dimension
    for pts in _PTS_LADDER[kernel.dimension]:
        [(mean, alias, _)] = _green_levels(kernel, lam, [origin], pts).values()
        if abs(lam) * alias <= 1e-11 * max(1.0, abs(lam * mean)):
            break
    return lam * mean


@dataclass(frozen=True)
class LevelCrossings:
    """Solutions of g_lambda(0) = target off the spectrum."""

    above: float | None
    below: tuple[float, ...]


def _root(excess, inner: float, outer: float, f_inner: float, f_outer: float, xtol: float) -> float:
    """Brent's zeroin on [inner, outer] (either order), from its end values.

    f_inner = excess(inner) > 0 >= f_outer = excess(outer) on entry.  Each
    step is an inverse quadratic or secant step, or a bisection when that
    step would leave the bracket or shrink it too slowly (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).  The
    bracket [b, c] keeps excess(b) and excess(c) on opposite sides of 0.
    Once |c - b| <= max(xtol / 2, 4 ulp(b)), or excess(b) == 0, it returns
    b, the end with the smaller |excess|; so b lies within xtol / 2 of a
    sign change of excess whenever xtol / 2 >= 4 ulp(b).
    """
    a, fa, b, fb = inner, f_inner, outer, f_outer
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(0.25 * xtol, 2.0 * math.ulp(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # accept the interpolated step only inside 3/4 of the bracket and
            # shorter than half the step before last; bisect otherwise
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = excess(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def g_level_crossings(kernel: WalkKernel, target: float) -> LevelCrossings:
    """Solve g_lambda(0) = target (> 1) on both resolvent components.

    Above the spectrum g is strictly decreasing from g(1+) to 1, so a
    bracketed root solver applies whenever a bracket exists: the first
    point 1 + 0.5 / 4^k where g exceeds the target and the point before it,
    or, if that is 1.5, the last two points of 1 + 0.5 * 2^k above and not
    above the target.  Below the bottom edge ell < 0, g is convex in
    t = 1/lambda (its second derivative is 2 mean p-hat^2 / (1 - t p-hat)^3
    >= 0) and g = 1 < target at t = 0, so
    g - target changes sign at most once: g > target between the root and
    ell, g < target beyond it.  Every root satisfies
    |lambda| <= (v + 1) |ell| with v = 1/(target - 1), since
    g <= |lambda| / (|lambda| - |ell|) there; one solve on
    [-((v + 1) |ell| + 1), ell - 1e-7] finds it whenever g(ell - 1e-7)
    exceeds the target.  Both solves are ``_root`` (Brent's zeroin), started
    from the end values the bracket search computed, on single uncertified
    grids (near-edge values are only needed qualitatively); each root lies
    within CROSSING_XTOL / 2 of a sign change of the grid's g - target and
    is then re-verified with a certified evaluation.
    """
    if not target > 1.0:
        raise TargetNotAboveOne(f"target must exceed 1, got {target!r}")
    fine = _PTS_BISECT[kernel.dimension]

    def excess(lam: float) -> float:
        return _g0_on_grid(kernel, lam, fine) - target

    above = None
    outer = f_outer = None
    h = 0.5
    while h >= 1e-9:
        inner = 1.0 + h
        f_inner = excess(inner)
        if f_inner > 0.0:
            break
        outer, f_outer = inner, f_inner
        h /= 4.0
    if f_inner > 0.0:
        while outer is None:
            lam = 1.0 + 2.0 * (inner - 1.0)
            f_lam = excess(lam)
            if f_lam > 0.0:
                inner, f_inner = lam, f_lam
            else:
                outer, f_outer = lam, f_lam
        above = _root(excess, inner, outer, f_inner, f_outer, CROSSING_XTOL)
        _verify_root(kernel, above, target)

    below: tuple[float, ...] = ()
    ell = kernel.lower
    if ell < 0.0:
        v = 1.0 / (target - 1.0)
        floor = -((v + 1.0) * abs(ell) + 1.0)
        edge = ell - 1e-7
        f_edge = excess(edge)
        if f_edge > 0.0:
            root = _root(excess, edge, floor, f_edge, excess(floor), CROSSING_XTOL)
            _verify_root(kernel, root, target)
            below = (root,)
    return LevelCrossings(above=above, below=below)


def _verify_root(kernel: WalkKernel, root: float, target: float) -> None:
    value = _g0(kernel, root)
    if abs(value - target) > 1e-6 * max(1.0, target):
        raise QuadratureNotConverged(
            f"root {root!r} fails verification: g = {value!r}, target {target!r}"
        )
