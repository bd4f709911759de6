"""Symmetric finite-range random-walk kernels on Z^d.

A kernel is a finitely supported probability p with p(x) = p(-x) whose
support generates the whole lattice.  The associated transition operator
acts by convolution,

    (P f)(x) = sum_y p(x - y) f(y),

and is self-adjoint on l^2(Z^d) with spectrum [min p-hat, 1], where
p-hat(theta) = sum_x p(x) cos(theta . x) is the characteristic function.
This module owns kernel validation, p-hat, the convolution action on finite
boxes and the one stepper of its weighted powers M^m f, M = (1 + V) P
(``_powers``), exact return probabilities, and the plane-wave (Weyl) residual
diagnostics used to witness essential spectrum.  P acts on a box through one
slice stencil, ``_stencil``, which ``apply_P`` and the truncation's matvecs
call; ``_slice_plan`` builds its slices once per offsets and box shape.
p-hat on a tensor grid comes from one evaluator, ``_char_grid``, and along
the fibres of a range-1 axis from one other, ``_fibre_parts``; min p-hat is
computed once, in ``validate_kernel``, and kept as ``WalkKernel.lower``;
the same call decides irreducibility exactly, by Euclid's algorithm on the
support vectors.  A box owns its row-major site index, ``LatticeBox.flat``.
The band of P on a box, one row per site, comes from ``_neighbour_table``
and its dense form from ``_band_dense``; only readers of rows use it (dense
M and S, the Doob chain).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    BoxTooLarge,
    BoxTooSmall,
    CountNotInteger,
    DimensionMismatch,
    EmptySupport,
    LazinessOutOfRange,
    NegativeRadius,
    NegativeStepCount,
    NotIrreducible,
    NotNormalized,
    NotSymmetric,
    ShapeMismatch,
    WaveRadiusTooSmall,
)

Offset = tuple[int, ...]

#: most sites of an n x n dense build (``_dense_cap``): a band (the
#: truncation's M and S, the Doob chain's rows) or a matrix on the support of V
DENSE_CAP = 6000


def _count(value, name: str) -> int:
    """A count, radius or seed as an int; CountNotInteger for 2.5, "3" or None."""
    try:
        return operator.index(value)
    except TypeError:
        raise CountNotInteger(f"{name} must be an integer, got {value!r}") from None


def _as_offset(key, dim: int | None) -> Offset:
    if isinstance(key, (int, np.integer)):
        off = (int(key),)
    else:
        off = tuple(int(c) for c in key)
    if dim is not None and len(off) != dim:
        raise DimensionMismatch(f"site {off} has dimension {len(off)}, expected {dim}")
    return off


def _sup_norm(off) -> int:
    return max(abs(int(c)) for c in off)


@dataclass(frozen=True)
class LatticeBox:
    """Cube Q(center, radius) in Z^d with a row-major linear indexer."""

    center: Offset
    radius: int
    dim: int

    @classmethod
    def cube(cls, radius: int, dim: int, center: Offset | None = None) -> "LatticeBox":
        radius = _count(radius, "cube radius")
        if radius < 0:
            raise NegativeRadius(f"cube radius must be nonnegative, got {radius!r}")
        if center is None:
            center = (0,) * dim
        return cls(center=tuple(int(c) for c in center), radius=radius, dim=dim)

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dim

    @property
    def volume(self) -> int:
        return self.side**self.dim

    def sites(self) -> np.ndarray:
        """All sites as an (volume, dim) int array in row-major index order."""
        axes = [np.arange(c - self.radius, c + self.radius + 1) for c in self.center]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def contains(self, site) -> bool:
        site = _as_offset(site, self.dim)
        return all(abs(s - c) <= self.radius for s, c in zip(site, self.center))

    def flat(self, sites) -> np.ndarray:
        """Row-major index of every site of an (..., d) int array; no bounds check."""
        corner = np.asarray(self.center) - self.radius
        return (np.asarray(sites) - corner) @ (self.side ** np.arange(self.dim - 1, -1, -1))

    def index(self, site) -> int:
        site = _as_offset(site, self.dim)
        if not self.contains(site):
            raise IndexError(f"site {site} outside {self}")
        return int(self.flat(site))

    def origin_index(self) -> int:
        return self.index(self.center)


def _box(box: LatticeBox | int, dim: int) -> LatticeBox:
    """A box as given, or the cube of that radius about the origin."""
    return box if isinstance(box, LatticeBox) else LatticeBox.cube(box, dim)


@dataclass(frozen=True)
class WalkKernel:
    """Validated symmetric finite-range transition probability.

    offsets/probs list every support point (both x and -x stored), sorted
    for determinism.  ``reach`` is the sup-norm range r and ``lower`` the
    precomputed bottom of the spectrum, min p-hat.
    """

    offsets: tuple[Offset, ...]
    probs: tuple[float, ...]
    dimension: int
    reach: int
    lower: float

    def prob(self, offset) -> float:
        off = _as_offset(offset, self.dimension)
        try:
            return self.probs[self.offsets.index(off)]
        except ValueError:
            return 0.0

    @property
    def p0(self) -> float:
        return self.prob((0,) * self.dimension)

    def offset_array(self) -> np.ndarray:
        return np.array(self.offsets, dtype=int)

    def prob_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)


def _char_lower(offsets: np.ndarray, probs: np.ndarray, grid_density: int) -> float:
    """min of p-hat: a grid argmin, then one Newton descent on |Hessian|.

    With a range-1 axis a (``_fibre_axis``) the start is exact along a: on
    the fibre over theta', p-hat = alpha + R cos(theta_a + arg z) has its
    minimum alpha - R at theta_a = pi - arg z, so only the d - 1 other axes
    are scanned, on ``_fibre_parts``.  Otherwise the start is the argmin of
    ``_char_grid``.  Each Newton step solves with |H|: the Hessian
    H = -sum_y p(y) cos(theta . y) y y^T with every eigenvalue replaced by
    its absolute value, floored at 1e-12.  From a grid argmin beside a
    saddle, plain Newton walks onto the saddle; |H| turns the saddle's
    uphill direction downhill (Dauphin et al., NeurIPS 2014).  The step is
    halved, at most 29 times, until p-hat drops beyond rounding, and the
    descent stops when no halving does.  Uncached: without a range-1 axis
    the 3d grid at 256 is 134 MB.
    """
    axis = _fibre_axis(offsets)
    grid = _grid_phase((1,), grid_density).ravel()
    if axis is None:
        vals = _char_grid(offsets, probs, grid_density)
        theta = grid[np.array(np.unravel_index(int(np.argmin(vals)), vals.shape))]
    else:
        alpha, R, argz = _fibre_parts(offsets, probs, axis, grid_density)
        i = int(np.argmin(alpha - R))
        cell = np.unravel_index(i, (grid_density,) * (offsets.shape[1] - 1))
        theta = np.insert(grid[list(cell)], axis, np.pi - argz[i])
    value = _char_eval(offsets, probs, theta[None, :])[0]
    while True:
        cos, sin = probs * np.cos(offsets @ theta), probs * np.sin(offsets @ theta)
        w, U = np.linalg.eigh(-(offsets.T * cos) @ offsets)
        step = U @ ((U.T @ (sin @ offsets)) / np.maximum(np.abs(w), 1e-12))
        for _ in range(30):
            trial = theta + step
            trial_value = _char_eval(offsets, probs, trial[None, :])[0]
            if trial_value < value - 1e-15:
                break
            step = step / 2
        else:
            return float(value)
        theta, value = trial, trial_value


def _char_eval(offsets: np.ndarray, probs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    phases = theta @ offsets.T  # (..., n_offsets)
    return np.cos(phases) @ probs


def validate_kernel(raw, dimension: int | None = None) -> WalkKernel:
    """Check a raw offset->probability map and return the canonical kernel.

    Zero-probability entries are dropped.  Checks, in order: nonemptiness,
    nonnegativity, normalization (1e-12), symmetry p(x) = p(-x) as a pairing
    test, and irreducibility, decided exactly: the support must generate Z^d
    as a group (Spitzer, Principles of Random Walk, section 2).  Euclid's
    algorithm runs down each column of the support vectors, the row with
    the smallest nonzero entry reducing the others, and every pivot must be
    +-1.  Row operations are unimodular, so the generated group never
    changes (Hermite normal form; Cohen, 1993, section 2.4).
    """
    items = [(k, float(v)) for k, v in dict(raw).items()]
    if not items:
        raise EmptySupport("kernel map is empty")
    dim = dimension
    if dim is None:
        k0 = items[0][0]
        dim = 1 if isinstance(k0, (int, np.integer)) else len(k0)
    entries: dict[Offset, float] = {}
    for key, val in items:
        off = _as_offset(key, dim)
        if val < 0.0:
            raise NotNormalized(f"negative probability {val} at offset {off}")
        if val > 0.0:
            entries[off] = entries.get(off, 0.0) + val
    if not entries:
        raise EmptySupport("kernel support is empty after dropping zeros")

    total = math.fsum(entries.values())
    defect = abs(total - 1.0)
    if defect > 1e-12:
        raise NotNormalized(f"probabilities sum to {total!r} (defect {defect:.3e})")

    for off, val in entries.items():
        neg = tuple(-c for c in off)
        other = entries.get(neg)
        if other is None or abs(other - val) > 1e-15:
            raise NotSymmetric(f"p{off}={val} but p{neg}={other}")

    reach = max(_sup_norm(o) for o in entries)
    rows = list(entries)
    for c in range(dim):
        while len(live := [r for r in rows if r[c]]) > 1:
            piv = min(live, key=lambda r: abs(r[c]))
            rows = [
                r if r is piv else tuple(a - r[c] // piv[c] * b for a, b in zip(r, piv))
                for r in rows
            ]
        pivot = abs(live[0][c]) if live else 0
        if pivot != 1:
            raise NotIrreducible(
                f"the support generates a proper subgroup of Z^{dim}: pivot {pivot} on axis {c}"
            )
        rows.remove(live[0])

    order = sorted(entries)
    offsets = tuple(order)
    probs = tuple(entries[o] for o in order)
    off_arr = np.array(offsets, dtype=int)
    p_arr = np.array(probs, dtype=float)
    lower = _char_lower(off_arr, p_arr, 256)
    lower = max(lower, 2.0 * entries.get((0,) * dim, 0.0) - 1.0)
    return WalkKernel(offsets=offsets, probs=probs, dimension=dim, reach=reach, lower=lower)


# -- presets -----------------------------------------------------------------

def simple1d() -> WalkKernel:
    """Nearest-neighbour walk on Z: p(+-1) = 1/2."""
    return validate_kernel({1: 0.5, -1: 0.5})


def lazy1d(q: float) -> WalkKernel:
    """Lazy walk on Z: p(0) = q, p(+-1) = (1-q)/2."""
    if not 0.0 <= q < 1.0:
        raise LazinessOutOfRange(f"q must lie in [0, 1), got {q!r}")
    if q == 0.0:
        return simple1d()
    return validate_kernel({0: q, 1: (1.0 - q) / 2.0, -1: (1.0 - q) / 2.0})


def simple2d() -> WalkKernel:
    """Nearest-neighbour walk on Z^2: p(+-e1) = p(+-e2) = 1/4."""
    return validate_kernel(
        {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}
    )


# -- operations ---------------------------------------------------------------

def char_function(kernel: WalkKernel, theta) -> float | np.ndarray:
    """Characteristic function p-hat(theta) = sum p(x) cos(theta . x).

    theta may be a scalar (d=1), a d-vector, or an (..., d) array; the
    result is real by the symmetry of the kernel.
    """
    th = np.asarray(theta, dtype=float)
    if kernel.dimension == 1:
        th = th[..., None]  # every entry is a scalar frequency
    if th.shape[-1] != kernel.dimension:
        raise DimensionMismatch(f"theta last axis {th.shape} != dimension {kernel.dimension}")
    vals = _char_eval(kernel.offset_array(), kernel.prob_array(), th.reshape(-1, kernel.dimension))
    out = vals.reshape(th.shape[:-1])
    return float(out) if out.ndim == 0 else out


def _grid_phase(x: Offset, pts_per_axis: int) -> np.ndarray:
    """theta . x on the midpoint tensor grid of [-pi, pi]^d, d = len(x).

    Broadcastable: axes along which x vanishes have length 1, so the phase
    of an axis-aligned offset costs one axis, not a full grid.
    """
    d = len(x)
    axis = -np.pi + (np.arange(pts_per_axis) + 0.5) * (2.0 * np.pi / pts_per_axis)
    phase = np.zeros((1,) * d)
    for ax, o in enumerate(x):
        if o:
            shape = [1] * d
            shape[ax] = pts_per_axis
            phase = phase + (o * axis).reshape(shape)
    return phase


def _char_grid(offsets, probs, pts_per_axis: int) -> np.ndarray:
    """p-hat on the midpoint tensor grid of [-pi, pi]^d, shape (pts_per_axis,) * d.

    The one tensor-grid evaluator of p-hat; uncached.
    """
    out = np.zeros((pts_per_axis,) * len(offsets[0]))
    for off, p in zip(offsets, probs):
        out += p * np.cos(_grid_phase(off, pts_per_axis))
    return out


@lru_cache(maxsize=32)
def char_on_grid(kernel: WalkKernel, pts_per_axis: int) -> np.ndarray:
    """p-hat on the midpoint tensor grid of [-pi, pi]^d, flattened.

    Cached: the grid is reused heavily by quadrature and root finding.  The
    array is shared by every caller, so it is returned read-only.
    """
    out = _char_grid(kernel.offsets, kernel.probs, pts_per_axis).ravel()
    out.flags.writeable = False
    return out


def _fibre_axis(offsets: np.ndarray) -> int | None:
    """The last axis a with |y_a| <= 1 on the support, if d >= 2 and one exists.

    offsets is the (|support|, d) array of the support.  1d has no fibre
    route: there the fibre formula is the closed form, and quadrature must
    remain an independent route.
    """
    if offsets.shape[1] == 1:
        return None
    short = np.flatnonzero(np.abs(offsets).max(axis=0) <= 1)
    return int(short[-1]) if len(short) else None


def _fibre_parts(
    offsets, probs, axis: int, pts_per_axis: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p-hat along the fibres of a range-1 axis, on the grid of the other axes.

    With |y_axis| <= 1 on the support and theta' the other coordinates,
    p-hat = alpha(theta') + R(theta') cos(theta_axis + arg z(theta')), where
    alpha sums the offsets with y_axis = 0 and z = sum_{y_axis = 1} p(y)
    exp(i theta' . y'), R = 2 |z|.  Returns alpha, R and arg z on the
    midpoint grid of the d - 1 other axes, flattened; uncached.
    """
    shape = (pts_per_axis,) * (len(offsets[0]) - 1)
    alpha, z = np.zeros(shape), np.zeros(shape, dtype=complex)
    for off, p in zip(offsets, probs):
        phase = _grid_phase(tuple(off[:axis]) + tuple(off[axis + 1 :]), pts_per_axis)
        if off[axis] == 0:
            alpha += p * np.cos(phase)
        elif off[axis] == 1:
            z += p * np.exp(1j * phase)
    return alpha.ravel(), 2.0 * np.abs(z).ravel(), np.angle(z).ravel()


@lru_cache(maxsize=32)
def _fibre_grid(
    kernel: WalkKernel, axis: int, pts_per_axis: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_fibre_parts`` of a kernel; cached and read-only like ``char_on_grid``."""
    out = _fibre_parts(kernel.offsets, kernel.probs, axis, pts_per_axis)
    for arr in out:
        arr.flags.writeable = False
    return out


def apply_P(kernel: WalkKernel, f: np.ndarray, box: LatticeBox) -> np.ndarray:
    """Convolution action of P on a function given on a box, zero outside.

    (P f)(x) = sum_y p(y) f(x - y), summed in offset order.
    """
    if box.radius <= kernel.reach:
        raise BoxTooSmall(f"box radius {box.radius} must exceed kernel range {kernel.reach}")
    if f.shape != box.shape:
        raise ShapeMismatch(f"f shape {f.shape} does not match box shape {box.shape}")
    return _stencil(kernel.offsets, kernel.probs, f, sign=-1)


def _stencil(offsets, probs, g: np.ndarray, sign: int = 1) -> np.ndarray:
    """sum_k probs[k] g[x + sign offsets[k]] at every x of a box, zero outside it.

    The one applicator of P on a box.  The leading len(offsets[0]) axes of g
    are the box, any further axes (a block of columns) are carried along;
    each |offset| must be shorter than the box side and offsets a tuple of
    tuples.  Terms are added in the given order, one shifted slice each: no
    padding and no gather.
    """
    out = np.zeros_like(g)
    for (dst, src), p in zip(_slice_plan(offsets, g.shape[: len(offsets[0])], sign), probs):
        out[dst] += p * g[src]
    return out


@lru_cache(maxsize=64)
def _slice_plan(offsets, shape: tuple[int, ...], sign: int) -> tuple:
    """The (destination, source) slices of ``_stencil``, one pair per offset."""
    plan = []
    for off in offsets:
        off = [sign * o for o in off]
        dst = tuple(slice(max(-o, 0), n - max(o, 0)) for o, n in zip(off, shape))
        src = tuple(slice(max(o, 0), n - max(-o, 0)) for o, n in zip(off, shape))
        plan.append((dst, src))
    return tuple(plan)


def _powers(kernel: WalkKernel, dvec: np.ndarray, f: np.ndarray, n: int, box: LatticeBox):
    """Yield f, M f, .., M^n f for M = dvec * P on a box, zero outside.

    The one stepper of M in the package; lazy, so callers check arguments.
    """
    yield f
    for _ in range(n):
        f = apply_P(kernel, f, box) * dvec
        yield f


def _neighbour_table(kernel: WalkKernel, box: LatticeBox) -> tuple[np.ndarray, np.ndarray]:
    """Band of P on the sites of a box: one column per kernel offset.

    Returns (cols, probs), both (volume, |offsets|): cols[i, k] is the box
    index of the i-th site plus offsets[k] and probs[i, k] its P value.  A
    neighbour outside the box gets index 0 and weight 0.  The offsets are
    sorted, so the in-box columns of every row increase with k.
    """
    shifted = box.sites()[:, None, :] + kernel.offset_array()[None, :, :]
    inside = np.all(np.abs(shifted - box.center) <= box.radius, axis=2)
    cols = np.where(inside, box.flat(shifted), 0)
    probs = np.where(inside, kernel.prob_array()[None, :], 0.0)
    return cols, probs


def _dense_cap(n: int) -> None:
    """BoxTooLarge before an n x n dense build past DENSE_CAP sites."""
    if n > DENSE_CAP:
        raise BoxTooLarge(f"{n} sites exceed dense cap {DENSE_CAP}")


def _band_dense(cols: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Dense square matrix of a band: probs[i, k] at (i, cols[i, k]), zero elsewhere."""
    _dense_cap(len(cols))
    rows, ks = np.nonzero(probs)
    out = np.zeros((len(cols), len(cols)))
    out[rows, cols[rows, ks]] = probs[rows, ks]
    return out


def convolution_power_at_zero(kernel: WalkKernel, n: int) -> float:
    """Exact n-step return probability p_n(0) by repeated convolution."""
    n = _count(n, "n")
    if n < 0:
        raise NegativeStepCount(f"n must be >= 0, got {n}")
    box = LatticeBox.cube(n * kernel.reach + kernel.reach + 1, kernel.dimension)
    origin = (box.radius,) * kernel.dimension
    f = np.zeros(box.shape)
    f[origin] = 1.0
    # dvec = 1 multiplies exactly, so these are the bits of P^n
    return float(deque(_powers(kernel, np.ones(box.shape), f, n, box), maxlen=1)[0][origin])


def weyl_sequence_residual(kernel: WalkKernel, theta, n: int) -> float:
    """Residual ||(p-hat(theta) - P) u_n|| for the normalized plane wave on Q(0, n+r).

    u_n restricts exp(i theta . x) to the cube Q(0, n + r) and normalizes.
    The operator annihilates the wave in the bulk, so the residual comes
    from a boundary shell of width ~2r and scales like n^(-1/2) after
    normalization, in every dimension.  A theta that is not one frequency
    per axis raises DimensionMismatch, as in ``char_function``.
    """
    n = _count(n, "n")
    if n < 1:
        raise WaveRadiusTooSmall(f"n must be >= 1, got {n}")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != (kernel.dimension,):
        raise DimensionMismatch(f"theta shape {th.shape} != ({kernel.dimension},)")
    lam = float(_char_eval(kernel.offset_array(), kernel.prob_array(), th[None, :])[0])
    r = kernel.reach
    box = LatticeBox.cube(n + 2 * r + 1, kernel.dimension)
    wave = _plane_wave(box, th, n + r)
    resid = lam * wave - apply_P(kernel, wave, box)
    return float(np.linalg.norm(resid) / np.linalg.norm(wave))


def _plane_wave(box: LatticeBox, theta: np.ndarray, radius: int) -> np.ndarray:
    """exp(i theta . x) on the box, zero outside Q(0, radius).

    The outer product of one wave per axis, exp(i theta_j x_j) 1[|x_j| <= radius],
    so no (volume, d) site array or (volume,) phase array is built.
    Criterion 14's wave on Q(0, 203) sets the peak memory of the criteria.
    """
    waves = []
    for t, c in zip(theta, box.center):
        x = np.arange(c - box.radius, c + box.radius + 1)
        waves.append(np.exp(1j * t * x) * (np.abs(x) <= radius))
    return reduce(np.multiply.outer, waves)


def weyl_scaling_fit(kernel: WalkKernel, theta, ns) -> tuple[float, list[float]]:
    """Log-log slope of the Weyl residual against n; expected near -1/2."""
    residuals = [weyl_sequence_residual(kernel, theta, n) for n in ns]
    slope = float(np.polyfit(np.log(np.asarray(ns, float)), np.log(residuals), 1)[0])
    return slope, residuals
