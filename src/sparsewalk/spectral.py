"""Finite-volume spectral analysis of the multiplicatively perturbed walk.

The operator of interest multiplies the convolution output pointwise by
1 + V.  On a box with zero (Dirichlet) exterior it becomes the matrix

    M(x, y) = (1 + V(x)) p(y - x),

which is similar to the symmetric matrix S = D^(1/2) P D^(1/2) with
D = diag(1 + V); eigenvalues coincide and eigenvectors map through
phi = D^(1/2) psi.  Normalizing psi in l^2 normalizes phi in the weighted
inner product <f, g>_V = <(1+V)^(-1) f, g>, which is the natural geometry:
the operator is self-adjoint there.

P acts on the box through the slice stencil of ``lattice._stencil``, one
shifted slice per kernel offset.  The top eigenpairs (thick-restart block
Lanczos on a basis bounded by RESTART_BLOCKS, on blocks of two rows, the
thinnest that can show a repeated eigenvalue, and rerun on blocks of
`count` rows when a wanted one repeats), power iteration, the
spectral-projection fit and every eigen residual use these matrix-free
products, at any box volume.  The truncation also keeps the band of P,
one column per kernel offset (the box index of each neighbour and its P
value, zero for a neighbour outside the box), for the readers of rows:
the Doob chain and the dense M and S, built on first use, only up to
DENSE_CAP rows, where the whole spectrum or its bottom edge is needed.

This module provides the truncation itself, a block Lanczos solver for the
top eigenpairs, a power-iteration Perron solver (the positive ground state
of the Doob chain), the predictor for the excess essential spectrum (the
level set g_lambda(0) = 1 + 1/v over declared essential values v), the
discrete pairs outside its hull with sigma(P) and their decay along e1,
the per-box spectral report, which reads one dense eigh per box for its
spectrum and the decay of its top eigenfunction, bipartiteness and
diagonal-dominance certificates for the absolute gap, the edge
inequality check, spectral-projection contraction fits, and a
Sturm-sequence distance oracle in standard-library `decimal` arithmetic
for tridiagonal truncations whose spectral accumulation happens far
below float64 resolution: it locates the nearest eigenvalue by Newton
steps read off the LDL pivot sweep and certifies the distance by
eigenvalue counts.
"""

from __future__ import annotations

import itertools
import math
from decimal import Context, Decimal, InvalidOperation, localcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    GapNotCertified,
    LambdaNotFinite,
    LazinessOutOfRange,
    LevelNotPositive,
    NoConvergence,
    NoRootAboveOne,
    NotSparse,
    NotStabilized,
    NotTridiagonal,
    PairCountOutOfRange,
    TargetNotNumeric,
    ToleranceNotPositive,
    TooFewRadii,
    TruncationTooSmall,
)
from .lattice import (
    LatticeBox,
    WalkKernel,
    _band_dense,
    _char_lower,
    _count,
    _neighbour_table,
    _stencil,
)
from .potential import PotentialSpec, _one_plus_v, sparseness_profile
from .resolvent import MIN_FIT_POINTS, DecayFit, decay_rate_estimate, g_level_crossings

#: eigenvalues within this of the top are treated as the peripheral set
PERIPHERAL_TOL = 1e-10

#: most eigenpairs eigensolve_top returns in each ordering
MAX_PAIRS = 10

#: seed of the Lanczos start block and of its breakdown refills
LANCZOS_SEED = 20240

#: a wanted Ritz pair has converged at ||B y_last|| <= RITZ_TOL max(1, max |theta|);
#: its vector is then off by about RITZ_TOL / gap, so 1e-12 would leave
#: 1e-13 errors that a projection onto the dense eigenvector can see
RITZ_TOL = 1e-14

#: a new Lanczos direction below this fraction of ||S Q|| is a breakdown;
#: below RITZ_TOL, so what a refill drops cannot hide a residual
BREAKDOWN_TOL = 1e-15

#: a second orthogonalization pass runs when a new direction keeps less
#: than this fraction of ||S Q|| (rounding is amplified by the inverse)
REORTH_TOL = 0.1

#: the Lanczos basis holds at most RESTART_BLOCKS * max(count, 2) rows
#: (20 rows cannot separate the clustered top of the free simple walk at
#: L = 150); a full basis restarts from the KEEP_BLOCKS * count Ritz
#: vectors at each end of the spectrum
RESTART_BLOCKS = 20
KEEP_BLOCKS = 3

#: restarts in a row that may pass without a new smallest wanted residual
#: before the solver gives up
STALL_RESTARTS = 10

#: perron_pair checks convergence every PERRON_CHECK_EVERY squared steps and
#: then also needs every pointwise eigen-ratio within PERRON_POINTWISE_TOL of 1;
#: it gives up after PERRON_MAX_ITER squared steps
PERRON_CHECK_EVERY = 16
PERRON_POINTWISE_TOL = 1e-9
PERRON_MAX_ITER = 50000

#: gap_projection_test iterates GAP_STEPS times and fits the norms of the
#: steps n in GAP_FIT_RANGE (inclusive)
GAP_STEPS = 60
GAP_FIT_RANGE = (10, 50)

#: an eigenvalue more than DISCRETE_MARGIN outside the hull of sigma(P) and
#: Lambda_V is discrete (``discrete_pairs``)
DISCRETE_MARGIN = 1e-4

#: spectral_report fits the decay of the top eigenfunction on the sites t e1,
#: t in REPORT_FIT_WINDOW; its discrete eigenvalues must agree within
#: STABILIZE_TOL across the last two boxes
REPORT_FIT_WINDOW = (1, 12)
STABILIZE_TOL = 1e-6

#: the Sturm oracle works in STURM_DIGITS-digit decimal arithmetic and
#: certifies distances down to 10^STURM_FLOOR_EXP
STURM_DIGITS = 60
STURM_FLOOR_EXP = -45


@dataclass(frozen=True)
class TruncatedOperator:
    """Dirichlet truncation of the perturbed operator to a cube.

    ``apply_S`` and ``apply_M`` act by the slice stencil of P; ``cols`` and
    ``probs`` are the (volume, |offsets|) band of P from
    ``lattice._neighbour_table``, kept for the readers of rows (the Doob
    chain, dense M and S).  ``dvec`` is 1 + V on ``sites``, from
    ``potential._one_plus_v``.
    """

    kernel: WalkKernel
    box: LatticeBox
    dvec: np.ndarray
    sites: np.ndarray
    cols: np.ndarray
    probs: np.ndarray

    @property
    def volume(self) -> int:
        return self.box.volume

    def apply_S(self, f: np.ndarray) -> np.ndarray:
        """S f = D^(1/2) P D^(1/2) f; f is (n,) or (n, b)."""
        sqd = self.sqd.reshape(-1, *(1,) * (f.ndim - 1))
        return sqd * self._apply_P(sqd * f)

    def apply_M(self, f: np.ndarray) -> np.ndarray:
        """M f = D P f."""
        return self.dvec * self._apply_P(f)

    def _apply_P(self, f: np.ndarray) -> np.ndarray:
        """(P f)(x) = sum_y p(y) f(x + y) for f of shape (n,) or (n, b)."""
        g = f.reshape(self.box.shape + f.shape[1:])
        return _stencil(self.kernel.offsets, self.kernel.probs, g).reshape(f.shape)

    @cached_property
    def sqd(self) -> np.ndarray:
        """D^(1/2), read-only, built on first use."""
        return _read_only(np.sqrt(self.dvec))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense M = D P, read-only, built on first use."""
        return _read_only(self.dvec[:, None] * _band_dense(self.cols, self.probs))

    @cached_property
    def sym(self) -> np.ndarray:
        """Dense S = D^(1/2) P D^(1/2), read-only, built on first use."""
        return _read_only(self.sqd[:, None] * _band_dense(self.cols, self.probs) * self.sqd)

    def residual(self, value: float, phi: np.ndarray) -> float:
        """Relative eigen residual ||M phi - value phi|| / ||phi|| over the band."""
        return float(np.linalg.norm(self.apply_M(phi) - value * phi) / np.linalg.norm(phi))

    def v_inner(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(np.sum(f * g / self.dvec))

    def v_norm(self, f: np.ndarray) -> float:
        return math.sqrt(max(self.v_inner(f, f), 0.0))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _truncation_floor(kernel: WalkKernel) -> int:
    """The least box radius L that ``truncated_operator`` accepts."""
    return 4 * kernel.reach


def truncated_operator(kernel: WalkKernel, spec: PotentialSpec | None, L: int) -> TruncatedOperator:
    """Assemble the truncation on Q(0, L) with zero outside."""
    L = _count(L, "L")
    floor = _truncation_floor(kernel)
    if L < floor:
        raise TruncationTooSmall(f"L={L} is below {floor}, four times the kernel range")
    box = LatticeBox.cube(L, kernel.dimension)
    cols, probs = _neighbour_table(kernel, box)
    return TruncatedOperator(
        kernel=kernel,
        box=box,
        dvec=_read_only(_one_plus_v(spec, box)),
        sites=_read_only(box.sites()),
        cols=_read_only(cols),
        probs=_read_only(probs),
    )


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue with phi = D^(1/2) psi, signed so that its largest entry is positive."""

    value: float
    phi: np.ndarray
    residual: float


@dataclass(frozen=True)
class EigenSolution:
    """Top eigenpairs in both orderings (by value and by absolute value)."""

    by_value: tuple[EigenPair, ...]
    by_abs: tuple[EigenPair, ...]


def _make_pair(op: TruncatedOperator, value: float, psi: np.ndarray) -> EigenPair:
    phi = op.sqd * psi
    phi = (np.sign(phi[int(np.argmax(np.abs(phi)))]) or 1.0) * phi
    return EigenPair(value=float(value), phi=phi, residual=op.residual(value, phi))


def eigensolve_top(op: TruncatedOperator, count: int = 6) -> EigenSolution:
    """Top `count` eigenpairs in both orderings, by thick-restart block Lanczos.

    The solve runs ``_lanczos`` on blocks of two rows when `count` exceeds
    two.  Under a fixed row cap a thin block reaches a higher polynomial
    degree per basis row (Golub & Underwood 1977; Wu & Simon, SIAM J.
    Matrix Anal. Appl. 22, 2000), but from a generic start a block of b
    rows finds only min(m, b) copies of an m-fold eigenvalue.  Two rows are
    the thinnest block that shows a repeat, so a missing copy always leaves
    one: when a wanted Ritz value (the top `count` by value and by |value|)
    has another Ritz value within PERIPHERAL_TOL max(1, max |theta|), the
    solve is rerun on blocks of `count` rows, which find every copy of an
    eigenvalue of multiplicity up to `count`.  That rerun guards a miss
    that rounding has so far always prevented: on free 2d, 3d and 4d boxes
    at counts 3 to 10 the two-row run returned every copy, to 5e-15.
    Counts 1 and 2, and every rerun, are the `count`-row solve.  The start
    block is seeded, so results repeat bit for bit.  Free 2d and 3d boxes,
    whose top levels repeat by symmetry, pay for the two-row run and the
    rerun.
    """
    count = _count(count, "count")
    if not 1 <= count <= MAX_PAIRS:
        raise PairCountOutOfRange(f"count must lie in [1, {MAX_PAIRS}], got {count!r}")
    count = min(count, op.volume)
    thin = _lanczos(op, count, 2) if count > 2 else None
    if thin is not None and not _repeats(thin[0], thin[1]):
        theta, want, vectors = thin
    else:
        theta, want, vectors = _lanczos(op, count, count)
    pairs = {
        i: _make_pair(op, theta[i], x / np.linalg.norm(x)) for i, x in zip(want, vectors)
    }
    m = len(theta)
    by_value = tuple(pairs[i] for i in range(m - 1, m - 1 - count, -1))
    by_abs = tuple(pairs[i] for i in np.argsort(-np.abs(theta), kind="stable")[:count])
    return EigenSolution(by_value=by_value, by_abs=by_abs)


def _lanczos(
    op: TruncatedOperator, count: int, block: int
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Ritz values, wanted indices and wanted Ritz vectors on `block`-row blocks.

    Each new block S q is projected off the current and previous blocks
    (after a restart, off every kept Ritz vector and the pending block),
    the local three-term step, and then off the whole basis; its row of
    T = Q S Q^T is the sum of both projections (Parlett, The Symmetric
    Eigenvalue Problem, ch. 13).  The full pass alone lets the basis drift
    from orthogonal on free lazy 3d boxes, where each block keeps about a
    third of its norm, until the solve stalls.  A block of two rows that
    keeps at least REORTH_TOL of its norm is orthonormalized in closed form
    (``_thin_basis``).  Other widths, a last block cut short by the box,
    and a block whose rounding could have been amplified take the SVD and
    one more pass against the whole basis.  The basis holds at most
    RESTART_BLOCKS * max(count, 2) rows; a box of fewer than that plus
    `block` sites is spanned whole instead, with no restart, and the pairs
    are then exact.  When the basis is full, Rayleigh-Ritz on T stops once
    every wanted pair (``_wanted``) has residual ||B y_last|| <= RITZ_TOL
    max(1, max |theta|), B coupling the pending block to the last one.
    Otherwise the basis restarts from the KEEP_BLOCKS * count Ritz vectors
    at each end, T from their values, and the pending block follows; its
    projection couples it to every kept vector (Wu & Simon).  A direction
    that breaks down is refilled with a seeded random vector orthogonal to
    the basis.  NoConvergence is raised when STALL_RESTARTS restarts in a
    row bring no new smallest worst residual.  The wanted vectors come back
    as rows, in the order of the indices.
    """
    n = op.volume
    # a box less than one block beyond the cap is spanned whole, so no
    # pending block is ever cut below `block` rows and kept past a restart
    cap = RESTART_BLOCKS * max(count, 2)
    cap = cap if n >= cap + block else n
    keep = KEEP_BLOCKS * count
    rng = np.random.default_rng(LANCZOS_SEED)
    basis = np.empty((cap, n))  # orthonormal rows: kept Ritz vectors, then blocks
    T = np.zeros((cap, cap))  # Q S Q^T on the basis
    nxt = np.linalg.qr(rng.standard_normal((n, block)))[0].T
    m = near = 0  # basis[near:m]: the last two blocks, or every row after a restart
    best, stalled = math.inf, 0
    while True:
        lo, m = m, m + len(nxt)
        basis[lo:m] = nxt
        V = basis[:m]
        w = op.apply_S(nxt.T).T
        scale = np.linalg.norm(w)
        # the local three-term pass, then the full one; T gets both
        local = w @ V[near:].T
        w = w - local @ V[near:]
        c = w @ V.T
        w = w - c @ V
        c[:, near:] += local
        T[lo:m, :lo] = c[:, :lo]
        T[:lo, lo:m] = c[:, :lo].T
        T[lo:m, lo:m] = 0.5 * (c[:, lo:] + c[:, lo:].T)
        if m == n:
            B = np.zeros((0, len(w)))  # the basis spans the box: nothing couples out
        else:
            # next block: the row space of w, refilled at breakdown
            rows = min(block, n - m)
            thin = _thin_basis(w, REORTH_TOL * scale) if rows == len(w) == 2 else None
            if thin is not None:
                nxt = thin[0]
            else:
                u, sv, _ = np.linalg.svd(w.T, full_matrices=False)
                nxt = u.T[:rows]
                weak = sv[:rows] <= BREAKDOWN_TOL * scale
                refill = bool(weak.any())
                if refill:
                    nxt[weak] = rng.standard_normal((int(weak.sum()), n))
                if refill or sv[rows - 1] < REORTH_TOL * scale:
                    nxt = nxt - (nxt @ V.T) @ V
                    nxt = np.linalg.qr(nxt.T)[0].T
            if m + len(nxt) <= cap:
                near = lo
                continue
            B = nxt @ w.T
        theta, Y = np.linalg.eigh(T[:m, :m])
        want = _wanted(theta, count)
        worst = float(np.linalg.norm(B @ Y[lo:, want], axis=0).max())
        if worst <= RITZ_TOL * max(1.0, float(np.abs(theta).max())):
            break
        best, stalled = (worst, 0) if worst < best else (best, stalled + 1)
        if stalled >= STALL_RESTARTS:
            raise NoConvergence(
                f"block Lanczos stalled at Ritz residual {best:.3e} over {STALL_RESTARTS} restarts"
            )
        kept = np.r_[:keep, m - keep : m]
        basis[: 2 * keep] = Y[:, kept].T @ V
        T[: 2 * keep, : 2 * keep] = np.diag(theta[kept])
        m, near = 2 * keep, 0
    return theta, want, Y[:, want].T @ basis[:m]


def _thin_basis(w: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal rows spanning the two rows of w, and w's singular values.

    Two Gram-Schmidt passes give w = R Q with R = a [[1, 0], [b, d]], a, d >= 0,
    whose singular values are closed-form: s_max = a (hypot(1 + d, b) +
    hypot(1 - d, b)) / 2 and s_min = a^2 d / s_max, so nothing cancels.
    None when s_min < floor or w is rank-deficient: the caller then takes
    the SVD path, which refills and reorthogonalizes.
    """
    a = math.sqrt(float(w[0] @ w[0]))
    if a == 0.0:
        return None
    q = w / a
    b = 0.0
    for _ in range(2):
        t = float(q[0] @ q[1])
        q[1] -= t * q[0]
        b += t
    d = math.sqrt(float(q[1] @ q[1]))
    s_max = 0.5 * a * (math.hypot(1.0 + d, b) + math.hypot(1.0 - d, b))
    s_min = a * a * d / s_max
    if d == 0.0 or s_min < floor:
        return None
    q[1] /= d
    return q, np.array([s_max, s_min])


def _wanted(theta: np.ndarray, count: int) -> list[int]:
    """Indices of the top `count` of ascending theta by value and by |value|."""
    top = range(len(theta) - count, len(theta))
    return sorted(set(top) | set(np.argsort(-np.abs(theta), kind="stable")[:count].tolist()))


def _repeats(theta: np.ndarray, want: list[int]) -> bool:
    """Whether a wanted value of ascending theta repeats.

    A repeat is another value of theta within PERIPHERAL_TOL max(1, max |theta|).
    """
    close = np.diff(theta) <= PERIPHERAL_TOL * max(1.0, float(np.abs(theta).max()))
    return bool((np.r_[False, close] | np.r_[close, False])[want].any())


def perron_pair(op: TruncatedOperator, tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Strictly positive top eigenpair by squared power iteration.

    Iterating the square of the symmetric matrix converges even when the
    spectrum is negation-symmetric (bipartite kernels put -r in the
    spectrum); the symmetrization (1 + S/r) x then projects away the -r
    component.  Every arithmetic step combines nonnegative numbers, so the
    returned phi is positive entrywise by construction, not by luck.

    Besides the usual norm residual, convergence requires the pointwise
    eigen-ratio max |(S psi)(x) / (r psi(x)) - 1| <= PERRON_POINTWISE_TOL.
    The norm alone says nothing about the exponentially small tail entries,
    and it is exactly these ratios that become the row sums of the Doob
    chain downstream.  Returns (r, phi) with phi normalized in the
    weighted norm.  A tolerance tol <= 0 raises ToleranceNotPositive, and
    no convergence within PERRON_MAX_ITER squared steps NoConvergence.
    """
    if not tol > 0.0:
        raise ToleranceNotPositive(f"tol must be positive, got {tol!r}")
    S = op.apply_S
    x = np.ones(op.volume) / math.sqrt(op.volume)
    r_hat = 1.0
    for it in range(PERRON_MAX_ITER):
        y = S(x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise NoConvergence("power iteration collapsed to zero")
        z = S(y)
        r_hat = ny  # sqrt(x . S^2 x) for unit x
        x = z / np.linalg.norm(z)
        if (it + 1) % PERRON_CHECK_EVERY == 0:
            psi = x + S(x) / r_hat
            npsi = np.linalg.norm(psi)
            if npsi == 0.0 or psi.min() <= 0.0:
                continue
            psi = psi / npsi
            spsi = S(psi)
            rho = float(psi @ spsi)  # Rayleigh quotient, unit psi
            resid = float(np.linalg.norm(spsi - rho * psi))
            point = float(np.max(np.abs(spsi / (rho * psi) - 1.0)))
            if resid <= tol * max(rho, 1.0) and point <= PERRON_POINTWISE_TOL:
                return rho, op.sqd * psi
    raise NoConvergence(f"power iteration did not reach tol={tol} in {PERRON_MAX_ITER} steps")


def lambda_pm_1d(q: float, v: float) -> tuple[float, float]:
    """Eigenvalue pair of a single point perturbation of the 1d lazy walk.

    With c(v) = (v + 1)^2 / (2v + 1), the two solutions of
    g_lambda(0) = 1 + 1/v off the spectrum are

        lambda_pm = c(v) (q +- sqrt(q^2 - (2q - 1)/c(v))),

    satisfying lambda_- < 2q - 1 < 1 < lambda_+.
    """
    if not 0.0 <= q < 1.0:
        raise LazinessOutOfRange(f"q must lie in [0, 1), got {q!r}")
    if not v > 0.0:
        raise LevelNotPositive(f"v must be positive, got {v!r}")
    c = (v + 1.0) ** 2 / (2.0 * v + 1.0)
    root = math.sqrt(q * q - (2.0 * q - 1.0) / c)
    return c * (q - root), c * (q + root)


@dataclass(frozen=True)
class LambdaVPrediction:
    """Predicted excess essential spectrum Lambda_V, its top, the hull of sigma(P) u Lambda_V."""

    lambda_v: tuple[float, ...]
    lambda0: float | None
    above: dict
    below: dict
    bottom: float
    top: float


def essential_spectrum_predictor(
    kernel: WalkKernel, spec: PotentialSpec | None
) -> LambdaVPrediction:
    """Solve g_lambda(0) = 1 + 1/v for every declared essential value v > 0.

    Above the spectrum the level function is strictly decreasing so there
    is at most one root per level, found by a bracketed root solve; the
    root for v0 is the top of the essential spectrum and must exist
    (otherwise NoRootAboveOne, which in d >= 3 is a legitimate outcome for
    small v0).
    Below the bottom edge g is convex in 1/lambda and equals 1 at
    1/lambda = 0, so there too a level has at most one root, found by one
    bracketed solve (see ``g_level_crossings``).  A potential whose
    sparseness profile does not collapse raises NotSparse.
    No potential (None) or no v > 0 predicts no roots and the hull [lower, 1].
    """
    ess = [v for v in (spec.essential_values if spec is not None else ()) if v > 0.0]
    if ess:
        tail = [s for _, s in sparseness_profile(spec, 0.5, min(spec.box_radius, 512))]
        if tail and tail[-1] > max(0.5 * tail[0], 1e-9):
            raise NotSparse(
                f"sparseness profile does not collapse (sup tail {tail}); "
                "essential-spectrum prediction needs a sparse potential"
            )
    v0 = max(ess, default=None)
    above: dict[float, float] = {}
    below: dict[float, tuple[float, ...]] = {}
    for v in sorted(ess):
        crossings = g_level_crossings(kernel, 1.0 + 1.0 / v)
        if crossings.above is None:
            if v == v0:
                raise NoRootAboveOne(
                    f"g_lambda(0) = 1 + 1/{v0} has no root above 1 for this kernel"
                )
        else:
            above[v] = crossings.above
        if crossings.below:
            below[v] = crossings.below
    roots = sorted(set(above.values()) | {x for xs in below.values() for x in xs})
    return LambdaVPrediction(
        lambda_v=tuple(roots), lambda0=above.get(v0), above=above, below=below,
        bottom=min(roots + [kernel.lower]), top=max(roots + [1.0]),
    )


def discrete_pairs(
    op: TruncatedOperator, bottom: float, top: float
) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The ascending spectrum of the truncation, its discrete pairs, its top psi.

    One dense eigh of S; every eigenvalue more than DISCRETE_MARGIN below
    `bottom` or above `top` (the hull of sigma(P) and Lambda_V, as in
    ``LambdaVPrediction``) comes back as an EigenPair, in ascending order.
    The eigenvector of S at the top eigenvalue comes last.
    """
    w, U = np.linalg.eigh(op.sym)
    outside = (w < bottom - DISCRETE_MARGIN) | (w > top + DISCRETE_MARGIN)
    pairs = tuple(_make_pair(op, w[i], U[:, i]) for i in np.flatnonzero(outside))
    return w, pairs, U[:, -1].copy()  # a copy, so U is freed on return


def axis_decay(op: TruncatedOperator, phi: np.ndarray, window) -> DecayFit | None:
    """Decay fit of |phi| on the sites t e1, t in `window` clipped to the box.

    None with fewer than MIN_FIT_POINTS sites, or where |phi| underflows
    (<= 1e-300) on one of them.
    """
    ts = range(window[0], min(window[1], op.box.radius) + 1)
    vals = [abs(phi[op.box.index((t,) + (0,) * (op.box.dim - 1))]) for t in ts]
    if len(vals) < MIN_FIT_POINTS or min(vals) <= 1e-300:
        return None
    return decay_rate_estimate(zip(ts, vals))


# -- absolute-gap certificates -------------------------------------------------

def _axis_sets(d: int) -> list[tuple[int, ...]]:
    """Every nonempty subset I of the d axes, by size, then in lexicographic order."""
    return [axes for size in range(1, d + 1) for axes in itertools.combinations(range(d), size)]


def _even(points: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Whether sum_{a in I} x_a is even, for every point x of an (..., d) array."""
    return points[..., list(axes)].sum(axis=-1) % 2 == 0


@dataclass(frozen=True)
class BipartiteSign:
    """Site sign J = +-1 built from an even-coordinate-sum rule."""

    axes: tuple[int, ...]

    def sign_on(self, sites: np.ndarray) -> np.ndarray:
        return np.where(_even(sites, self.axes), 1.0, -1.0)


def bipartite_detect(kernel: WalkKernel) -> BipartiteSign | None:
    """Find a sign J anticommuting with the walk, if one exists.

    For each nonempty axis subset I the candidate even set is
    A = {x : sum_{a in I} x_a even}; the kernel is bipartite for that I
    exactly when p vanishes on A.  Every move then changes
    sum_{a in I} x_a by an odd amount, so J anticommutes with P.
    """
    offs = kernel.offset_array()
    for axes in _axis_sets(kernel.dimension):
        if not _even(offs, axes).any():  # no support offset lies in A
            return BipartiteSign(axes=axes)
    return None


@dataclass(frozen=True)
class DiagDominance:
    holds: bool
    margin: float


def diag_dominance_check(kernel: WalkKernel) -> DiagDominance:
    """Check p(0) > sum of p over the rest of an even set A.

    A positive margin for some axis subset forces -r < ell for the
    perturbed operator under every nonnegative bounded potential, which is
    the non-bipartite route to the absolute spectral gap.
    """
    offs = kernel.offset_array()
    best = -math.inf
    for axes in _axis_sets(kernel.dimension):
        # a Python sum in offset order: np.sum may pair the terms differently
        # and move the last bits of the margin
        rest = _even(offs, axes) & offs.any(axis=1)
        best = max(best, kernel.p0 - sum(p for p, keep in zip(kernel.probs, rest) if keep))
    return DiagDominance(holds=best > 0.0, margin=best)


def edge_inequality_check(kernel: WalkKernel, spec: PotentialSpec | None, L: int) -> float:
    """Slack of -r + 2 ell(1_A P 1_A) <= ell on the truncation.

    ell(1_A P 1_A) is the minimum over frequencies of the symbol restricted
    to the even set A; the slack must be >= -1e-8 for every axis subset and
    the minimum over subsets is returned.
    """
    op = truncated_operator(kernel, spec, L)
    w = np.linalg.eigvalsh(op.sym)
    r, ell = float(w[-1]), float(w[0])
    offs, ps = kernel.offset_array(), kernel.prob_array()
    slack = math.inf
    for axes in _axis_sets(kernel.dimension):
        even = _even(offs, axes)
        ell_a = _char_lower(offs[even], ps[even], 512) if even.any() else 0.0
        slack = min(slack, ell - (-r + 2.0 * ell_a))
    return slack


@dataclass(frozen=True)
class GapProjection:
    branch: str
    eps_fit: float
    eps_pred: float


def _second_abs(w: np.ndarray, r: float) -> float:
    absw = np.abs(w)
    rest = absw[absw < r - PERIPHERAL_TOL * max(1.0, r)]
    return float(rest.max()) if rest.size else 0.0


def gap_projection_test(
    kernel: WalkKernel,
    spec: PotentialSpec | None,
    L: int,
) -> GapProjection:
    """Geometric contraction of the semigroup off the peripheral eigenspace.

    The projector keeps the top eigenfunction (plus its sign-flipped twin
    in the bipartite case); iterating r^(-1) M on the complement of delta
    at the origin must contract at the ratio second_abs / r, and the fitted
    rate is compared against that prediction.  r, phi and the second
    |lambda| come from the top three pairs by |value| of eigensolve_top and
    the iteration runs on the band, so no dense matrix is built.  Raises GapNotCertified when
    neither -r < ell (no top pair within PERIPHERAL_TOL of -r) nor a
    bipartite sign holds.
    """
    op = truncated_operator(kernel, spec, L)
    sol = eigensolve_top(op, 3)
    r, phi = sol.by_value[0].value, sol.by_value[0].phi
    top_abs = np.array([pair.value for pair in sol.by_abs])
    bip = bipartite_detect(kernel)
    if bip is not None:
        branch = "bipartite"
    elif np.all(top_abs > -r + PERIPHERAL_TOL * max(1.0, r)):
        branch = "one_term"
    else:
        raise GapNotCertified("-r < ell fails and the kernel is not bipartite")
    f = np.zeros(op.volume)
    f[op.box.origin_index()] = 1.0
    proj = op.v_inner(f, phi) * phi
    if branch == "bipartite":
        jphi = bip.sign_on(op.sites) * phi
        proj = proj + op.v_inner(f, jphi) * jphi
    eps_pred = _second_abs(top_abs, r) / r
    norms = []
    y = f - proj
    for _ in range(GAP_STEPS):
        y = op.apply_M(y) / r
        norms.append(op.v_norm(y))
    ns = np.arange(1, GAP_STEPS + 1)
    lo, hi = GAP_FIT_RANGE
    sel = (ns >= lo) & (ns <= hi) & (np.array(norms) > 1e-250)
    slope = np.polyfit(ns[sel], np.log(np.array(norms)[sel]), 1)[0]
    return GapProjection(branch=branch, eps_fit=float(np.exp(slope)), eps_pred=eps_pred)


# -- spectral reports ----------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Digest of one truncation: edges, gaps, decay of the top eigenfunction."""

    L: int
    r: float
    ell: float
    gap: float
    abs_gap: float
    second_abs: float
    decay: DecayFit | None
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class ReportBundle:
    reports: tuple[SpectralReport, ...]
    lambda_v: tuple[float, ...]
    lambda0: float | None
    discrete: tuple[float, ...]


def spectral_report(
    kernel: WalkKernel,
    spec: PotentialSpec | None,
    L_sequence,
) -> ReportBundle:
    """Per-box spectral digests plus a discrete-eigenvalue Cauchy check.

    Each box takes one dense eigh, in ``discrete_pairs``: the edges, gaps
    and spectrum are its eigenvalues, and the decay fit is ``axis_decay``
    on REPORT_FIT_WINDOW of the top eigenfunction D^(1/2) psi, psi its top
    eigenvector.  The discrete eigenvalues are the ``discrete_pairs``
    outside the hull of ``essential_spectrum_predictor``, below it as well
    as above; from the top down, each must agree within STABILIZE_TOL with
    an eigenvalue of the previous box, else NotStabilized.  The rest of the
    spectrum is the finite-volume shadow of the essential part and is only
    expected to accumulate, never to stabilize.  Repeated radii count once.
    A radius that is not an integer raises CountNotInteger.
    """
    Ls = sorted({_count(L, "L") for L in L_sequence})
    if len(Ls) < 2:
        raise TooFewRadii(f"need at least two distinct box radii, got {list(L_sequence)}")
    pred = essential_spectrum_predictor(kernel, spec)
    reports = []
    for L in Ls:
        op = truncated_operator(kernel, spec, L)
        w, discrete, top_psi = discrete_pairs(op, pred.bottom, pred.top)
        r = float(w[-1])
        below = w[w < r - PERIPHERAL_TOL * max(1.0, r)]
        gap = float(r - below.max()) if below.size else 0.0
        second = _second_abs(w, r)
        reports.append(
            SpectralReport(
                L=L,
                r=r,
                ell=float(w[0]),
                gap=gap,
                abs_gap=float(r - second),
                second_abs=second,
                decay=axis_decay(op, op.sqd * top_psi, REPORT_FIT_WINDOW),
                eigenvalues=w,
            )
        )
    prev = reports[-2].eigenvalues
    for lam in reversed([p.value for p in discrete]):
        nearest = prev[int(np.argmin(np.abs(prev - lam)))]
        if abs(nearest - lam) > STABILIZE_TOL:
            raise NotStabilized(
                f"discrete candidate {lam!r} moved by {abs(nearest - lam):.3e} "
                f"between L={reports[-2].L} and L={reports[-1].L}"
            )
    return ReportBundle(
        reports=tuple(reports),
        lambda_v=pred.lambda_v,
        lambda0=pred.lambda0,
        discrete=tuple(p.value for p in discrete),
    )


# -- high-precision spectrum distances for tridiagonal truncations -------------

def truncated_spectrum_distance_1d(
    kernel: WalkKernel,
    spec: PotentialSpec | None,
    L: int,
    target,
) -> tuple[float, bool]:
    """Distance from the spectrum of the 1d truncation to `target`.

    Only range-1 kernels in d = 1 qualify: the symmetrized truncation T is
    tridiagonal, so eigenvalue counts below any shift follow from a Sturm
    (LDL pivot-sign) recurrence evaluated in STURM_DIGITS-digit `decimal`
    arithmetic.  Sparse potentials push truncated eigenvalues toward the
    essential spectrum at super-exponential speed, far beyond float64
    resolution, which is why this oracle exists.  `target` may be a float,
    an int, a str or a Decimal.

    Counts certify, Newton locates.  A distance delta is hit when some
    eigenvalue lies in [target - delta, target + delta), read off two counts.
    After the floor and widening checks the search keeps a bracket [lo, hi]
    with lo not hit and hi hit.  Its iterates are Newton steps on
    det(T - sigma) / det'(T - sigma), sigma -> sigma - G / H with G and H
    the first two log-derivatives of det, taken from the same LDL pivot
    sweep as a count (Parlett, The Symmetric Eigenvalue Problem, on LDL
    inertia).  Unlike Newton on det these stay quadratic at a cluster of
    nearly equal eigenvalues, which symmetric potentials produce.  A step
    that leaves the bracket, or is not shorter than half the step before
    last, gives way to a geometric bisection.  The search stops once
    hi / lo - 1 <= 1e-20 and returns (hi, True); each of criterion 5's
    searches at L = 256 takes 15 sweeps of 2L + 1 sites, 6 of them fused.

    When the nearest eigenvalue is closer than 10^STURM_FLOOR_EXP the search
    stops and (10^STURM_FLOOR_EXP, False) is returned as a certified upper
    bound.  A target `decimal` cannot read raises TargetNotNumeric, a NaN or
    infinite one LambdaNotFinite, L < 0 NegativeRadius and a potential not
    in d = 1 DimensionMismatch, all before any sweep.
    """
    if kernel.dimension != 1 or kernel.reach != 1:
        raise NotTridiagonal("Sturm oracle needs a range-1 kernel in d = 1")
    if spec is not None and spec.dimension != 1:
        raise DimensionMismatch(f"Sturm oracle needs a 1d potential, got d = {spec.dimension}")
    try:
        tgt = Decimal(target)  # exact, whatever the context's precision
    except InvalidOperation:
        raise TargetNotNumeric(f"Sturm target {target!r} is not a number") from None
    if not tgt.is_finite():
        raise LambdaNotFinite(f"Sturm target {target!r} is not a finite number")
    box = LatticeBox.cube(L, 1)  # NegativeRadius for L < 0
    with localcontext(Context(prec=STURM_DIGITS)):
        q = Decimal(kernel.p0)
        hop = (1 - q) / 2
        dval = [Decimal(1)] * box.side
        for (x,), h in spec.support(box) if spec is not None else ():
            dval[x + L] = 1 + Decimal(h)
        diag = [q * v for v in dval]
        off2 = [hop * hop * dval[i] * dval[i + 1] for i in range(2 * L)]
        rest = list(zip(diag[1:], off2))
        tiny = Decimal(10) ** (-4 * STURM_DIGITS)

        def count_below(sigma):
            d = diag[0] - sigma
            cnt = int(d < 0)
            for a, o in rest:
                d = (a - sigma) - o / (d or tiny)
                cnt += d < 0
            return cnt

        def count_and_log_derivatives(sigma):
            """count_below(sigma), G = sum 1/(sigma - l) and H = sum 1/(sigma - l)^2
            over the eigenvalues l, in one sweep.

            det(T - sigma) is the product of the pivots d_i, so G = sum g_i and
            H = sum g_i^2 - u_i with g_i = d_i' / d_i and u_i = d_i'' / d_i.
            Differentiating d_i = a_i - sigma - c with c = off2_{i-1} / d_{i-1}
            gives g_i = (c g_{i-1} - 1) / d_i and u_i = c (u_{i-1} - 2 g_{i-1}^2) / d_i,
            with the count's guard on a zero pivot.
            """
            d = diag[0] - sigma
            cnt = int(d < 0)
            p = d or tiny
            g = -1 / p
            gg = g * g
            u = 0
            big_g, big_h = g, gg
            for a, o in rest:
                c = o / p
                d = (a - sigma) - c
                cnt += d < 0
                p = d or tiny
                u = c * (u - 2 * gg) / p
                g = (c * g - 1) / p
                gg = g * g
                big_g += g
                big_h += gg - u
            return cnt, big_g, big_h

        def hits(delta) -> bool:
            return count_below(tgt + delta) - count_below(tgt - delta) > 0

        floor = Decimal(10) ** STURM_FLOOR_EXP
        if hits(floor):
            return float(floor), False
        lo, hi = floor, Decimal(1)
        while not hits(hi):
            # nearest eigenvalue beyond distance 1: widen by doubling
            lo, hi = hi, 2 * hi
        # the Newton step at the target picks the side (sigma = target +
        # side * x) and the first iterate; each iterate costs one fused sweep
        # on that side and one count on the other.  A settled step is
        # stretched to tol / 2 relative, so that the next count lands past
        # the eigenvalue and closes the bracket.
        tol = Decimal("1e-20")
        c0, big_g, big_h = count_and_log_derivatives(tgt)
        side = -1 if big_g > 0 else 1
        x = Decimal(0)
        moved = moved_before = Decimal("Infinity")
        while hi / lo - 1 > tol:
            step = None
            if big_h:
                step = side * big_g / big_h
                if abs(step) < x * tol / 2:
                    step = (-x if x == lo else x) * tol / 2
                if not (lo < x - step < hi and abs(step) < moved_before / 2):
                    step = None
            nxt = x - step if step is not None else (lo * hi).sqrt()
            moved_before, moved, x = moved, abs(nxt - x), nxt
            c_near, big_g, big_h = count_and_log_derivatives(tgt + side * x)
            if side * (c_near - count_below(tgt - side * x)) > 0:
                hi = x
                if side * (c_near - c0) <= 0:
                    # every eigenvalue within x lies on the other side
                    side, big_h = -side, 0
            else:
                lo = x
        return float(hi), True
