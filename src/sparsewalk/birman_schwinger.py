"""Birman-Schwinger reduction of the perturbed eigenvalue problem.

Off the unperturbed spectrum the eigenvalue condition for the multiplied
operator compresses onto the support of V:

    B_lambda(x, y) = sqrt(V(x) V(y)) (lambda G_lambda(x, y) - delta_xy),

and lambda belongs to the perturbed spectrum exactly when 1 is an
eigenvalue of B_lambda.  Splitting off the diagonal,

    B_lambda = (g_lambda(0) - 1) V  +  H_lambda,

leaves an off-diagonal part whose norm is controlled by the sparseness of
V; row-sum bounds on H in the plain and exponentially weighted norms give
the Neumann-series invertibility certificate behind exponential decay of
discrete eigenfunctions.  Everything here is assembled on support sites
only: the square root of V annihilates the rest of the lattice.  Every
pair matrix G_lambda(0, s_j - s_i) over a site list comes from one
builder, ``_pair_green``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaNotPositive,
    AlphaTooLarge,
    BSNotInvertible,
    EmptySupport,
    Epsilon0Zero,
    NoSignChange,
    SpreadTooLarge,
    TailRadiusTooLarge,
)
from .lattice import (
    LatticeBox,
    WalkKernel,
    _as_offset,
    _band_dense,
    _box,
    _dense_cap,
    _neighbour_table,
)
from .potential import PotentialSpec, _one_plus_v
from .resolvent import _ct_margin, _guard_spectrum, _kappa_star, _root, green_table

#: minimum distance from the unperturbed spectrum for assembly
ASSEMBLY_MARGIN = 0.02

#: distance of the compressed spectrum to 1 below which bs_eigenvalue_test
#: reports a hit, and resolvent_via_bs refuses to solve
BS_HIT_TOL = 1e-6
BS_SOLVE_TOL = 1e-8

#: grid of bs_crossing_scan's assemblies
BS_SCAN_PTS = 512


@dataclass(frozen=True)
class BSAssembly:
    """Compressed eigenvalue-condition matrix on the support of V."""

    lam: float
    gamma: float
    matrix: np.ndarray
    green: np.ndarray
    support_sites: tuple
    support_values: tuple
    box: LatticeBox


def _pair_green(kernel: WalkKernel, lam: float, sites, pts_per_axis: int):
    """G[i, j] = G_lambda(0, sites[j] - sites[i]) and the Green table behind it.

    The one pair-Green builder: assemble_bs calls it on the support of V,
    resolvent_via_bs on every site of the box and neumann_invertibility on
    the screened support.  Each displacement x is encoded as one integer
    below prod_a side_a, side_a = 2 (spread of the sites along axis a) + 1.
    While that product is at most n^2, a presence array over the codes
    gives the distinct ones in tuple order and a lookup table of their
    ranks reads each pair back; past it (few sites spread far apart) one
    sort and a sorted search do, so no temporary outgrows the n x n codes.
    The n x n temporaries die with this frame, before the caller allocates
    its own n x n matrices.  More than ``lattice.DENSE_CAP`` sites raise
    BoxTooLarge, and sites whose code space passes 2^63 SpreadTooLarge,
    before the codes are built.
    """
    n = len(sites)
    _dense_cap(n)
    pos = np.array(sites)
    half = pos.max(axis=0) - pos.min(axis=0)
    shape = tuple((2 * half + 1).tolist())
    if math.prod(shape) > 1 << 63:  # the codes are int64
        raise SpreadTooLarge(f"displacement codes of sites spread {half.tolist()} pass 2^63")
    weights = np.cumprod((1,) + shape[:0:-1])[::-1]  # row-major strides
    flat = pos @ weights
    codes = (flat + int(half @ weights))[None, :] - flat[:, None]
    if math.prod(shape) <= n * n:
        present = np.zeros(math.prod(shape), dtype=bool)
        present[codes] = True
        keys = np.flatnonzero(present)
        rank = np.empty(len(present), dtype=np.intp)
        rank[keys] = np.arange(len(keys))
        index = rank[codes]
    else:
        keys = np.sort(codes, axis=None)
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        index = np.searchsorted(keys, codes)
    disp = [tuple(row) for row in (np.stack(np.unravel_index(keys, shape), axis=-1) - half).tolist()]
    table = green_table(kernel, lam, disp, pts_per_axis)
    return np.array([table[x] for x in disp])[index], table


def assemble_bs(
    kernel: WalkKernel,
    spec: PotentialSpec,
    lam: float,
    box: LatticeBox | int,
    pts_per_axis: int = 512,
) -> BSAssembly:
    """Assemble the support-compressed matrix at one spectral parameter."""
    box = _box(box, kernel.dimension)
    _guard_spectrum(kernel, lam, ASSEMBLY_MARGIN)
    supp = spec.support(box)
    if not supp:
        raise EmptySupport("potential has no support inside the box")
    sites = [s for s, _ in supp]
    heights = np.array([h for _, h in supp])
    n = len(sites)
    G, table = _pair_green(kernel, lam, sites, pts_per_axis)
    sq = np.sqrt(heights)
    base = lam * G - np.eye(n)
    return BSAssembly(
        lam=lam,
        gamma=lam * table[(0,) * kernel.dimension] - 1.0,
        matrix=sq[:, None] * base * sq[None, :],
        green=G,
        support_sites=tuple(sites),
        support_values=tuple(float(h) for h in heights),
        box=box,
    )


def bs_eigenvalue_test(asm: BSAssembly) -> tuple[bool, float]:
    """Distance of the spectrum of the compressed matrix to 1.

    A distance below BS_HIT_TOL certifies (up to truncation error) that lam is in
    the perturbed spectrum; far from 1 certifies it is not.
    """
    mu = np.linalg.eigvalsh(asm.matrix)
    distance = float(np.min(np.abs(mu - 1.0)))
    return distance < BS_HIT_TOL, distance


def bs_crossing_scan(
    kernel: WalkKernel,
    spec: PotentialSpec,
    lo: float,
    hi: float,
    box: LatticeBox | int,
    xtol: float = 1e-9,
) -> float:
    """Locate lambda where the top compressed eigenvalue crosses 1.

    The top eigenvalue of the compressed matrix decreases in lambda above
    the spectrum, so the crossing is bracketed by [lo, hi] and found by the
    root solver of the level crossings, ``resolvent._root``, to within
    xtol / 2 of the sign change; it recovers the perturbed top eigenvalue
    from resolvent data alone, independent of any dense eigensolve of the
    truncation.
    """

    def top_minus_one(lam: float) -> float:
        asm = assemble_bs(kernel, spec, lam, box, BS_SCAN_PTS)
        return float(np.linalg.eigvalsh(asm.matrix)[-1] - 1.0)

    f_lo, f_hi = top_minus_one(lo), top_minus_one(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise NoSignChange(f"no sign change in [{lo}, {hi}]: {f_lo:+.3e}, {f_hi:+.3e}")
    return _root(top_minus_one, lo, hi, f_lo, f_hi, xtol)


def resolvent_via_bs(
    kernel: WalkKernel,
    spec: PotentialSpec,
    lam: float,
    box: LatticeBox | int,
    pts_per_axis: int = 512,
) -> tuple[np.ndarray, float]:
    """Resolvent of the perturbed operator from unperturbed Green data.

    Uses the factorization of (lambda - M)^(-1) through the compressed
    inverse: G + G V^(1/2) (1 - B)^(-1) V^(1/2) P G, all truncated to the
    box.  Returns the matrix and the identity residual
    max |(lambda - M) R - I| over interior columns (sites at distance
    > L/2 from the boundary), where truncation effects are exponentially
    small.
    """
    box = _box(box, kernel.dimension)
    _guard_spectrum(kernel, lam, ASSEMBLY_MARGIN)
    sites = box.sites()
    vol = box.volume
    G, _ = _pair_green(kernel, lam, sites, pts_per_axis)
    P0 = _band_dense(*_neighbour_table(kernel, box))

    supp = spec.support(box)
    if supp:
        sidx = box.flat(np.array([s for s, _ in supp]))
        sq = np.sqrt(np.array([h for _, h in supp]))
        B = sq[:, None] * (lam * G[np.ix_(sidx, sidx)] - np.eye(len(sidx))) * sq[None, :]
        mu = np.linalg.eigvalsh(B)
        if np.min(np.abs(mu - 1.0)) < BS_SOLVE_TOL:
            raise BSNotInvertible(f"1 within {BS_SOLVE_TOL} of the compressed spectrum at {lam!r}")
        # P G restricted to support rows
        op_rows = P0[sidx] @ G
        mid = np.linalg.solve(np.eye(len(sidx)) - B, sq[:, None] * op_rows)
        R = G + G[:, sidx] @ (sq[:, None] * mid)
    else:
        R = G

    M = _one_plus_v(spec, box)[:, None] * P0
    ident = (lam * np.eye(vol) - M) @ R
    interior = np.max(np.abs(sites - box.center), axis=1) <= box.radius // 2
    resid = ident - np.eye(vol)
    residual = float(np.max(np.abs(resid[:, interior])))
    return R, residual


def off_diag_tail_norm(asm: BSAssembly, N: int) -> float:
    """Row/column sup-sum bound |lambda| sqrt(A_N B_N) on the far tail of H.

    A_N sums |sqrt(V V) G| over rows beyond radius N; B_N over columns
    beyond radius N.  The bound collapsing along N witnesses compactness of
    the off-diagonal part for sparse potentials and stays bounded below for
    the dense control.
    """
    if N >= asm.box.radius:
        raise TailRadiusTooLarge(f"N = {N} must stay below the box radius {asm.box.radius}")
    far = np.abs(np.array(asm.support_sites)).max(axis=1) >= N
    if not far.any():
        return 0.0
    sq = np.sqrt(np.array(asm.support_values))
    absG = np.abs(asm.green)
    np.fill_diagonal(absG, 0.0)
    # row sums of |H|_ij = sq_i |G_ij| sq_j over every column, and over the far ones
    a_n = float((sq * (absG @ sq))[far].max())
    b_n = float((sq * (absG @ (sq * far))).max())
    return abs(asm.lam) * math.sqrt(a_n * b_n)


@dataclass(frozen=True)
class NeumannCertificate:
    """Invertibility certificate for 1 - B with the potential screened off K.

    Valid iff epsilon0 > 0 and contraction < 1: then the Neumann series for
    (1 - gamma V_K)^(-1) H converges in both the plain sup norm and the
    exponentially weighted norm with exponent alpha, which is the engine of
    the eigenfunction-decay argument.
    """

    excluded: tuple
    lam: float
    alpha: float
    epsilon0: float
    h_norm_plain: float
    h_norm_weighted: float
    contraction: float
    green_decay_rate: float

    @property
    def valid(self) -> bool:
        return self.epsilon0 > 0.0 and self.contraction < 1.0


def neumann_invertibility(
    kernel: WalkKernel,
    spec: PotentialSpec,
    K,
    lam: float,
    alpha: float,
    box: LatticeBox | int,
    pts_per_axis: int = 512,
) -> NeumannCertificate:
    """Build the screened-potential Neumann certificate at one lambda.

    K is the finite site set whose potential values are zeroed before the
    check.  alpha must be positive (AlphaNotPositive) and below the
    Combes-Thomas rate kappa* (``_kappa_star``, AlphaTooLarge otherwise),
    and e^{-kappa |y|_inf} / c(kappa) at kappa = (alpha + kappa*)/2 caps |G|;
    epsilon0 = inf |1 - gamma V_K| must be positive (Epsilon0Zero names the
    failure mode: K too small, enlarge it).
    """
    if alpha <= 0.0:
        raise AlphaNotPositive(f"alpha must be positive, got {alpha!r}")
    box = _box(box, kernel.dimension)
    _guard_spectrum(kernel, lam, ASSEMBLY_MARGIN)
    excluded = {_as_offset(k, kernel.dimension) for k in K}

    axes = range(kernel.dimension)
    kstar = _kappa_star(kernel, lam, axes)
    if alpha >= kstar:
        raise AlphaTooLarge(f"alpha={alpha} not below the Combes-Thomas rate {kstar:.4f}")

    origin = (0,) * kernel.dimension
    gamma = lam * green_table(kernel, lam, [origin], pts_per_axis)[origin] - 1.0
    supp = [(s, h) for s, h in spec.support(box) if s not in excluded]
    eps0 = 1.0  # V_K = 0 sites always contribute |1 - 0|
    for _, h in supp:
        eps0 = min(eps0, abs(1.0 - gamma * h))
    if eps0 < 1e-12:
        raise Epsilon0Zero(
            f"inf |1 - gamma V_K| = {eps0:.3e}; enlarge K beyond {len(excluded)} sites"
        )

    h_plain = 0.0
    h_weighted = 0.0
    if len(supp) > 1:
        pts = [s for s, _ in supp]
        hts = np.array([h for _, h in supp])
        G, _ = _pair_green(kernel, lam, pts, pts_per_axis)
        pos = np.array(pts)
        dist = np.abs(pos[None, :, :] - pos[:, None, :]).max(axis=-1)
        # quadrature bottoms out at ~1e-16 cancellation noise; beyond that, cap |G|
        # by the Combes-Thomas envelope (amplifying raw noise by exp(alpha |x|)
        # would be fatal); math.exp, since np.exp may differ from it in the last bits
        kappa = 0.5 * (alpha + kstar)
        scale = _ct_margin(kernel, lam, axes, kappa)
        decay = np.array([math.exp(-kappa * t) / scale for t in range(int(dist.max()) + 1)])
        absG = np.minimum(np.abs(G) + 1e-15, decay[dist])
        np.fill_diagonal(absG, 0.0)
        sq = np.sqrt(hts)
        H = abs(lam) * sq[:, None] * absG * sq[None, :]
        h_plain = float(H.sum(axis=1).max())
        norms = np.abs(pos).max(axis=1).astype(float)
        W = H * np.exp(alpha * (norms[:, None] - norms[None, :]))
        h_weighted = float(W.sum(axis=1).max())

    h_norm = max(h_plain, h_weighted)
    return NeumannCertificate(
        excluded=tuple(sorted(excluded)),
        lam=lam,
        alpha=alpha,
        epsilon0=eps0,
        h_norm_plain=h_plain,
        h_norm_weighted=h_weighted,
        contraction=h_norm / eps0,
        green_decay_rate=kstar,
    )
