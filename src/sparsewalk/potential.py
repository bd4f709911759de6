"""Sparse nonnegative potentials on Z^d.

A potential is stored as its explicit values inside a working box together
with a tail descriptor and a declared set of essential values: the values v
attained near infinity on unboundedly many sites (0 always belongs).  The
limiting height v0 = max of the essential values controls whether the
perturbed operator grows new essential spectrum.  Essential values are
declared rather than inferred because they are a tail property invisible to
any finite box; the counting witness below checks declaration consistency.

All distances are sup-norm, matching the cube geometry used throughout.
The support inside a box comes from ``PotentialSpec.support``, and 1 + V on
the sites of a box from one builder, ``_one_plus_v``, which every
truncation, transfer sweep and resolvent reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import AnchorBelowV0, InsufficientSupport, NotFoundInBox, SelfCheckFailed
from .lattice import LatticeBox, Offset, _as_offset, _sup_norm

#: default working-box radius per dimension (keeps dense matrices tractable)
DEFAULT_BOX_RADIUS = {1: 2048, 2: 64, 3: 16}


@dataclass(frozen=True)
class PotentialSpec:
    """Nonnegative potential: explicit finite values plus a tail declaration.

    tail is "decaying" (values vanish at infinity; essential values {0}) or
    "sparse" (declared positive essential values are attained on sparse
    unbounded site families, witnessed inside the box).
    """

    dimension: int
    sites: tuple[Offset, ...]
    heights: tuple[float, ...]
    tail: str
    essential_values: tuple[float, ...]
    box_radius: int
    generator: str = "explicit"
    _lookup: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._lookup.update(zip(self.sites, self.heights))

    @property
    def v0(self) -> float:
        return max(self.essential_values)

    @property
    def sup_norm(self) -> float:
        vals = self.heights + self.essential_values
        return max(vals) if vals else 0.0

    def value(self, site) -> float:
        return self._lookup.get(_as_offset(site, self.dimension), 0.0)

    def support(self, box: LatticeBox) -> list[tuple[Offset, float]]:
        """(site, height) of the support inside a box, sorted by (|x|, x)."""
        out = [
            (s, h)
            for s, h in zip(self.sites, self.heights)
            if all(abs(c - cc) <= box.radius for c, cc in zip(s, box.center))
        ]
        return sorted(out, key=lambda sh: (_sup_norm(sh[0]), sh[0]))


def _one_plus_v(spec: PotentialSpec | None, box: LatticeBox) -> np.ndarray:
    """1 + V on the sites of a box in row-major order; all ones for no potential."""
    out = np.ones(box.volume)
    supp = spec.support(box) if spec is not None else ()
    if supp:
        sites, heights = zip(*supp)
        out[box.flat(np.array(sites))] = 1.0 + np.array(heights)
    return out


def make_potential(
    dimension: int,
    values,
    tail: str = "decaying",
    essential_values=(0.0,),
    box_radius: int | None = None,
    generator: str = "explicit",
) -> PotentialSpec:
    """Build a validated PotentialSpec from an explicit site->value map."""
    if tail not in ("decaying", "sparse"):
        raise ValueError(f"unknown tail kind {tail!r}")
    ess = tuple(sorted({float(v) for v in essential_values} | {0.0}))
    if tail == "decaying" and ess != (0.0,):
        raise ValueError("decaying tails must declare essential values {0}")
    if any(v < 0.0 for v in ess):
        raise ValueError("essential values must be nonnegative")
    box_radius = DEFAULT_BOX_RADIUS[dimension] if box_radius is None else int(box_radius)
    cleaned = {}
    for key, val in dict(values).items():
        site = _as_offset(key, dimension)
        val = float(val)
        if val < 0.0:
            raise ValueError(f"negative potential value {val} at {site}")
        if val > 0.0:
            cleaned[site] = val
        if _sup_norm(site) > box_radius:
            raise ValueError(f"site {site} outside working box radius {box_radius}")
    order = sorted(cleaned, key=lambda s: (_sup_norm(s), s))
    return PotentialSpec(
        dimension=dimension,
        sites=tuple(order),
        heights=tuple(cleaned[s] for s in order),
        tail=tail,
        essential_values=ess,
        box_radius=box_radius,
        generator=generator,
    )


def zero_potential(dimension: int) -> PotentialSpec:
    return make_potential(dimension, {}, generator="zero")


def single_delta(dimension: int, v: float, box_radius: int | None = None) -> PotentialSpec:
    """Point potential v at the origin (compact perturbation, v0 = 0)."""
    return make_potential(dimension, {(0,) * dimension: v}, box_radius=box_radius, generator="delta")


def dense_level(dimension: int, v: float, box_radius: int) -> PotentialSpec:
    """V = v everywhere in the box: the negative control for sparseness."""
    sites = itertools.product(range(-box_radius, box_radius + 1), repeat=dimension)
    return make_potential(
        dimension,
        {s: v for s in sites},
        tail="sparse",
        essential_values=(0.0, v),
        box_radius=box_radius,
        generator="dense",
    )


def build_geometric_sparse(
    dimension: int,
    v: float,
    base: int,
    box_radius: int | None = None,
    anchor=None,
) -> PotentialSpec:
    """Height-v potential on the geometric site family +-base^k e1.

    Gaps between consecutive support sites grow like base^k, so every
    cross-term sum a_eps vanishes at infinity.  An optional anchor
    (site, value) with value >= v plants one dominating site, which is what
    pushes the top of the spectrum strictly above the essential part.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if v <= 0.0:
        raise ValueError("v must be positive")
    box_radius = DEFAULT_BOX_RADIUS[dimension] if box_radius is None else int(box_radius)
    vals: dict[Offset, float] = {}
    k = 0
    while base**k <= box_radius:
        site = (base**k,) + (0,) * (dimension - 1)
        neg = tuple(-c for c in site)
        vals[site] = v
        vals[neg] = v
        k += 1
    if anchor is not None:
        site, a = anchor
        site = _as_offset(site, dimension)
        a = float(a)
        if a < v:
            raise AnchorBelowV0(f"anchor value {a} below sparse level v0={v}")
        vals[site] = max(a, vals.get(site, 0.0))
    return make_potential(
        dimension,
        vals,
        tail="sparse",
        essential_values=(0.0, v),
        box_radius=box_radius,
        generator=f"geometric(base={base}, v={v})",
    )


# -- queries ------------------------------------------------------------------

def v0_of(spec: PotentialSpec, radii) -> tuple[float, list[float]]:
    """Declared v0 alongside the empirical tail sups over growing radii.

    empirical(n) = sup of V over box sites with |x| >= radii[n].  For sparse
    tails the empirical value must witness the declaration at every radius
    inside the box; a violation means the declaration is inconsistent.
    """
    declared = spec.v0
    radii = [int(R) for R in radii]
    for R in radii:
        if R > spec.box_radius:
            raise ValueError(f"radius {R} exceeds working box {spec.box_radius}")
    empirical = []
    for R in radii:
        tail_vals = [h for s, h in zip(spec.sites, spec.heights) if _sup_norm(s) >= R]
        empirical.append(max(tail_vals) if tail_vals else 0.0)
    if spec.tail == "sparse":
        for R, e in zip(radii, empirical):
            if e < declared - 1e-12:
                raise ValueError(
                    f"declared v0={declared} not witnessed beyond radius {R} (sup={e})"
                )
    return declared, empirical


@dataclass(frozen=True)
class SparsenessProfile:
    """Cross-term sums a_eps(x) and their tail sups over growing radii."""

    epsilon: float
    samples: tuple[tuple[Offset, float], ...]
    sup_tail: tuple[tuple[int, float], ...]


def sparseness_profile(
    spec: PotentialSpec, epsilon: float, box_radius: int | None = None
) -> SparsenessProfile:
    """a_eps(x) = sum_{y != x} sqrt(V(x) V(y)) exp(-eps |x - y|) over the box.

    a_eps vanishes off the support, so only support sites are tabulated.
    sup_tail reports sup_{|x| >= R} a_eps(x) at R = box/8, box/4, box/2;
    the sequence collapsing toward 0 is the operative sparseness signal,
    while a dense potential keeps it bounded away from 0.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    box_radius = spec.box_radius if box_radius is None else int(box_radius)
    supp = spec.support(LatticeBox.cube(box_radius, spec.dimension))
    samples = []
    if supp:
        pts = np.array([s for s, _ in supp], dtype=float)
        hts = np.array([h for _, h in supp])
        diff = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        weights = np.sqrt(hts[:, None] * hts[None, :]) * np.exp(-epsilon * diff)
        np.fill_diagonal(weights, 0.0)
        a_vals = weights.sum(axis=1)
        samples = [(s, float(a)) for (s, _), a in zip(supp, a_vals)]
    sup_tail = []
    for R in (box_radius // 8, box_radius // 4, box_radius // 2):
        tail = [a for (s, a) in samples if _sup_norm(s) >= R]
        sup_tail.append((R, max(tail) if tail else 0.0))
    return SparsenessProfile(
        epsilon=float(epsilon), samples=tuple(samples), sup_tail=tuple(sup_tail)
    )


def pair_separation(spec: PotentialSpec, r: float) -> float:
    """min |x - y| over distinct support pairs with |x|, |y| >= r."""
    far = [s for s in spec.sites if _sup_norm(s) >= r]
    if len(far) < 2:
        raise InsufficientSupport(
            f"need two support points beyond radius {r}, found {len(far)}"
        )
    best = None
    for i, x in enumerate(far):
        for y in far[i + 1 :]:
            dist = max(abs(a - b) for a, b in zip(x, y))
            if best is None or dist < best:
                best = dist
    return float(best)


def find_concentration_cube(
    spec: PotentialSpec, L: int, ell: int, eps: float
) -> Offset:
    """Center c of a cube Q(c, ell) avoiding Q(0, L) where V concentrates.

    The returned c satisfies, re-checked independently after the search:
    Q(0, L) and Q(c, ell) disjoint; V(c) > (1 - eps) v0; and the total of V
    over the rest of the cube is below eps.  Ties in |c| prefer positive
    leading coordinates, so 1d results favour +c over -c.
    """
    if spec.v0 <= 0.0:
        raise ValueError("concentration search requires v0 > 0")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    candidates = sorted(spec.sites, key=lambda s: (_sup_norm(s), tuple(-c for c in s)))
    for c in candidates:
        if _sup_norm(c) <= L + ell:
            continue
        if spec.value(c) <= (1.0 - eps) * spec.v0:
            continue
        others = 0.0
        for s, h in zip(spec.sites, spec.heights):
            if s != c and max(abs(a - b) for a, b in zip(s, c)) <= ell:
                others += h
        if others < eps:
            if not _check_concentration(spec, c, L, ell, eps):
                raise SelfCheckFailed(f"concentration cube at {c} failed its re-check")
            return c
    raise NotFoundInBox(
        f"no concentration cube with L={L}, ell={ell}, eps={eps} inside the box"
    )


def _check_concentration(spec: PotentialSpec, c: Offset, L: int, ell: int, eps: float) -> bool:
    """Independent verbatim re-check of the three cube conditions."""
    disjoint = _sup_norm(c) > L + ell
    high = spec.value(c) > (1.0 - eps) * spec.v0
    rest = sum(
        spec.value(tuple(a + b for a, b in zip(c, off)))
        for off in itertools.product(range(-ell, ell + 1), repeat=spec.dimension)
        if any(off)
    )
    return disjoint and high and rest < eps


def essential_value_counts(spec: PotentialSpec, eps: float, radii) -> dict[float, list[int]]:
    """Counting witness: sites with |V(x) - v| < eps inside growing boxes.

    For every declared essential value the count must grow with the radius;
    unbounded growth is exactly what membership in the essential value set
    means, and this is its finite-box shadow.
    """
    out: dict[float, list[int]] = {}
    radii = [int(R) for R in radii]
    for v in spec.essential_values:
        counts = []
        for R in radii:
            vol = (2 * R + 1) ** spec.dimension
            in_box = [
                (s, h) for s, h in zip(spec.sites, spec.heights) if _sup_norm(s) <= R
            ]
            near = sum(1 for _, h in in_box if abs(h - v) < eps)
            if abs(v) < eps:  # off-support sites all carry V = 0
                near += vol - len(in_box)
            counts.append(near)
        out[v] = counts
    return out
