"""Sparse nonnegative potentials on Z^d.

A potential is stored as its explicit values inside a working box together
with a declared set of essential values: the values v attained near
infinity on unboundedly many sites (0 always belongs).  The limiting
height v0 = max of the essential values controls whether the perturbed
operator grows new essential spectrum.  Essential values are
declared rather than inferred because they are a tail property invisible to
any finite box.

All distances are sup-norm, matching the cube geometry used throughout.
The support inside a box comes from ``PotentialSpec.support``, and 1 + V on
the sites of a box from one builder, ``_one_plus_v``, which every
truncation, transfer sweep and resolvent reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaNotPositive,
    AnchorBelowV0,
    BaseTooSmall,
    LevelNotPositive,
    NegativePotential,
    SiteOutsideBox,
    TailInvalid,
)
from .lattice import LatticeBox, Offset, _as_offset, _count, _dense_cap, _sup_norm

#: default working-box radius per dimension (keeps dense matrices tractable)
DEFAULT_BOX_RADIUS = {1: 2048, 2: 64, 3: 16}


@dataclass(frozen=True)
class PotentialSpec:
    """Nonnegative potential: explicit finite values plus its essential values."""

    dimension: int
    sites: tuple[Offset, ...]
    heights: tuple[float, ...]
    essential_values: tuple[float, ...]
    box_radius: int
    generator: str = "explicit"

    @property
    def v0(self) -> float:
        return max(self.essential_values)

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
    """Build a validated PotentialSpec from an explicit site->value map.

    tail is "decaying" (values vanish at infinity; essential values {0}) or
    "sparse" (declared positive essential values are attained on sparse
    unbounded site families, witnessed inside the box); it is checked
    against the essential values and not stored.
    """
    if tail not in ("decaying", "sparse"):
        raise TailInvalid(f"unknown tail kind {tail!r}")
    ess = tuple(sorted({float(v) for v in essential_values} | {0.0}))
    if tail == "decaying" and ess != (0.0,):
        raise TailInvalid("decaying tails must declare essential values {0}")
    if any(v < 0.0 for v in ess):
        raise NegativePotential("essential values must be nonnegative")
    if box_radius is None:
        box_radius = DEFAULT_BOX_RADIUS[dimension]
    box_radius = _count(box_radius, "box_radius")
    cleaned = {}
    for key, val in dict(values).items():
        site = _as_offset(key, dimension)
        val = float(val)
        if val < 0.0:
            raise NegativePotential(f"negative potential value {val} at {site}")
        if val > 0.0:
            cleaned[site] = val
        if _sup_norm(site) > box_radius:
            raise SiteOutsideBox(f"site {site} outside working box radius {box_radius}")
    order = sorted(cleaned, key=lambda s: (_sup_norm(s), s))
    return PotentialSpec(
        dimension=dimension,
        sites=tuple(order),
        heights=tuple(cleaned[s] for s in order),
        essential_values=ess,
        box_radius=box_radius,
        generator=generator,
    )


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
        raise BaseTooSmall(f"base must be >= 2, got {base!r}")
    if v <= 0.0:
        raise LevelNotPositive(f"v must be positive, got {v!r}")
    if box_radius is None:
        box_radius = DEFAULT_BOX_RADIUS[dimension]
    box_radius = _count(box_radius, "box_radius")
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

def sparseness_profile(
    spec: PotentialSpec, epsilon: float, box_radius: int | None = None
) -> tuple[tuple[int, float], ...]:
    """Tail sups of a_eps(x) = sum_{y != x} sqrt(V(x) V(y)) exp(-eps |x - y|).

    a_eps vanishes off the support, so only support sites are summed.
    Returns (R, sup_{|x| >= R} a_eps(x)) at R = box/8, box/4, box/2; the
    sequence collapsing toward 0 is the operative sparseness signal,
    while a dense potential keeps it bounded away from 0.  A support past
    ``lattice.DENSE_CAP`` sites raises BoxTooLarge before the pair table.
    """
    if epsilon <= 0.0:
        raise AlphaNotPositive(f"epsilon must be positive, got {epsilon!r}")
    box_radius = _count(spec.box_radius if box_radius is None else box_radius, "box_radius")
    supp = spec.support(LatticeBox.cube(box_radius, spec.dimension))
    _dense_cap(len(supp))
    samples = []
    if supp:
        pts = np.array([s for s, _ in supp], dtype=float)
        hts = np.array([h for _, h in supp])
        diff = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        weights = np.sqrt(hts[:, None] * hts[None, :]) * np.exp(-epsilon * diff)
        np.fill_diagonal(weights, 0.0)
        samples = [(s, float(a)) for (s, _), a in zip(supp, weights.sum(axis=1))]
    return tuple(
        (R, max((a for s, a in samples if _sup_norm(s) >= R), default=0.0))
        for R in (box_radius // 8, box_radius // 4, box_radius // 2)
    )
