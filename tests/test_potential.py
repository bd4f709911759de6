import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk import potential
from sparsewalk.errors import (
    AlphaNotPositive,
    AnchorBelowV0,
    BaseTooSmall,
    LevelNotPositive,
    NegativePotential,
    SiteOutsideBox,
    SparseWalkError,
    TailInvalid,
)


def test_geometric_construction():
    spec = sw.build_geometric_sparse(1, v=1.0, base=3, box_radius=100)
    assert set(spec.sites) == {(s,) for s in (1, -1, 3, -3, 9, -9, 27, -27, 81, -81)}
    assert spec.v0 == 1.0
    assert set(spec.heights) == {1.0}


def test_geometric_anchor():
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=100, anchor=((0,), 2.0))
    assert dict(zip(spec.sites, spec.heights))[(0,)] == 2.0
    assert spec.v0 == 1.0  # anchor is a single site, not an essential value
    with pytest.raises(AnchorBelowV0):
        sw.build_geometric_sparse(1, 1.0, 3, box_radius=100, anchor=((0,), 0.5))


def test_decaying_constraint():
    with pytest.raises(ValueError):
        sw.make_potential(1, {(0,): 1.0}, tail="decaying", essential_values=(0.0, 1.0))
    spec = sw.make_potential(1, {(x,): 2.0 ** (-abs(x)) for x in range(-20, 21)})
    assert spec.v0 == 0.0


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: sw.make_potential(1, {}, tail="bounded"), TailInvalid),
        (lambda: sw.make_potential(1, {}, essential_values=(0.0, 1.0)), TailInvalid),
        (lambda: sw.make_potential(1, {}, tail="sparse", essential_values=(-1.0,)), NegativePotential),
        (lambda: sw.make_potential(1, {(0,): -0.5}), NegativePotential),
        (lambda: sw.make_potential(1, {(9,): 1.0}, box_radius=8), SiteOutsideBox),
        (lambda: sw.build_geometric_sparse(1, 1.0, 1), BaseTooSmall),
        (lambda: sw.build_geometric_sparse(1, 0.0, 3), LevelNotPositive),
        (lambda: sw.sparseness_profile(sw.single_delta(1, 1.0), 0.0), AlphaNotPositive),
    ],
)
def test_potential_preconditions_are_named(build, error):
    with pytest.raises(error) as info:
        build()
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_sparseness_profile_single_site():
    spec = sw.single_delta(1, 2.0, box_radius=64)
    # a_eps at the one site sums no other site; radius 7 puts R = 0 first
    assert sw.sparseness_profile(spec, 1.0, box_radius=7)[0] == (0, 0.0)
    assert sw.sparseness_profile(spec, 1.0)[-1][1] == 0.0


def test_sparseness_profile_base2_strictly_decreasing():
    # base 2 places one site per octave, so each tail radius drops the sup
    spec = sw.build_geometric_sparse(1, 1.0, 2, box_radius=2048)
    for eps in (0.25, 0.5, 1.0):
        sups = [s for _, s in sw.sparseness_profile(spec, eps)]
        assert sups[0] > sups[1] > sups[2]


def test_sparseness_profile_base3_collapses():
    # base-3 gaps triple while tail radii double, so consecutive sups can tie;
    # the profile still collapses from first to last radius
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=2048)
    for eps in (0.25, 0.5, 1.0):
        sups = [s for _, s in sw.sparseness_profile(spec, eps)]
        assert sups[0] >= sups[1] >= sups[2]
        assert sups[2] < 1e-6 * max(sups[0], 1e-300)


def test_sparseness_dense_control():
    spec = sw.dense_level(1, 1.0, box_radius=128)
    sups = [s for _, s in sw.sparseness_profile(spec, 0.5)]
    assert min(sups) > 1.0  # bounded away from zero: condition fails


def test_sup_norm_bound():
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=100, anchor=((0,), 2.5))
    assert max(spec.heights) == 2.5  # the anchor tops every height


def _old_values_on(spec, sites):
    """The former ``PotentialSpec.values_on``: one dict lookup per site."""
    lookup = dict(zip(spec.sites, spec.heights))
    return np.array([lookup.get(tuple(int(c) for c in s), 0.0) for s in sites])


def _old_support_in_box(spec, box):
    """The former ``birman_schwinger._support_in_box``."""
    out = [
        (s, h)
        for s, h in zip(spec.sites, spec.heights)
        if all(abs(c - cc) <= box.radius for c, cc in zip(s, box.center))
    ]
    return sorted(out, key=lambda sh: (max(abs(c) for c in sh[0]), sh[0]))


#: (potential, box radius, box centre)
ONE_PLUS_V_CASES = {
    "1d geometric": (
        lambda: sw.build_geometric_sparse(1, 1.0, 3, box_radius=100, anchor=((0,), 2.0)), 90, None
    ),
    "2d geometric": (
        lambda: sw.build_geometric_sparse(2, 0.5, 3, box_radius=12, anchor=((1, -1), 1.6)), 12, None
    ),
    "3d geometric": (lambda: sw.build_geometric_sparse(3, 0.7, 2, box_radius=8), 5, None),
    "2d off the origin": (
        lambda: sw.make_potential(2, {(0, 0): 1.0, (1, -1): 0.5, (-2, 1): 0.25, (6, 3): 0.3}),
        4,
        (2, -1),
    ),
    "dense_level": (lambda: sw.dense_level(2, 0.3, box_radius=6), 8, None),
    "no potential": (lambda: None, 7, None),
}


@pytest.mark.parametrize("case", sorted(ONE_PLUS_V_CASES))
def test_one_plus_v_matches_one_plus_values_on(case):
    make, radius, center = ONE_PLUS_V_CASES[case]
    spec = make()
    d = 2 if spec is None else spec.dimension
    box = sw.LatticeBox.cube(radius, d, center=center)
    got = potential._one_plus_v(spec, box)
    want = np.ones(box.volume) if spec is None else 1.0 + _old_values_on(spec, box.sites())
    assert got.tolist() == want.tolist()
    if spec is not None:
        assert spec.support(box) == _old_support_in_box(spec, box)
