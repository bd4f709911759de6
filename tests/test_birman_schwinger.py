import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk import birman_schwinger as bs
from sparsewalk import resolvent
from sparsewalk.errors import (
    AlphaNotPositive,
    AlphaTooLarge,
    BoxTooLarge,
    BSNotInvertible,
    EmptySupport,
    Epsilon0Zero,
    LambdaInSpectrum,
    LambdaNotFinite,
    NoSignChange,
    SparseWalkError,
    SpreadTooLarge,
    TailRadiusTooLarge,
)
from sparsewalk.lattice import DENSE_CAP, _sup_norm


def test_single_site_assembly():
    k = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    asm = sw.assemble_bs(k, spec, 2.0, box=40)
    # oracle: 1x1 matrix [v (g(0) - 1)] with g(0) = 2/sqrt(3)
    expected = 2.0 / math.sqrt(3.0) - 1.0
    assert asm.matrix.shape == (1, 1)
    assert asm.matrix[0, 0] == pytest.approx(expected, abs=1e-10)
    assert asm.gamma == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize(
    "name, lam", [("lazy1d", 1.8), ("lazy1d", -1.4), ("simple2d", 1.6), ("simple2d", -1.6)]
)
def test_gamma_is_the_quadrature_value(name, lam):
    k = sw.lazy1d(0.25) if name == "lazy1d" else sw.simple2d()
    d = k.dimension
    spec = sw.make_potential(d, {(0,) * d: 1.0, (3,) + (0,) * (d - 1): 0.5})
    asm = sw.assemble_bs(k, spec, lam, box=8, pts_per_axis=128)
    assert asm.gamma == sw.g_lambda_quadrature(k, lam, 128).value - 1.0


def test_eigenvalue_condition_at_lambda_plus():
    k = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    lam_plus = sw.lambda_pm_1d(0.0, 1.0)[1]
    asm = sw.assemble_bs(k, spec, lam_plus, box=40)
    assert asm.matrix[0, 0] == pytest.approx(1.0, abs=1e-9)
    hit, dist = sw.bs_eigenvalue_test(asm)
    assert hit and dist < 1e-9
    asm_off = sw.assemble_bs(k, spec, 1.5, box=40)
    # oracle: g_1.5(0) = 1.5/sqrt(1.25), matrix = [g - 1], distance |g - 2|
    g15 = 1.5 / math.sqrt(1.25)
    hit, dist = sw.bs_eigenvalue_test(asm_off)
    assert not hit
    assert dist == pytest.approx(2.0 - g15, abs=1e-9)


def test_two_site_off_diagonal():
    k = sw.simple1d()
    v = 1.0
    spec = sw.make_potential(1, {(1,): v, (-1,): v}, tail="decaying")
    asm = sw.assemble_bs(k, spec, 1.25, box=40)
    # oracle: off-diagonal v * lambda * G(-1, 1) = v * g(2) = v * 5/12
    assert asm.matrix[0, 1] == pytest.approx(v * 5.0 / 12.0, abs=1e-9)
    assert np.max(np.abs(asm.matrix - asm.matrix.T)) < 1e-12
    off_diag = asm.matrix - np.diag(np.diag(asm.matrix))
    split = asm.matrix - asm.gamma * np.diag(asm.support_values) - off_diag
    assert np.max(np.abs(split)) < 1e-12


def test_assembly_guards():
    k = sw.simple1d()
    with pytest.raises(LambdaInSpectrum):
        sw.assemble_bs(k, sw.single_delta(1, 1.0), 1.01, box=40)
    with pytest.raises(EmptySupport):
        sw.assemble_bs(k, sw.make_potential(1, {}), 2.0, box=40)


def test_crossing_scan_matches_dense_eigensolve():
    k = sw.lazy1d(0.25)
    spec = sw.single_delta(1, 2.0)
    op = sw.truncated_operator(k, spec, 60)
    top = float(np.linalg.eigvalsh(op.sym)[-1])
    crossing = sw.bs_crossing_scan(k, spec, 1.05, 4.0, box=60)
    assert crossing == pytest.approx(top, abs=1e-6)


@pytest.mark.parametrize("v", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [0.0, 0.25])
def test_crossing_scan_on_criterion_4_cases(q, v, monkeypatch):
    # criterion 4's bracket and xtol: at most 20 assemblies (bisection took
    # 37), and the crossing is the exact lambda_+ of the single delta
    calls = []
    assemble = bs.assemble_bs

    def counted(*args, **kwargs):
        calls.append(args[2])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(bs, "assemble_bs", counted)
    crossing = sw.bs_crossing_scan(sw.lazy1d(q), sw.single_delta(1, v), 1.03, 4.0, box=60, xtol=1e-10)
    assert len(calls) <= 20, len(calls)
    assert abs(crossing - sw.lambda_pm_1d(q, v)[1]) <= 1e-9


def test_crossing_scan_without_sign_change_is_named():
    # the crossing of a unit delta sits near 1.15, below this bracket
    with pytest.raises(NoSignChange):
        sw.bs_crossing_scan(sw.simple1d(), sw.single_delta(1, 1.0), 3.0, 4.0, 40)
    assert issubclass(NoSignChange, ValueError)


@pytest.mark.parametrize("alpha", [0.0, -0.3])
def test_neumann_alpha_not_positive_is_checked_first(alpha):
    # pts 8 is below the grid floor: a Green table built before the check
    # would raise GridTooCoarse instead
    spec = sw.single_delta(1, 1.0)
    with pytest.raises(AlphaNotPositive):
        sw.neumann_invertibility(sw.simple1d(), spec, (), 2.0, alpha, 40, pts_per_axis=8)
    assert issubclass(AlphaNotPositive, ValueError)


def test_resolvent_via_bs_zero_potential():
    k = sw.simple1d()
    R, resid = sw.resolvent_via_bs(k, sw.make_potential(1, {}), 2.0, box=30)
    assert resid < 1e-8
    # formula collapses to the truncated Green matrix
    direct = sw.green_table(k, 2.0, [(x,) for x in range(-4, 5)])
    i = 30
    for x in range(-4, 5):
        assert R[i, i + x] == pytest.approx(direct[(x,)], abs=1e-10)


def test_resolvent_via_bs_matches_direct_inverse():
    k = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    R, resid = sw.resolvent_via_bs(k, spec, 2.0, box=40)
    assert resid < 1e-6
    op = sw.truncated_operator(k, spec, 40)
    direct = np.linalg.inv(2.0 * np.eye(op.volume) - op.matrix)
    interior = np.max(np.abs(op.sites), axis=1) <= 20
    assert np.max(np.abs((R - direct)[np.ix_(interior, interior)])) < 1e-6


@pytest.mark.parametrize(
    "name, radius, pts, shift", [("simple1d", 6, 512, (3,)), ("simple2d", 4, 64, (2, -1))]
)
def test_resolvent_via_bs_is_translation_invariant(name, radius, pts, shift):
    # a potential shifted together with the box centre sees the same operator
    k = sw.simple1d() if name == "simple1d" else sw.simple2d()
    d = k.dimension
    centred = sw.make_potential(d, {(0,) * d: 1.0})
    R0, resid0 = sw.resolvent_via_bs(k, centred, 2.0, box=radius, pts_per_axis=pts)
    box = sw.LatticeBox.cube(radius, d, center=shift)
    shifted = sw.make_potential(d, {shift: 1.0})
    R1, resid1 = sw.resolvent_via_bs(k, shifted, 2.0, box=box, pts_per_axis=pts)
    assert np.array_equal(R1, R0)
    assert resid1 == resid0


def test_resolvent_via_bs_detects_eigenvalue():
    k = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    lam_plus = sw.lambda_pm_1d(0.0, 1.0)[1]
    with pytest.raises(BSNotInvertible):
        sw.resolvent_via_bs(k, spec, lam_plus, box=40)


def test_off_diag_tail_norm_profiles():
    k = sw.simple1d()
    asm = sw.assemble_bs(k, sw.build_geometric_sparse(1, 1.0, 3, box_radius=512), 2.0, box=512)
    bounds = [sw.off_diag_tail_norm(asm, N) for N in (8, 32, 128)]
    assert bounds[0] > bounds[1] > bounds[2]
    assert bounds[2] < 1e-3
    single = sw.assemble_bs(k, sw.single_delta(1, 1.0), 2.0, box=64)
    assert sw.off_diag_tail_norm(single, 8) == 0.0


def test_off_diag_tail_norm_radius_at_the_box_is_named():
    asm = sw.assemble_bs(sw.simple1d(), sw.single_delta(1, 1.0), 2.0, box=16)
    for N in (16, 17):
        with pytest.raises(TailRadiusTooLarge) as info:
            sw.off_diag_tail_norm(asm, N)
        assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_off_diag_tail_norm_dense_control():
    k = sw.simple1d()
    asm = sw.assemble_bs(k, sw.dense_level(1, 1.0, box_radius=128), 2.0, box=128)
    bounds = [sw.off_diag_tail_norm(asm, N) for N in (8, 32, 64)]
    assert min(bounds) > 0.05


def test_neumann_single_delta_excluded():
    k = sw.simple1d()
    cert = sw.neumann_invertibility(k, sw.single_delta(1, 1.0), [(0,)], 2.0, 0.6, box=64)
    assert cert.epsilon0 == 1.0
    assert cert.h_norm_plain == 0.0
    assert cert.valid


def test_neumann_K_sites_checked_against_dimension():
    k = sw.simple2d()
    spec = sw.make_potential(2, {(0, 0): 1.0, (3, 1): 0.5})
    with pytest.raises(ValueError):
        sw.neumann_invertibility(k, spec, [(0,)], 2.0, 0.3, box=8, pts_per_axis=128)
    cert = sw.neumann_invertibility(k, spec, [(0, 0)], 2.0, 0.3, box=8, pts_per_axis=128)
    # oracle: excluding (0, 0) is the same as leaving it out of the potential
    ref = sw.neumann_invertibility(
        k, sw.make_potential(2, {(3, 1): 0.5}), (), 2.0, 0.3, box=8, pts_per_axis=128
    )
    assert cert.excluded == ((0, 0),)
    assert cert.h_norm_plain == 0.0
    assert dataclasses.replace(cert, excluded=()) == ref
    # 1d sites may still be plain integers
    one = sw.neumann_invertibility(sw.simple1d(), sw.single_delta(1, 1.0), [0], 2.0, 0.6, box=64)
    assert one == sw.neumann_invertibility(
        sw.simple1d(), sw.single_delta(1, 1.0), [(0,)], 2.0, 0.6, box=64
    )


def test_neumann_geometric_empty_K():
    k = sw.simple1d()
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=512)
    cert = sw.neumann_invertibility(k, spec, (), 2.0, 0.6, box=512)
    # oracle: gamma = 2/sqrt(3) - 1, eps0 = 1 - gamma
    assert cert.epsilon0 == pytest.approx(1.0 - (2.0 / math.sqrt(3.0) - 1.0), abs=1e-9)
    assert cert.valid
    assert cert.contraction < 1.0


def test_neumann_epsilon0_zero_at_level():
    k = sw.simple1d()
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=512)
    lam_plus = sw.lambda_pm_1d(0.0, 1.0)[1]  # gamma = 1 there, so 1 - gamma*V = 0
    with pytest.raises(Epsilon0Zero):
        sw.neumann_invertibility(k, spec, (), lam_plus, 0.2, box=512)


def test_neumann_alpha_guard():
    k = sw.simple1d()
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=512)
    with pytest.raises(AlphaTooLarge):
        sw.neumann_invertibility(k, spec, (), 2.0, 5.0, box=512)
    # simple2d at lambda = 2: kappa* = arccosh 3 = 1.763 on both axes, below
    # the 1.859 that a fit of |G| along e1 reads
    spec2 = _seeded_support_2d(11, 8)
    with pytest.raises(AlphaTooLarge):
        sw.neumann_invertibility(sw.simple2d(), spec2, (), 2.0, 1.8, box=8, pts_per_axis=128)
    cert = sw.neumann_invertibility(sw.simple2d(), spec2, (), 2.0, 1.76, box=8, pts_per_axis=128)
    assert cert.green_decay_rate == pytest.approx(math.acosh(3.0), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_is_named_before_any_green_value(lam):
    k, spec = sw.simple1d(), sw.single_delta(1, 1.0)
    with pytest.raises(LambdaNotFinite):
        sw.assemble_bs(k, spec, lam, box=40)
    with pytest.raises(LambdaNotFinite):
        sw.neumann_invertibility(k, spec, (), lam, 0.5, box=40)


def _reference_neumann(kernel, spec, lam, alpha, box, pts_per_axis):
    """Certificate with K empty, built pair by pair: the reference for the vectorised envelope."""
    origin = (0,) * kernel.dimension
    axes = range(kernel.dimension)
    kstar = resolvent._kappa_star(kernel, lam, axes)
    kappa = 0.5 * (alpha + kstar)
    scale = resolvent._ct_margin(kernel, lam, axes, kappa)
    table = sw.green_table(kernel, lam, [origin], pts_per_axis)
    gamma = lam * table[origin] - 1.0
    supp = [(s, h) for s, h in zip(spec.sites, spec.heights) if _sup_norm(s) <= box]
    eps0 = 1.0
    for _, h in supp:
        eps0 = min(eps0, abs(1.0 - gamma * h))
    pts = [s for s, _ in supp]
    hts = np.array([h for _, h in supp])
    disp = sorted({tuple(b - a for a, b in zip(x, y)) for x in pts for y in pts if x != y})
    table = sw.green_table(kernel, lam, disp, pts_per_axis)
    n = len(pts)
    absG = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d = tuple(b - a for a, b in zip(pts[i], pts[j]))
                envelope = math.exp(-kappa * _sup_norm(d)) / scale
                absG[i, j] = min(abs(table[d]) + 1e-15, envelope)
    sq = np.sqrt(hts)
    H = abs(lam) * sq[:, None] * absG * sq[None, :]
    h_plain = float(H.sum(axis=1).max())
    norms = np.array([_sup_norm(s) for s in pts], dtype=float)
    W = H * np.exp(alpha * (norms[:, None] - norms[None, :]))
    h_weighted = float(W.sum(axis=1).max())
    return sw.NeumannCertificate(
        excluded=(),
        lam=lam,
        alpha=alpha,
        epsilon0=eps0,
        h_norm_plain=h_plain,
        h_norm_weighted=h_weighted,
        contraction=max(h_plain, h_weighted) / eps0,
        green_decay_rate=kstar,
    )


def _seeded_support_2d(seed, n):
    rng = np.random.default_rng(seed)
    values = {}
    while len(values) < n:
        values[tuple(int(c) for c in rng.integers(-6, 7, 2))] = float(rng.uniform(0.2, 1.0))
    return sw.make_potential(2, values)


@pytest.mark.parametrize(
    "name, spec, lam, box, pts",
    [
        ("simple1d", sw.dense_level(1, 0.3, box_radius=200), 2.0, 256, 256),
        ("simple2d", _seeded_support_2d(11, 8), 1.6, 8, 128),
    ],
)
def test_neumann_matches_pairwise_reference(name, spec, lam, box, pts):
    k = sw.simple1d() if name == "simple1d" else sw.simple2d()
    cert = sw.neumann_invertibility(k, spec, (), lam, 0.3, box=box, pts_per_axis=pts)
    ref = _reference_neumann(k, spec, lam, 0.3, box, pts)
    for field in dataclasses.fields(sw.NeumannCertificate):
        assert getattr(cert, field.name) == getattr(ref, field.name), field.name


def test_grow_exclusion_set():
    # at lambda_+ every v = 1 site has gamma V = 1, so K must hold all 12 sites +-3^k
    k = sw.simple1d()
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=512)
    lam_plus = sw.lambda_pm_1d(0.0, 1.0)[1]
    cert = sw.neumann_invertibility(k, spec, spec.sites, lam_plus, 0.2, 512)
    assert cert.excluded == tuple(sorted(spec.sites)) and len(cert.excluded) == 12
    assert cert.valid
    assert cert.contraction == 0.0 and cert.epsilon0 == 1.0


def test_bs_matrix_symmetry_sparse_spec():
    k = sw.lazy1d(0.25)
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=256)
    asm = sw.assemble_bs(k, spec, 1.8, box=256)
    assert np.max(np.abs(asm.matrix - asm.matrix.T)) < 1e-12
    off_diag = asm.matrix - np.diag(np.diag(asm.matrix))
    split = asm.matrix - asm.gamma * np.diag(asm.support_values) - off_diag
    assert np.max(np.abs(split)) < 1e-12


def _sorted_search(sites):
    """Distinct displacements of the site pairs by one sort, each pair's index by sorted search."""
    pos = np.array(sites)
    half = int((pos.max(axis=0) - pos.min(axis=0)).max())
    side = 2 * half + 1
    shape = (side,) * pos.shape[1]
    weights = side ** np.arange(len(shape) - 1, -1, -1)
    flat = pos @ weights
    codes = flat[None, :] - flat[:, None] + half * int(weights.sum())
    keys = np.sort(codes, axis=None)
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    disp = [tuple(row) for row in (np.stack(np.unravel_index(keys, shape), axis=-1) - half).tolist()]
    return disp, np.searchsorted(keys, codes)


#: the 1d dense control's support, a 2d box centred off the origin, a small 3d set
PAIR_SITES = {
    "dense1d": lambda: [
        s for s, _ in sw.dense_level(1, 1.0, 256).support(sw.LatticeBox.cube(256, 1))
    ],
    "box2d": lambda: sw.LatticeBox.cube(4, 2, center=(3, -2)).sites(),
    "set3d": lambda: [(0, 0, 0), (1, -2, 3), (-4, 0, 1), (2, 2, -2), (5, -1, 0), (-3, 3, 3)],
}


#: the lazy nearest-neighbour walk on Z^3
LAZY3D = {(0, 0, 0): 0.25}
for _e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
    LAZY3D[_e] = LAZY3D[tuple(-c for c in _e)] = 0.125


@pytest.mark.parametrize("name", sorted(PAIR_SITES))
def test_pair_green_indices_match_sorted_search(monkeypatch, name):
    sites = PAIR_SITES[name]()
    kernel = {1: sw.simple1d(), 2: sw.simple2d(), 3: sw.validate_kernel(LAZY3D)}[len(sites[0])]
    pts = 512 if kernel.dimension == 1 else 64  # 1d: displacements out to 512
    disp, index = _sorted_search(sites)
    G, table = bs._pair_green(kernel, 1.5, sites, pts)
    assert list(table) == disp
    assert np.array_equal(G, np.array([table[x] for x in disp])[index])
    # a table of ranks shows the indices themselves, not only the values they read
    monkeypatch.setattr(bs, "green_table", lambda k, lam, xs, pts: {x: i for i, x in enumerate(xs)})
    ranks, _ = bs._pair_green(kernel, 1.5, sites, pts)
    assert np.array_equal(ranks, index)


@pytest.mark.parametrize("anchor", [None, ((3, 400, -300), 2.0)])
def test_pair_green_memory_follows_the_sites_not_their_spread(monkeypatch, anchor):
    # +-2^k e1 out to 512, the decay experiment's box, and an anchor off the axis: about
    # 20 sites whose displacements span up to 2049 x 801 x 601 codes
    spec = sw.build_geometric_sparse(3, 1.0, 2, box_radius=512, anchor=anchor)
    sites = [s for s, _ in spec.support(sw.LatticeBox.cube(512, 3))]
    disp, index = _sorted_search(sites)
    kernel = sw.validate_kernel(LAZY3D)
    monkeypatch.setattr(bs, "green_table", lambda k, lam, xs, pts: {x: i for i, x in enumerate(xs)})
    tracemalloc.start()
    try:
        ranks, table = bs._pair_green(kernel, 1.5, sites, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(table) == disp
    assert np.array_equal(ranks, index)
    # the codes and the table keys are O(n^2); the code space is not
    assert peak < 1000 * len(sites) ** 2, peak


def test_pair_green_cap_comes_before_the_codes():
    sites = [(i,) for i in range(DENSE_CAP + 1)]
    tracemalloc.start()
    try:
        with pytest.raises(BoxTooLarge):
            bs._pair_green(sw.simple1d(), 1.5, sites, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n code array would take 8 n^2 bytes
    assert peak < len(sites) ** 2


def test_pair_green_spread_past_int64_is_named(monkeypatch):
    # per-axis code sides of about 2^23: their product passes 2^63
    sites = [(0, 0, 0), (2**22, 2**22, 2**22), (5, -3, 1)]

    def no_table(*args):
        raise AssertionError("read the Green table before checking the codes")

    monkeypatch.setattr(bs, "green_table", no_table)
    with pytest.raises(SpreadTooLarge) as info:
        bs._pair_green(sw.validate_kernel(LAZY3D), 1.5, sites, 64)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)
