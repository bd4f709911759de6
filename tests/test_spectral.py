import contextlib
import dataclasses
import itertools
import math
import signal
import tracemalloc
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk import spectral
from sparsewalk.errors import (
    BoxTooLarge,
    DimensionMismatch,
    GapNotCertified,
    LambdaNotFinite,
    LevelNotPositive,
    NegativeRadius,
    NoConvergence,
    NoRootAboveOne,
    NotSparse,
    NotStabilized,
    NotTridiagonal,
    PairCountOutOfRange,
    SparseWalkError,
    TargetNotNumeric,
    ToleranceNotPositive,
    TooFewRadii,
    TruncationTooSmall,
)
from sparsewalk.lattice import DENSE_CAP, _band_dense, _neighbour_table

#: symmetric only jointly, p(x) = p(-x), with unequal diagonal moves
SKEW2D = {
    (1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.1, (0, -1): 0.1,
    (1, 1): 0.15, (-1, -1): 0.15, (1, -1): 0.05, (-1, 1): 0.05,
}
BAND_KERNELS = {
    "lazy1d": (lambda: sw.lazy1d(0.3), 30),
    "simple2d": (sw.simple2d, 10),
    "skew2d": (lambda: sw.validate_kernel(SKEW2D), 10),
}


def _anchored(name):
    kernel, L = BAND_KERNELS[name][0](), BAND_KERNELS[name][1]
    d = kernel.dimension
    spec = sw.build_geometric_sparse(d, 0.5, 3, box_radius=L, anchor=((1,) + (0,) * (d - 1), 1.5))
    return kernel, spec, sw.truncated_operator(kernel, spec, L)


def test_truncation_free_walk_ground_state():
    # oracle: Dirichlet eigenvalues of the path graph on 2L+1 vertices
    L = 100
    op = sw.truncated_operator(sw.simple1d(), None, L)
    top = np.linalg.eigvalsh(op.sym)[-1]
    assert top == pytest.approx(math.cos(math.pi / (2 * L + 2)), abs=1e-12)
    assert top < 1.0


def test_truncation_rows_and_entries():
    spec = sw.single_delta(1, 1.0)
    op = sw.truncated_operator(sw.simple1d(), spec, 20)
    i = op.box.index((0,))
    j = op.box.index((1,))
    assert op.matrix[i, j] == pytest.approx((1 + 1.0) * 0.5)
    assert op.matrix[j, i] == pytest.approx(1.0 * 0.5)
    free = sw.truncated_operator(sw.simple1d(), None, 20)
    sums = free.matrix.sum(axis=1)
    assert np.all(sums <= 1.0 + 1e-15)
    interior = np.max(np.abs(free.sites), axis=1) < 20
    assert np.allclose(sums[interior], 1.0)


def test_truncation_similarity():
    op = sw.truncated_operator(sw.lazy1d(0.25), sw.single_delta(1, 2.0), 30)
    assert np.max(np.abs(op.sym - op.sym.T)) < 1e-15
    w_sym = np.sort(np.linalg.eigvalsh(op.sym))
    w_mat = np.sort(np.linalg.eigvals(op.matrix).real)
    assert np.max(np.abs(w_sym - w_mat)) < 1e-10


@pytest.mark.parametrize("name", sorted(BAND_KERNELS))
def test_band_matvecs_match_dense(name):
    _, _, op = _anchored(name)
    f = np.random.default_rng(3).random(op.volume) + 0.5
    for band, dense in ((op.apply_S(f), op.sym @ f), (op.apply_M(f), op.matrix @ f)):
        assert np.max(np.abs(band - dense)) <= 1e-15 * np.max(np.abs(dense))
    assert not op.sym.flags.writeable and not op.matrix.flags.writeable


def _old_apply_S(op, f):
    """S f gathered through the band, as before the slice stencil."""
    tail = (1,) * (f.ndim - 1)
    sqd = np.sqrt(op.dvec).reshape(-1, *tail)
    probs = op.probs.reshape(*op.probs.shape, *tail)
    return sqd * (probs * (sqd * f).take(op.cols, axis=0)).sum(axis=1)


def _old_apply_M(op, f):
    """M f gathered through the band, as before the slice stencil."""
    return op.dvec * (op.probs * f[op.cols]).sum(axis=1)


class _BandOperator(spectral.TruncatedOperator):
    """A truncation whose matvecs read its ``cols`` and ``probs`` fields."""

    apply_S = _old_apply_S
    apply_M = _old_apply_M


def _lazy3d(q):
    raw = {(0, 0, 0): q}
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        raw[e] = raw[tuple(-c for c in e)] = (1.0 - q) / 6.0
    return sw.validate_kernel(raw)


def _range2_2d():
    """A 2d kernel on all 25 offsets of Q(0, 2), weights 1 + |a| + 2 |b|."""
    raw = {(a, b): 1.0 + abs(a) + 2 * abs(b) for a in range(-2, 3) for b in range(-2, 3)}
    total = sum(raw.values())
    return sw.validate_kernel({x: w / total for x, w in raw.items()})


STENCIL_KERNELS = {
    **BAND_KERNELS,
    "lazy3d": (lambda: _lazy3d(0.17), 6),
    "range3 1d": (
        lambda: sw.validate_kernel({0: 0.1, 1: 0.2, -1: 0.2, 2: 0.15, -2: 0.15, 3: 0.1, -3: 0.1}),
        14,
    ),
    "range2 2d": (_range2_2d, 9),
}


def _stencil_case(name):
    kernel, L = STENCIL_KERNELS[name][0](), STENCIL_KERNELS[name][1]
    d = kernel.dimension
    spec = sw.build_geometric_sparse(d, 0.5, 3, box_radius=L, anchor=((1,) + (0,) * (d - 1), 1.5))
    return kernel, sw.truncated_operator(kernel, spec, L)


@pytest.mark.parametrize("name", sorted(STENCIL_KERNELS))
def test_stencil_matvecs_equal_the_band_gather(name):
    kernel, op = _stencil_case(name)
    rng = np.random.default_rng(11)
    block = rng.standard_normal((op.volume, 6))
    assert np.array_equal(op.apply_S(block), _old_apply_S(op, block))
    # the transposed Lanczos block is not C-contiguous
    rows = np.ascontiguousarray(block.T)
    assert np.array_equal(op.apply_S(rows.T), _old_apply_S(op, rows.T))
    f = rng.random(op.volume) + 0.5
    pairs = ((op.apply_S(f), _old_apply_S(op, f)), (op.apply_M(f), _old_apply_M(op, f)))
    K = len(kernel.offsets)
    if K < 8:  # the band's sum over K < 8 columns runs in column order, like the stencil
        assert all(np.array_equal(new, old) for new, old in pairs)
    else:
        # numpy sums 8 or more columns pairwise: both orders lie within the
        # (K - 1) eps bound of the terms' absolute sum, here the sum itself
        for new, old in pairs:
            assert np.all(np.abs(new - old) <= (K - 1) * np.finfo(float).eps * old)


@pytest.mark.parametrize("name", ["simple2d", "skew2d"])
def test_perron_pair_2d_matches_eigvalsh(name):
    _, _, op = _anchored(name)
    r, phi = sw.perron_pair(op)
    assert abs(r - float(np.linalg.eigvalsh(op.sym)[-1])) <= 1e-12
    assert phi.min() > 0.0


def test_truncation_too_small_is_named():
    with pytest.raises(TruncationTooSmall):
        sw.truncated_operator(sw.validate_kernel({2: 0.25, -2: 0.25, 1: 0.25, -1: 0.25}), None, 7)
    assert issubclass(TruncationTooSmall, ValueError)


def test_spectral_report_needs_two_radii():
    with pytest.raises(TooFewRadii):
        sw.spectral_report(sw.simple1d(), None, [20])
    with pytest.raises(TooFewRadii):
        sw.spectral_report(sw.simple1d(), None, [40, 40])
    assert issubclass(TooFewRadii, ValueError)
    # a repeated largest radius would compare the last box with itself
    bundle = sw.spectral_report(sw.simple1d(), sw.single_delta(1, 1.0), [20, 40, 40])
    assert [rep.L for rep in bundle.reports] == [20, 40]


def test_truncation_caps():
    op = sw.truncated_operator(sw.simple1d(), None, 4000)
    with pytest.raises(BoxTooLarge):
        op.sym
    with pytest.raises(BoxTooLarge):
        op.matrix
    with pytest.raises(ValueError):
        sw.truncated_operator(sw.simple1d(), None, 2)


def test_single_delta_eigenvalue():
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 60)
    sol = sw.eigensolve_top(op, count=2)
    lam_plus = sw.lambda_pm_1d(0.0, 1.0)[1]
    assert sol.by_value[0].value == pytest.approx(lam_plus, abs=1e-8)
    assert sol.by_value[0].residual < 1e-10


def test_eigenvector_ratio_matches_green_decay():
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 60)
    sol = sw.eigensolve_top(op, count=1)
    phi = sol.by_value[0].phi
    idx = [op.box.index((x,)) for x in range(1, 10)]
    ratios = phi[idx][1:] / phi[idx][:-1]
    assert np.allclose(ratios, 1 / math.sqrt(3.0), atol=1e-8)


def test_single_delta_truncation_error_decays_geometrically():
    lam_plus = sw.lambda_pm_1d(0.0, 1.0)[1]
    errs = []
    for L in (8, 12, 16):
        op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), L)
        errs.append(abs(float(np.linalg.eigvalsh(op.sym)[-1]) - lam_plus))
    assert errs[1] < 0.1 * errs[0]
    assert errs[2] < 0.1 * errs[1]


def test_free_walk_top_vector_positive():
    op = sw.truncated_operator(sw.simple1d(), None, 40)
    sol = sw.eigensolve_top(op, count=1)
    assert sol.by_value[0].phi.min() > 0.0


def test_bipartite_spectrum_symmetric():
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 40)
    w = np.linalg.eigvalsh(op.sym)
    assert np.max(np.abs(w + w[::-1])) < 1e-10


def test_bipartite_bottom_vector_is_sign_flipped_top():
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 40)
    sol = sw.eigensolve_top(op, count=1)
    top = sol.by_value[0]
    w, U = np.linalg.eigh(op.sym)
    bottom_phi = np.sqrt(op.dvec) * U[:, 0]
    jvec = sw.bipartite_detect(sw.simple1d()).sign_on(op.sites)
    expected = jvec * top.phi
    expected /= np.linalg.norm(expected)
    bottom_phi /= np.linalg.norm(bottom_phi)
    assert w[0] == pytest.approx(-top.value, abs=1e-10)
    diff = min(
        np.max(np.abs(bottom_phi - expected)), np.max(np.abs(bottom_phi + expected))
    )
    assert diff < 1e-8


def test_edge_ordering_invariant_across_battery():
    # |ell| <= r for every truncation of the positivity-preserving operator
    for kernel in (sw.simple1d(), sw.lazy1d(0.3)):
        for spec in (None, sw.single_delta(1, 2.0), sw.build_geometric_sparse(1, 1.0, 3)):
            op = sw.truncated_operator(kernel, spec, 40)
            w = np.linalg.eigvalsh(op.sym)
            assert abs(w[0]) <= w[-1] + 1e-12


def test_dirichlet_monotone_in_L():
    spec = sw.single_delta(1, 0.5)
    tops = [
        np.linalg.eigvalsh(sw.truncated_operator(sw.simple1d(), spec, L).sym)[-1]
        for L in (10, 20, 40, 80)
    ]
    assert all(b >= a - 1e-14 for a, b in zip(tops, tops[1:]))


def test_abs_value_ordering():
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 40)
    sol = sw.eigensolve_top(op, count=4)
    values_abs = [abs(p.value) for p in sol.by_abs]
    assert values_abs == sorted(values_abs, reverse=True)
    assert {round(sol.by_abs[0].value, 6), round(sol.by_abs[1].value, 6)} == {
        round(sol.by_value[0].value, 6),
        -round(sol.by_value[0].value, 6),
    }


def _free_simple2d():
    return sw.simple2d(), None, sw.truncated_operator(sw.simple2d(), None, 10)


def _tiny_box():
    # volume 9: with count 10 the start block spans the box, with count 6
    # the second block is cut to the 3 directions left
    return sw.simple1d(), None, sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 4)


def _stalling_lazy3d():
    # the two-row solve stalls here at Ritz residual 2.5e-14 for count 7, 8
    # and 10; the `count`-row rerun converges
    return None, None, sw.truncated_operator(_lazy3d(0.3), None, 4)


def _anchored_simple2d_12():
    # 625 sites: above the RESTART_BLOCKS * count row cap for count 3 and 6
    kernel = sw.simple2d()
    spec = sw.build_geometric_sparse(2, 0.5, 3, box_radius=12, anchor=((1, -1), 1.6))
    return kernel, spec, sw.truncated_operator(kernel, spec, 12)


PARITY_CASES = {
    "restarted L=12 count 6": (_anchored_simple2d_12, 6),
    "restarted L=12 count 3": (_anchored_simple2d_12, 3),
    "anchored simple2d": (lambda: _anchored("simple2d"), 6),
    "anchored skew2d": (lambda: _anchored("skew2d"), 6),
    "free simple2d": (_free_simple2d, 4),
    # 121 sites, one past the 120-row cap of count 6, with double eigenvalues
    "free simple2d past the cap": (
        lambda: (None, None, sw.truncated_operator(sw.simple2d(), None, 5)), 6
    ),
    # the (2,1,1) and (2,2,1) levels of the free 3d walk are triple
    "free lazy3d Q(0,4)": (lambda: (None, None, sw.truncated_operator(_lazy3d(0.0), None, 4)), 6),
    "lazy3d stalls on two rows": (_stalling_lazy3d, 7),
    "volume below count": (_tiny_box, 10),
    "box ends mid-block": (_tiny_box, 6),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_eigensolve_top_matches_eigvalsh(case):
    make, count = PARITY_CASES[case]
    _, _, op = make()
    w = np.linalg.eigvalsh(op.sym)
    count = min(count, op.volume)
    sol = sw.eigensolve_top(op, count)
    assert len(sol.by_value) == len(sol.by_abs) == count
    by_value = np.array([p.value for p in sol.by_value])
    assert np.max(np.abs(by_value - w[::-1][:count])) <= 1e-12
    # bipartite spectra tie +-x in |value|, so compare moduli and membership
    by_abs = np.array([p.value for p in sol.by_abs])
    top_abs = np.sort(np.abs(w))[::-1][:count]
    assert np.max(np.abs(np.abs(by_abs) - top_abs)) <= 1e-12
    assert all(np.min(np.abs(w - v)) <= 1e-12 for v in by_abs)
    assert max(p.residual for p in sol.by_value + sol.by_abs) <= 1e-10


def test_eigensolve_top_returns_both_copies_of_a_double_eigenvalue():
    # free simple2d on Q(0, 10): (cos(pi/22) + cos(2 pi/22)) / 2 twice; and the
    # free simple 3d walk on Q(0, 4), whose (2,1,1) level
    # (cos(2 pi/10) + 2 cos(pi/10)) / 3 is triple: each copy once, with orthogonal psi
    double = (math.cos(math.pi / 22) + math.cos(2 * math.pi / 22)) / 2
    triple = (math.cos(2 * math.pi / 10) + 2 * math.cos(math.pi / 10)) / 3
    assert double == pytest.approx(0.97465721, abs=1e-8)
    assert triple == pytest.approx(0.9037100090, abs=1e-10)
    cases = (
        (_free_simple2d()[2], 4, double, 2),
        (sw.truncated_operator(_lazy3d(0.0), None, 4), 6, triple, 3),
    )
    for op, count, level, copies in cases:
        sol = sw.eigensolve_top(op, count)
        repeat = sol.by_value[1 : 1 + copies]
        assert all(abs(pair.value - level) <= 1e-12 for pair in repeat)
        psi = np.array([pair.phi / np.sqrt(op.dvec) for pair in repeat])
        gram = psi @ psi.T
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-10
        assert sol.by_value[1 + copies].value < level - 1e-3


@dataclasses.dataclass(frozen=True)
class _WidthOperator(spectral.TruncatedOperator):
    """A truncation that records the column width of each ``apply_S`` call."""

    widths: list = dataclasses.field(default_factory=list)

    def apply_S(self, f):
        self.widths.append(f.shape[1])
        return super().apply_S(f)


@pytest.mark.parametrize(
    "make, count, widths",
    [
        (_anchored_simple2d_12, 1, [1]),
        (_anchored_simple2d_12, 2, [2]),
        (_anchored_simple2d_12, 6, [2]),
        # the double 0.97465721 repeats, so the two-row solve is rerun on 4 rows
        (_free_simple2d, 4, [2, 4]),
        # the two-row solve stalls, so it is rerun on 7 rows
        (_stalling_lazy3d, 7, [2, 7]),
    ],
)
def test_eigensolve_top_widens_its_block_only_at_a_repeat_or_a_stall(make, count, widths):
    op = make()[2]
    op = _WidthOperator(**{f.name: getattr(op, f.name) for f in dataclasses.fields(op)})
    sw.eigensolve_top(op, count)
    # one run, or a two-row run followed by a `count`-row run
    assert op.widths == sorted(op.widths)
    assert sorted(set(op.widths)) == widths


def test_eigensolve_top_is_deterministic():
    _, _, op = _anchored("skew2d")
    one, two = sw.eigensolve_top(op, 3), sw.eigensolve_top(op, 3)
    for a, b in zip(one.by_value + one.by_abs, two.by_value + two.by_abs):
        assert a.value == b.value and a.residual == b.residual
        assert np.array_equal(a.phi, b.phi)


def test_eigensolve_top_refills_a_broken_down_block():
    # a band of 15 identical 2x2 blocks plus one loop: S has the eigenvalues
    # 0.8 (16 times) and -0.2 (15 times), so every Krylov space closes after
    # two blocks and Lanczos must restart from fresh random directions
    op = sw.truncated_operator(sw.simple1d(), None, 15)
    idx = np.arange(op.volume)
    cols = np.stack([idx, np.where(idx < 30, idx ^ 1, idx)], axis=1)
    probs = np.where(idx[:, None] < 30, [0.3, 0.5], [0.8, 0.0])
    fields = {f.name: getattr(op, f.name) for f in dataclasses.fields(op)}
    op = _BandOperator(**{**fields, "cols": cols, "probs": probs})
    sol = sw.eigensolve_top(op, 2)
    for pair in sol.by_value + sol.by_abs:
        assert abs(pair.value - 0.8) <= 1e-12 and pair.residual <= 1e-10
    psi = [pair.phi / np.sqrt(op.dvec) for pair in sol.by_value[:2]]
    assert abs(float(psi[0] @ psi[1])) <= 1e-10


@pytest.mark.parametrize("count", [0, 11, -1])
def test_eigensolve_top_count_is_named(count):
    op = sw.truncated_operator(sw.simple1d(), None, 10)
    with pytest.raises(PairCountOutOfRange):
        sw.eigensolve_top(op, count)
    assert issubclass(PairCountOutOfRange, SparseWalkError)
    assert issubclass(PairCountOutOfRange, ValueError)


def _anchored_simple2d_40():
    kernel = sw.simple2d()
    spec = sw.build_geometric_sparse(2, 0.5, 3, box_radius=40, anchor=((1, 0), 1.5))
    return kernel, spec, sw.truncated_operator(kernel, spec, 40)


def test_band_solvers_run_past_the_dense_cap():
    # 2d L = 40 has 6561 sites: above DENSE_CAP, so only the band is used
    kernel, spec, op = _anchored_simple2d_40()
    assert op.volume == 6561 > DENSE_CAP
    with pytest.raises(BoxTooLarge):
        op.sym
    top = sw.eigensolve_top(op, 1).by_value[0]
    r, phi = sw.perron_pair(op)
    chain = sw.doob_kernel(kernel, spec, (r, phi), 40)
    assert top.residual <= 1e-10
    assert abs(top.value - r) <= 1e-9
    assert np.max(np.abs(top.phi - phi)) <= 1e-9
    assert chain.rate == r and chain.row_deficit <= 1e-6


def test_eigensolve_top_memory_is_bounded_by_the_restart_cap():
    # 6561 sites: a basis of every Lanczos vector took 1242 rows here
    _, _, op = _anchored_simple2d_40()
    tracemalloc.start()
    try:
        sol = sw.eigensolve_top(op, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert max(p.residual for p in sol.by_value + sol.by_abs) <= 1e-10


@pytest.mark.parametrize("L", [150, 200])
def test_eigensolve_top_count_one_separates_the_free_top(L):
    # a 20-row basis stalled here at Ritz residual 1e-4: the top of the
    # free spectrum, cos(pi k / (2L + 2)), is clustered
    top = sw.eigensolve_top(sw.truncated_operator(sw.simple1d(), None, L), 1).by_value[0]
    assert top.residual <= 1e-12
    assert abs(top.value - math.cos(math.pi / (2 * L + 2))) <= 1e-12


def test_eigensolve_top_stagnation_is_named(monkeypatch):
    monkeypatch.setattr(spectral, "RITZ_TOL", 0.0)
    _, _, op = _anchored("simple2d")
    with pytest.raises(NoConvergence):
        sw.eigensolve_top(op, 1)


def test_perron_pair_positivity_and_value():
    anchor = sw.build_geometric_sparse(1, 1.0, 3, anchor=((0,), 2.0))
    op = sw.truncated_operator(sw.simple1d(), anchor, 60)
    r, phi = sw.perron_pair(op, tol=1e-10)
    ref = np.linalg.eigvalsh(op.sym)[-1]
    assert r == pytest.approx(ref, abs=1e-9)
    assert phi.min() > 0.0
    assert op.v_norm(phi) == pytest.approx(1.0, abs=1e-12)


def test_lambda_pm_examples():
    lam_minus, lam_plus = sw.lambda_pm_1d(0.0, 1.0)
    assert lam_plus == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
    assert lam_minus == pytest.approx(-2.0 / math.sqrt(3.0), rel=1e-14)
    # consistency: g at lambda_+ equals 1 + 1/v
    g = sw.g_lambda_closed_1d(0.0, lam_plus).value
    assert g == pytest.approx(2.0, rel=1e-12)
    for q in (0.0, 0.25, 0.6):
        for v in (0.5, 1.0, 3.0):
            lm, lp = sw.lambda_pm_1d(q, v)
            assert lm < 2 * q - 1 < 1 < lp


def test_predictor_1d_branches():
    spec = sw.build_geometric_sparse(1, 1.0, 3)
    pred = sw.essential_spectrum_predictor(sw.simple1d(), spec)
    lam = 2.0 / math.sqrt(3.0)
    assert pred.lambda0 == pytest.approx(lam, abs=1e-9)
    assert len(pred.lambda_v) == 2
    assert pred.lambda_v[0] == pytest.approx(-lam, abs=1e-9)
    pred6 = sw.essential_spectrum_predictor(sw.lazy1d(0.6), spec)
    assert len(pred6.lambda_v) == 1
    assert pred6.lambda0 == pytest.approx(sw.lambda_pm_1d(0.6, 1.0)[1], abs=1e-9)


def test_predictor_root_consistent_with_independent_oracle():
    # lambda0 must satisfy g(lambda0) = 1 + 1/v0 when re-evaluated by the
    # path-counting series, which shares nothing with the quadrature route
    spec = sw.build_geometric_sparse(1, 1.0, 3)
    pred = sw.essential_spectrum_predictor(sw.simple1d(), spec)
    g = sw.g_lambda_series(sw.simple1d(), pred.lambda0, tol=1e-13).value
    assert abs(g - 2.0) <= 1e-9


def test_predictor_rejects_dense():
    dense = sw.dense_level(1, 1.0, box_radius=128)
    with pytest.raises(ValueError):
        sw.essential_spectrum_predictor(sw.simple1d(), dense)


def test_predictor_rejects_non_collapsing_sparse_profile():
    # declared sparse, but value 1 on every even site: the sup tail never falls
    spec = sw.make_potential(
        1, {x: 1.0 for x in range(-64, 65, 2)}, tail="sparse", essential_values=(1.0,), box_radius=64
    )
    with pytest.raises(NotSparse) as info:
        sw.essential_spectrum_predictor(sw.lazy1d(0.25), spec)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_predictor_d3_no_root():
    # oracle: g(1+) is finite in d = 3 (about 1.516 for the simple walk),
    # below 1 + 1/v0 = 2, so no root above 1 exists
    k3 = sw.validate_kernel(
        {
            (1, 0, 0): 1 / 6, (-1, 0, 0): 1 / 6,
            (0, 1, 0): 1 / 6, (0, -1, 0): 1 / 6,
            (0, 0, 1): 1 / 6, (0, 0, -1): 1 / 6,
        }
    )
    spec = sw.build_geometric_sparse(3, 1.0, 3, box_radius=16)
    with pytest.raises(NoRootAboveOne):
        sw.essential_spectrum_predictor(k3, spec)


def test_bipartite_detect():
    assert sw.bipartite_detect(sw.simple1d()) is not None
    assert sw.bipartite_detect(sw.lazy1d(0.3)) is None
    sign2 = sw.bipartite_detect(sw.simple2d())
    assert sign2 is not None and sign2.axes == (0, 1)
    assert sign2.sign_on(np.array([(1, 0), (1, 1)])).tolist() == [-1.0, 1.0]


def _random_symmetric_kernel(rng, d):
    """A seeded irreducible symmetric kernel in d dimensions, offsets in
    [-2, 2]^d (in [-1, 1]^3 for d = 3, where a range-2 validation is slow).

    Half the draws are bipartite by construction: every offset has an odd
    coordinate sum over a random axis subset I (e_j for j in I,
    e_i + e_j0 for i outside I, and random odd offsets), which generates Z^d.
    """
    axes = [a for a in range(d) if rng.random() < 0.5] or [int(rng.integers(d))]
    unit = np.eye(d, dtype=int)
    reach = 2 if d < 3 else 1
    pool = list(itertools.product(range(-reach, reach + 1), repeat=d))
    extra = [pool[i] for i in rng.choice(len(pool), size=3)]
    if rng.random() < 0.5:
        gens = [unit[j] for j in axes] + [unit[i] + unit[axes[0]] for i in range(d) if i not in axes]
        extra = [o for o in extra if sum(o[a] for a in axes) % 2]
    else:
        gens = list(unit) + ([np.zeros(d, dtype=int)] if rng.random() < 0.5 else [])
    probs = {}
    for off in [tuple(int(c) for c in g) for g in gens] + extra:
        w = float(rng.uniform(0.1, 1.0))
        for o in {off, tuple(-c for c in off)}:
            probs[o] = probs.get(o, 0.0) + w
    total = sum(probs.values())
    return sw.validate_kernel({o: p / total for o, p in probs.items()})


def test_bipartite_sign_anticommutes_with_random_kernels():
    # a returned J flips every move of P, so J P J = -P on the band of a box;
    # None means every axis subset I has a support offset in A, an even sum over I
    rng = np.random.default_rng(20262)
    verdicts = []
    for d in (1, 2, 3):
        for _ in range(12):
            kernel = _random_symmetric_kernel(rng, d)
            sign = sw.bipartite_detect(kernel)
            offs = kernel.offset_array()
            if sign is None:
                for size in range(1, d + 1):
                    for axes in itertools.combinations(range(d), size):
                        assert (offs[:, list(axes)].sum(axis=1) % 2 == 0).any(), (kernel, axes)
            else:
                box = sw.LatticeBox.cube(3, d)
                P = _band_dense(*_neighbour_table(kernel, box))
                J = sign.sign_on(box.sites())
                assert np.array_equal(J[:, None] * P * J[None, :], -P), (kernel, sign)
            verdicts.append(sign is None)
    assert 0 < sum(verdicts) < len(verdicts)  # both outcomes occur


def test_diag_dominance():
    assert sw.diag_dominance_check(sw.lazy1d(0.3)).margin == pytest.approx(0.3)
    res0 = sw.diag_dominance_check(sw.simple1d())
    assert res0.margin == pytest.approx(0.0)
    assert not res0.holds
    spread = sw.validate_kernel({2: 0.2, -2: 0.2, 0: 0.1, 1: 0.25, -1: 0.25})
    res = sw.diag_dominance_check(spread)
    assert res.margin == pytest.approx(0.1 - 0.4)
    assert not res.holds


def test_edge_inequality_cases():
    slack = sw.edge_inequality_check(sw.simple1d(), sw.single_delta(1, 1.0), 40)
    assert slack >= -1e-8
    assert slack == pytest.approx(0.0, abs=1e-8)  # bipartite symmetry
    assert sw.edge_inequality_check(sw.lazy1d(0.3), sw.single_delta(1, 1.0), 40) >= -1e-8
    assert sw.edge_inequality_check(sw.lazy1d(0.3), None, 40) >= -1e-8


def test_gap_projection_rates():
    anchor = sw.build_geometric_sparse(1, 1.0, 3, anchor=((0,), 2.0))
    proj = sw.gap_projection_test(sw.simple1d(), anchor, 60)
    assert proj.branch == "bipartite"
    assert proj.eps_fit < 1.0
    assert abs(proj.eps_fit - proj.eps_pred) <= 0.1 * proj.eps_pred
    proj3 = sw.gap_projection_test(sw.lazy1d(0.3), anchor, 60)
    assert proj3.branch == "one_term"
    assert abs(proj3.eps_fit - proj3.eps_pred) <= 0.1 * proj3.eps_pred


def test_gap_projection_runs_past_the_dense_cap():
    kernel, spec, op = _anchored_simple2d_40()
    assert op.volume > DENSE_CAP
    proj = sw.gap_projection_test(kernel, spec, 40)
    assert proj.branch == "bipartite"
    assert proj.eps_fit < 1.0
    assert abs(proj.eps_fit - proj.eps_pred) <= 0.1 * proj.eps_pred


def test_gap_projection_non_bipartite_spread_kernel():
    # support {+-1, +-2} is not bipartite (even offset present) but its
    # spectrum bottom sits strictly above -r, so the one-term route applies
    k = sw.validate_kernel({2: 0.25, -2: 0.25, 1: 0.25, -1: 0.25})
    spec = sw.single_delta(1, 1.0)
    op = sw.truncated_operator(k, spec, 30)
    w = np.linalg.eigvalsh(op.sym)
    if w[0] > -w[-1] + 1e-10:
        proj = sw.gap_projection_test(k, spec, 30)
        assert proj.branch == "one_term"
        assert proj.eps_fit < 1.0
    else:
        with pytest.raises(GapNotCertified):
            sw.gap_projection_test(k, spec, 30)


def test_spectral_report_bundle():
    anchor = sw.build_geometric_sparse(1, 1.0, 3, anchor=((0,), 2.0))
    bundle = sw.spectral_report(sw.simple1d(), anchor, [40, 60, 80])
    assert bundle.lambda0 == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    rs = [rep.r for rep in bundle.reports]
    assert abs(rs[-1] - rs[-2]) < 1e-6
    assert bundle.discrete  # the anchored state is discrete and stabilized
    top = max(bundle.discrete)
    assert top == pytest.approx(rs[-1], abs=1e-9)
    assert bundle.reports[-1].decay is not None


def test_spectral_report_unstable_candidate_prints_a_float():
    # the site at 30 lies outside Q(0, 20): its eigenvalue appears at L = 40 only
    spec = sw.make_potential(1, {(30,): 2.0})
    with pytest.raises(NotStabilized, match=r"^discrete candidate 1\.3416407645\d* moved"):
        sw.spectral_report(sw.simple1d(), spec, [20, 40])


#: discrete eigenvalues of lazy1d(0.3) under the anchored geometric potential
#: at L = 80: three below the hull [lambda_-, lambda_+] = [-0.4327, 1.2327], three above
#: (q = 0.3 is not bipartite, so they are not the negatives of those above)
LAZY_DISCRETE = (-0.6734, -0.4418, -0.4329, 1.2334, 1.2842, 2.0433)


def _anchored_geometric():
    return sw.build_geometric_sparse(1, 1.0, 3, box_radius=2048, anchor=((0,), 2.0))


def test_predictor_hull():
    spec = _anchored_geometric()
    for q in (0.0, 0.3):
        pred = sw.essential_spectrum_predictor(sw.lazy1d(q), spec)
        assert (pred.bottom, pred.top) == pytest.approx(sw.lambda_pm_1d(q, 1.0), abs=1e-9)
        assert (pred.bottom, pred.top) == (min(pred.lambda_v), max(pred.lambda_v))
    for walk in (sw.lazy1d(0.3), sw.simple2d()):
        for flat in (None, sw.single_delta(walk.dimension, 1.0)):  # no v > 0 declared
            pred = sw.essential_spectrum_predictor(walk, flat)
            assert (pred.lambda_v, pred.lambda0) == ((), None)
            assert (pred.bottom, pred.top) == (walk.lower, 1.0)


@pytest.mark.parametrize("q", [0.0, 0.3])
def test_discrete_pairs_below_and_above_the_hull(q):
    kernel, spec = sw.lazy1d(q), _anchored_geometric()
    pred = sw.essential_spectrum_predictor(kernel, spec)
    op = sw.truncated_operator(kernel, spec, 80)
    w, pairs, top_psi = spectral.discrete_pairs(op, pred.bottom, pred.top)
    assert np.allclose(w, np.linalg.eigvalsh(op.sym), atol=1e-12, rtol=0)
    assert np.linalg.norm(op.apply_S(top_psi) - w[-1] * top_psi) <= 1e-12
    values = [pair.value for pair in pairs]
    margin = spectral.DISCRETE_MARGIN
    assert values == [float(x) for x in w if x < pred.bottom - margin or x > pred.top + margin]
    if q == 0.3:
        assert values == pytest.approx(LAZY_DISCRETE, abs=1e-4)
    else:  # bipartite: the spectrum is negation-symmetric
        assert values == pytest.approx([-x for x in reversed(values)], abs=1e-12)
    for pair in pairs:
        assert pair.residual <= 1e-12
        fit = spectral.axis_decay(op, pair.phi, (10, 18))
        assert fit.rate > 0.0
        if fit.residual_rms < 1e-2:
            # between potential sites 9 and 27 phi decays at the free rate
            free = abs(math.log(abs(sw.phi_closed_1d(q, pair.value))))
            assert abs(fit.rate - free) <= 5e-3


def test_spectral_report_lists_the_discrete_spectrum_below_the_hull():
    bundle = sw.spectral_report(sw.lazy1d(0.3), _anchored_geometric(), [40, 60, 80])
    assert bundle.discrete == pytest.approx(LAZY_DISCRETE, abs=1e-4)


def test_spectral_report_reads_one_eigh_per_box(monkeypatch):
    kernel, spec, Ls = sw.simple1d(), sw.single_delta(1, 1.0), [20, 30]
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(spectral, "perron_pair", lambda *a, **k: pytest.fail("perron_pair called"))
    monkeypatch.setattr(np.linalg, "eigh", counted)
    bundle = sw.spectral_report(kernel, spec, Ls)
    assert calls == [(2 * L + 1, 2 * L + 1) for L in Ls]
    monkeypatch.undo()
    for report, L in zip(bundle.reports, Ls):
        op = sw.truncated_operator(kernel, spec, L)
        w, U = np.linalg.eigh(op.sym)
        assert np.array_equal(report.eigenvalues, w)
        fit = spectral.axis_decay(op, np.sqrt(op.dvec) * U[:, -1], spectral.REPORT_FIT_WINDOW)
        assert fit is not None and report.decay == fit


def test_axis_decay_window():
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 8)
    phi = sw.eigensolve_top(op, 1).by_value[0].phi
    fit = spectral.axis_decay(op, phi, (1, 12))  # clipped to t = 1..8
    assert fit == sw.decay_rate_estimate([(t, abs(phi[op.box.index((t,))])) for t in range(1, 9)])
    assert spectral.axis_decay(op, phi, (2, 12)) is None  # seven sites
    assert spectral.axis_decay(op, np.zeros(op.volume), (1, 8)) is None  # underflow
    op2 = sw.truncated_operator(sw.simple2d(), None, 10)
    phi2 = np.exp(-0.5 * np.abs(op2.sites).sum(axis=1))
    assert spectral.axis_decay(op2, phi2, (1, 10)).rate == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_perron_pair_rejects_a_tolerance_that_is_not_positive(monkeypatch, tol):
    op = sw.truncated_operator(sw.simple1d(), None, 10)
    monkeypatch.setattr(spectral.TruncatedOperator, "apply_S", lambda self, f: pytest.fail("iterated"))
    with pytest.raises(ToleranceNotPositive) as info:
        sw.perron_pair(op, tol=tol)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


STURM_POTENTIALS = {
    "delta": lambda: sw.single_delta(1, 1.0),
    "anchored": lambda: sw.build_geometric_sparse(1, 1.0, 3, anchor=((0,), 2.0)),
}
#: above every eigenvalue (the widening branch), below the bottom, inside
STURM_TARGETS = {"above": 2.5, "below": -1.5, "inside": 0.3}


@pytest.mark.parametrize("L", [40, 60])
@pytest.mark.parametrize("where", sorted(STURM_TARGETS))
@pytest.mark.parametrize("potential", sorted(STURM_POTENTIALS))
@pytest.mark.parametrize("q", [0.0, 0.25, 0.4])
def test_sturm_oracle_matches_eigh_at_small_scale(q, potential, where, L):
    # cross-check the high-precision distance against dense eigvalsh where
    # the spacing is fat enough for float64 to resolve
    k = sw.lazy1d(q)
    spec = STURM_POTENTIALS[potential]()
    w = np.linalg.eigvalsh(sw.truncated_operator(k, spec, L).sym)
    target = STURM_TARGETS[where]
    expected = float(np.min(np.abs(w - target)))
    got, exact = sw.truncated_spectrum_distance_1d(k, spec, L, target)
    assert exact
    assert got == pytest.approx(expected, rel=1e-8)


def test_sturm_oracle_certifies_upper_bound():
    spec = sw.build_geometric_sparse(1, 1.0, 3)
    k = sw.simple1d()
    with localcontext(Context(prec=60)):
        target = Decimal(2) / Decimal(3).sqrt()
    d256, exact256 = sw.truncated_spectrum_distance_1d(k, spec, 256, target)
    assert exact256 and 0.0 < d256 < 1e-12
    d512, exact512 = sw.truncated_spectrum_distance_1d(k, spec, 512, target)
    assert d512 <= d256 / 2


def test_sturm_oracle_kernel_is_named():
    with pytest.raises(NotTridiagonal) as info:
        sw.truncated_spectrum_distance_1d(sw.simple2d(), None, 8, 0.5)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "spec, L, target, error",
    [
        (None, 8, math.inf, LambdaNotFinite),  # widened forever
        (None, 8, "-Infinity", LambdaNotFinite),
        (None, 8, math.nan, LambdaNotFinite),  # decimal.InvalidOperation
        (None, 8, "abc", TargetNotNumeric),  # decimal.ConversionSyntax
        (None, -1, 0.5, NegativeRadius),  # IndexError
        (sw.single_delta(2, 1.0), 8, 0.5, DimensionMismatch),
    ],
)
def test_sturm_oracle_rejects_bad_input(spec, L, target, error):
    with _deadline(10), pytest.raises(error) as info:
        sw.truncated_spectrum_distance_1d(sw.simple1d(), spec, L, target)
    assert isinstance(info.value, SparseWalkError)


def _mpmath_distance(kernel, spec, L, target):
    """The Sturm oracle as it ran on mpmath: same recurrence, pivot guard,
    bisection and floor, in STURM_DIGITS-digit binary floating point."""
    import mpmath as mp

    dps = spectral.STURM_DIGITS
    heights = dict(zip(spec.sites, spec.heights)) if spec is not None else {}
    with mp.workdps(dps):
        q = mp.mpf(kernel.p0)
        hop = (1 - q) / 2
        dval = [mp.mpf(1) + mp.mpf(heights.get((x,), 0)) for x in range(-L, L + 1)]
        diag = [q * v for v in dval]
        off2 = [hop * hop * dval[i] * dval[i + 1] for i in range(2 * L)]
        tgt = mp.mpf(target) if not hasattr(target, "_mpf_") else +target

        def count_below(sigma):
            cnt = 0
            d = diag[0] - sigma
            if d < 0:
                cnt += 1
            tiny = mp.mpf(10) ** (-(dps * 4))
            for i in range(1, 2 * L + 1):
                denom = d if d != 0 else tiny
                d = (diag[i] - sigma) - off2[i - 1] / denom
                if d < 0:
                    cnt += 1
            return cnt

        floor = mp.mpf(10) ** spectral.STURM_FLOOR_EXP

        def hits(delta) -> bool:
            return count_below(tgt + delta) - count_below(tgt - delta) > 0

        hi = mp.mpf(1)
        if not hits(hi):
            while not hits(hi):
                hi *= 2
            lo = hi / 2
        elif hits(floor):
            return float(floor), False
        else:
            lo = floor
        for _ in range(dps):
            mid = mp.sqrt(lo * hi)
            if hits(mid):
                hi = mid
            else:
                lo = mid
            if hi / lo < mp.mpf("1.01"):
                break
        for _ in range(60):
            mid = (lo + hi) / 2
            if hits(mid):
                hi = mid
            else:
                lo = mid
        return float(hi), True


def test_sturm_oracle_matches_the_mpmath_recurrence():
    mp = pytest.importorskip("mpmath")
    # criterion 5: simple walk, geometric sparse potential, +-2/sqrt(3)
    k = sw.simple1d()
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=2048)
    with localcontext(Context(prec=60)):
        lam_plus = Decimal(2) / Decimal(3).sqrt()
        targets = (lam_plus, -lam_plus)
    with mp.workdps(60):
        mp_targets = (2 / mp.sqrt(3), -2 / mp.sqrt(3))
    for target, mp_target in zip(targets, mp_targets):
        for L in (256, 512, 1024):
            got = sw.truncated_spectrum_distance_1d(k, spec, L, target)
            assert got == _mpmath_distance(k, spec, L, mp_target), (target, L)
    # seeded battery: lazy walks, every potential family, float targets
    rng = np.random.default_rng(20261)
    for _ in range(8):
        q, v = float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.2, 2.0))
        spec = (
            None,
            sw.single_delta(1, v),
            sw.build_geometric_sparse(1, v, 3, box_radius=2048),
            sw.build_geometric_sparse(1, v, 3, box_radius=2048, anchor=((0,), v + 1.0)),
        )[int(rng.integers(4))]
        L, target = int(rng.integers(16, 65)), float(rng.uniform(-2.5, 3.5))
        k = sw.lazy1d(q)
        got = sw.truncated_spectrum_distance_1d(k, spec, L, target)
        assert got == _mpmath_distance(k, spec, L, target), (q, spec, L, target)


def test_sturm_oracle_matches_the_mpmath_recurrence_at_larger_l():
    pytest.importorskip("mpmath")
    # the battery above stops at L = 64: a target inside the bulk, with
    # eigenvalues on both sides, and one more than 1 above the spectrum in
    # [-2, 2], where the search widens first
    spec = sw.build_geometric_sparse(1, 1.0, 3, box_radius=2048)
    for k, L, target in ((sw.simple1d(), 128, 0.3), (sw.lazy1d(0.3), 160, 3.5)):
        got = sw.truncated_spectrum_distance_1d(k, spec, L, target)
        assert got == _mpmath_distance(k, spec, L, target), (L, target)


def test_lambda_pm_1d_rejects_nonpositive_v():
    for v in (0.0, -1.0):
        with pytest.raises(LevelNotPositive) as info:
            sw.lambda_pm_1d(0.25, v)
        assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def _old_residual(op, value, phi):
    """The eigen residual as _make_pair, spectral_report and doob_kernel each wrote it."""
    return float(np.linalg.norm(op.apply_M(phi) - value * phi) / np.linalg.norm(phi))


def test_residual_matches_the_old_make_pair_expression():
    kernel = sw.simple2d()
    spec = sw.build_geometric_sparse(2, 0.5, 3, box_radius=10, anchor=((1, -1), 1.6))
    op = sw.truncated_operator(kernel, spec, 10)
    sol = sw.eigensolve_top(op, 3)
    for pair in sol.by_value + sol.by_abs:
        assert pair.residual == _old_residual(op, pair.value, pair.phi)
        assert op.residual(pair.value, pair.phi) == pair.residual
    r, phi = sw.perron_pair(op)
    assert op.residual(r, phi) == _old_residual(op, r, phi)
    pairs = spectral.discrete_pairs(op, -1.0, 1.0)[1]
    assert pairs and all(p.residual == _old_residual(op, p.value, p.phi) for p in pairs)
