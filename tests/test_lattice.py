import itertools
import tracemalloc

import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk import lattice
from sparsewalk.lattice import char_on_grid
from sparsewalk.errors import (
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
    SparseWalkError,
    WaveRadiusTooSmall,
)


def test_validate_simple_walk():
    k = sw.validate_kernel({0: 0.0, 1: 0.5, -1: 0.5})
    assert k.dimension == 1
    assert k.reach == 1
    assert k.prob(1) == 0.5
    assert k.p0 == 0.0


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sw.validate_kernel({1: 0.6, -1: 0.4})


def test_validate_rejects_even_support():
    # oracle: sums of {+-2} reach only even sites, so Q(0,4) is not covered
    with pytest.raises(NotIrreducible):
        sw.validate_kernel({2: 0.5, -2: 0.5})


def _uniform(moves, hold=0.0):
    """The symmetric kernel spreading 1 - hold evenly over +-moves, hold at 0."""
    support = {tuple(m) for m in moves} | {tuple(-c for c in m) for m in moves}
    raw = {o: (1.0 - hold) / len(support) for o in support}
    if hold:
        raw[(0,) * len(moves[0])] = hold
    return raw


#: supports that generate a proper subgroup of Z^d
SUBLATTICES = {
    "index 2 in 2d": _uniform([(1, 1), (1, -1)]),
    "rank 1 in 2d": _uniform([(1, 0), (2, 0)]),
    "3d even-sum lattice with holding": _uniform(
        [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)], hold=0.2
    ),
}


@pytest.mark.parametrize("name", sorted(SUBLATTICES))
def test_validate_rejects_a_proper_sublattice(name):
    with pytest.raises(NotIrreducible, match="proper subgroup"):
        sw.validate_kernel(SUBLATTICES[name])


@pytest.mark.parametrize(
    "moves, reach",
    [([(3, 5), (5, 8)], 8), ([(5,), (7,)], 7)],
    ids=["unimodular pair in 2d", "coprime pair in 1d"],
)
def test_validate_accepts_long_generators(moves, reach):
    # oracle: det((3, 5), (5, 8)) = -1 and 3 * 5 - 2 * 7 = 1
    k = sw.validate_kernel(_uniform(moves))
    assert k.reach == reach
    assert k.lower == pytest.approx(-1.0, abs=1e-12)


def _proxy_irreducible(support, dim):
    """The BFS proxy validate_kernel used before the exact test.

    Sums of support offsets started at 0 must cover Q(0, 2r) while roaming
    inside Q(0, 4r).  The set of reached sites is grown one whole frontier
    at a time on a boolean cube, so a battery of a few hundred supports
    stays well under a second.
    """
    reach = max(max(map(abs, off)) for off in support)
    cover, roam = 2 * reach, 4 * reach
    side = 2 * roam + 1
    seen = np.zeros((side,) * dim, dtype=bool)
    seen[(roam,) * dim] = True
    while True:
        grown = seen.copy()
        for off in support:
            dst = tuple(slice(max(o, 0), side + min(o, 0)) for o in off)
            src = tuple(slice(max(-o, 0), side - max(o, 0)) for o in off)
            grown[dst] |= seen[src]
        if (grown == seen).all():
            return bool(seen[(slice(roam - cover, roam + cover + 1),) * dim].all())
        seen = grown


def _random_supports(seed):
    """100 symmetric supports each in 1d, 2d (range <= 4) and 3d (range <= 2).

    One to d + 1 random generator pairs, and holding in about 30%.
    """
    rng = np.random.default_rng(seed)
    for d, cap in ((1, 4), (2, 4), (3, 2)):
        count = 0
        while count < 100:
            r = int(rng.integers(1, cap + 1))
            gens = rng.integers(-r, r + 1, size=(int(rng.integers(1, d + 2)), d))
            gens = [tuple(int(c) for c in g) for g in gens if g.any()]
            if gens:
                count += 1
                yield d, gens, float(rng.random() < 0.3) * 0.25


def test_exact_irreducibility_agrees_with_the_bfs_proxy(monkeypatch):
    # only the verdict is compared: skip min p-hat, whose 3d full grid is slow
    monkeypatch.setattr(lattice, "_char_lower", lambda *args: 0.0)
    verdicts = []
    for d, gens, hold in _random_supports(2020):
        raw = _uniform(gens, hold)
        try:
            sw.validate_kernel(raw, d)
            accepted = True
        except NotIrreducible:
            accepted = False
        assert accepted == _proxy_irreducible(list(raw), d), (d, gens)
        verdicts.append(accepted)
    assert 50 < sum(verdicts) < 250  # both verdicts are well represented


def test_validate_rejects_bad_mass():
    with pytest.raises(NotNormalized):
        sw.validate_kernel({1: 0.5, -1: 0.5001})
    with pytest.raises(NotNormalized):
        sw.validate_kernel({1: -0.5, -1: -0.5})
    with pytest.raises(EmptySupport):
        sw.validate_kernel({})
    with pytest.raises(EmptySupport):
        sw.validate_kernel({0: 0.0})


def test_char_function_landmarks():
    k = sw.simple1d()
    assert sw.char_function(k, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert sw.char_function(k, np.pi) == pytest.approx(-1.0, abs=1e-15)
    q = 0.3
    lazy = sw.lazy1d(q)
    # oracle: q + (1 - q) cos(pi) = 2q - 1
    assert sw.char_function(lazy, np.pi) == pytest.approx(2 * q - 1, abs=1e-15)


def test_char_function_bounds_property():
    rng = np.random.default_rng(11)
    for k in (sw.simple1d(), sw.lazy1d(0.35), sw.simple2d()):
        thetas = rng.uniform(-np.pi, np.pi, size=(64, k.dimension))
        vals = sw.char_function(k, thetas)
        assert np.all(np.abs(vals) <= 1.0 + 1e-15)
        assert sw.char_function(k, np.zeros(k.dimension)) == pytest.approx(1.0)


def test_char_on_grid_is_read_only():
    # the cached grid is shared by every caller
    grid = char_on_grid(sw.simple2d(), 64)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0
    theta = -np.pi + (np.arange(64) + 0.5) * (2.0 * np.pi / 64)
    mesh = np.stack(np.meshgrid(theta, theta, indexing="ij"), axis=-1)
    assert np.allclose(grid, sw.char_function(sw.simple2d(), mesh).ravel(), atol=1e-14)


def test_spectrum_bounds():
    assert sw.simple1d().lower == pytest.approx(-1.0, abs=1e-12)
    assert sw.lazy1d(0.25).lower == pytest.approx(-0.5, abs=1e-12)
    assert sw.simple2d().lower == pytest.approx(-1.0, abs=1e-12)
    lazy = sw.lazy1d(0.7)
    assert lazy.lower == pytest.approx(0.4, abs=1e-12)
    assert lazy.lower >= 2 * 0.7 - 1 - 1e-12


def test_spectrum_bounds_off_grid_minimizer():
    # oracle: p-hat = 0.6 cos t + 0.4 cos 2t has its minimum at
    # cos t = -0.375 (an irrational angle), value -0.5125 exactly
    k = sw.validate_kernel({1: 0.3, -1: 0.3, 2: 0.2, -2: 0.2})
    assert k.lower == pytest.approx(-0.5125, abs=1e-10)
    # 2d kernel mixing axis and diagonal moves; fine-grid oracle value -0.4
    k2 = sw.validate_kernel(
        {
            (1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15,
            (1, 1): 0.1, (-1, -1): 0.1, (1, -1): 0.1, (-1, 1): 0.1,
        }
    )
    assert k2.lower == pytest.approx(-0.4, abs=1e-9)


def _meshgrid_lower(kernel, grid_density, sweeps=3):
    """min p-hat by the scan validate_kernel used before the shared p-hat grid.

    Left-endpoint grid built by meshgrid, argmin, coordinate golden-section
    sweeps, then the 2 p0 - 1 clamp.  sweeps=3 is the deleted scan;
    sweeps=None repeats sweeps until one gains no more than 1e-15.
    """
    offsets, probs = kernel.offset_array(), kernel.prob_array()

    def phat(theta):
        return np.cos(theta @ offsets.T) @ probs

    d = kernel.dimension
    axis = np.linspace(-np.pi, np.pi, grid_density, endpoint=False)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    theta_pts = np.stack([g.ravel() for g in grids], axis=-1)
    theta = theta_pts[int(np.argmin(phat(theta_pts)))].astype(float)
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    span = 2 * np.pi / grid_density
    value = phat(theta[None, :])[0]
    for sweep in range(1000):
        for ax in range(d):
            lo, hi = theta[ax] - span, theta[ax] + span
            c, dd = hi - gr * (hi - lo), lo + gr * (hi - lo)
            for _ in range(80):
                tc, td = theta.copy(), theta.copy()
                tc[ax], td[ax] = c, dd
                if phat(tc[None, :])[0] < phat(td[None, :])[0]:
                    hi = dd
                else:
                    lo = c
                c, dd = hi - gr * (hi - lo), lo + gr * (hi - lo)
            theta[ax] = 0.5 * (lo + hi)
        new = phat(theta[None, :])[0]
        gain, value = value - new, new
        if sweep + 1 == sweeps or (sweeps is None and sweep >= 2 and gain <= 1e-15):
            break
    return max(float(value), 2.0 * kernel.p0 - 1.0)


def _seeded_kernel(seed, moves):
    """Random symmetric kernel on the origin and +-each of the given moves."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=len(moves) + 1)
    w /= w[0] + 2.0 * w[1:].sum()
    raw = {(0,) * len(moves[0]): w[0]}
    for m, p in zip(moves, w[1:]):
        raw[m] = raw[tuple(-c for c in m)] = p
    return sw.validate_kernel(raw)


def _lazy3d(q):
    raw = {(0, 0, 0): q}
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        raw[e] = raw[tuple(-c for c in e)] = (1.0 - q) / 6.0
    return sw.validate_kernel(raw)


def _random1d(trial):
    """The kernel of trial ``trial`` of test_properties.test_cross_module_identities."""
    from test_properties import _random_kernel

    return _random_kernel(np.random.default_rng(911 + trial))


DIAGONAL_2D = [(1, 0), (0, 1), (1, 1), (1, -1)]
FACE_3D = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
]
#: name -> (kernel factory, reference grid); the 3d references scan at 64,
#: since the 256^3 meshgrid takes about 5 s and 2.7 GB
LOWER_BATTERY = {
    **{f"random1d-{t}": (lambda t=t: _random1d(t), 256) for t in range(6)},
    **{f"diagonal2d-{s}": (lambda s=s: _seeded_kernel(s, DIAGONAL_2D), 256) for s in (3, 4, 5)},
    "lazy3d-0.17": (lambda: _lazy3d(0.17), 64),
    "face3d-7": (lambda: _seeded_kernel(7, FACE_3D), 64),
}


@pytest.mark.parametrize("name", list(LOWER_BATTERY))
def test_lower_matches_meshgrid_reference(name):
    make, grid = LOWER_BATTERY[name]
    k = make()
    # every polished value is p-hat somewhere, so an upper bound of min p-hat:
    # the one scan never stops above the deleted one, and it agrees with the
    # deleted one run until its sweeps stop paying
    assert k.lower <= _meshgrid_lower(k, grid) + 1e-12
    assert abs(k.lower - _meshgrid_lower(k, grid, sweeps=None)) <= 1e-12


#: range 1 on one axis only: the last, the first and the middle one
MIXED_2D = [(1, 0), (2, 1), (0, 1), (3, -1)]
FIRST_AXIS_2D = [(1, 0), (0, 2), (1, 3), (0, 1)]
MIXED_3D = [(1, 0, 0), (0, 2, 1), (2, 1, 1), (0, 0, 1)]
MIDDLE_AXIS_3D = [(2, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)]
#: name -> (kernel factory, grid of the full-grid start)
FIBRE_LOWER = {
    **{f"diagonal2d-{s}": (lambda s=s: _seeded_kernel(s, DIAGONAL_2D), 256) for s in (3, 4, 5)},
    "mixed2d-11": (lambda: _seeded_kernel(11, MIXED_2D), 256),
    "first2d-17": (lambda: _seeded_kernel(17, FIRST_AXIS_2D), 256),
    "lazy3d-0.17": (lambda: _lazy3d(0.17), 64),
    "face3d-7": (lambda: _seeded_kernel(7, FACE_3D), 64),
    "mixed3d-13": (lambda: _seeded_kernel(13, MIXED_3D), 64),
    "middle3d-19": (lambda: _seeded_kernel(19, MIDDLE_AXIS_3D), 64),
}


@pytest.mark.parametrize("name", list(FIBRE_LOWER))
def test_fibre_start_matches_full_grid_start(monkeypatch, name):
    make, grid = FIBRE_LOWER[name]
    k = make()
    offsets, probs = k.offset_array(), k.prob_array()
    assert lattice._fibre_axis(offsets) is not None
    # the same polish from the argmin of the full grid
    monkeypatch.setattr(lattice, "_fibre_axis", lambda offsets: None)
    full = max(lattice._char_lower(offsets, probs, grid), 2.0 * k.p0 - 1.0)
    assert abs(k.lower - full) <= 1e-14


#: the grid argmin, cell (0, 255), sits beside the saddle at (pi, pi)
SADDLE_2D = {(0, 0): 0.13245605167956526}
for _off, _p in (
    ((1, 0), 0.13725633299288578),
    ((1, 1), 0.06215126163449404),
    ((2, 1), 0.13903615845314515),
    ((2, 3), 0.07380970347817357),
    ((2, -2), 0.021518517601518863),
):
    SADDLE_2D[_off] = SADDLE_2D[tuple(-c for c in _off)] = _p


def test_lower_is_not_stopped_by_a_saddle():
    k = sw.validate_kernel(SADDLE_2D)
    # p-hat takes this value, so min p-hat is no higher; the golden-section
    # polish stalled 1.8e-5 above it, and plain Newton stops on the saddle
    # at (pi, pi), -0.40040878
    assert k.lower <= sw.char_function(k, (-3.0648, 3.0546))
    # Newton from the brute-force grid point
    assert abs(k.lower - (-0.4004278632568614)) <= 1e-14


def _golden_lower(offsets, probs, grid_density):
    """min p-hat by the polish _char_lower used before one descent.

    The same start, three golden-section coordinate sweeps of 80 steps
    within one grid cell per axis, then plain Newton; no 2 p0 - 1 clamp.
    """
    axis = lattice._fibre_axis(offsets)
    grid = lattice._grid_phase((1,), grid_density).ravel()
    if axis is None:
        vals = lattice._char_grid(offsets, probs, grid_density)
        theta = grid[np.array(np.unravel_index(int(np.argmin(vals)), vals.shape))]
    else:
        alpha, R, argz = lattice._fibre_parts(offsets, probs, axis, grid_density)
        i = int(np.argmin(alpha - R))
        cell = np.unravel_index(i, (grid_density,) * (offsets.shape[1] - 1))
        theta = np.insert(grid[list(cell)], axis, np.pi - argz[i])

    def along(ax, t):
        trial = theta.copy()
        trial[ax] = t
        return lattice._char_eval(offsets, probs, trial[None, :])[0]

    gr = (np.sqrt(5.0) - 1.0) / 2.0
    span = 2 * np.pi / grid_density
    for _ in range(3):
        for ax in range(len(theta)):
            lo, hi = theta[ax] - span, theta[ax] + span
            c, dd = hi - gr * (hi - lo), lo + gr * (hi - lo)
            for _ in range(80):
                if along(ax, c) < along(ax, dd):
                    hi = dd
                else:
                    lo = c
                c, dd = hi - gr * (hi - lo), lo + gr * (hi - lo)
            theta[ax] = 0.5 * (lo + hi)
    value = lattice._char_eval(offsets, probs, theta[None, :])[0]
    for _ in range(20):
        cos, sin = probs * np.cos(offsets @ theta), probs * np.sin(offsets @ theta)
        trial = theta - np.linalg.lstsq((offsets.T * cos) @ offsets, sin @ offsets, rcond=None)[0]
        trial_value = lattice._char_eval(offsets, probs, trial[None, :])[0]
        if not trial_value < value - 1e-15:
            break
        theta, value = trial, trial_value
    return float(value)


def _fine_min(offsets, probs, pts):
    """min p-hat over the midpoint grid of [-pi, pi]^d, d <= 2, pts per axis.

    In 2d p-hat = Re sum_y p(y) e^(i y_0 theta_0) e^(i y_1 theta_1), one
    complex matrix product over the support.
    """
    axis = -np.pi + (np.arange(pts) + 0.5) * (2 * np.pi / pts)
    first = probs * np.exp(1j * np.outer(axis, offsets[:, 0]))
    if offsets.shape[1] == 1:
        return float(first.sum(axis=1).real.min())
    return float((first @ np.exp(1j * np.outer(offsets[:, 1], axis))).real.min())


def _random_support(seed, d):
    """Offsets and probabilities of a random symmetric kernel on Z^d.

    Unit moves, so the walk is irreducible, plus two to four random moves of
    sup-norm at most 1-3.  Not validated: in 3d without a range-1 axis
    ``validate_kernel`` scans a 256^3 grid.
    """
    rng = np.random.default_rng(seed)
    reach = int(rng.integers(1, 4))
    moves = [tuple(e) for e in np.eye(d, dtype=int)]
    for _ in range(int(rng.integers(2, 5))):
        m = tuple(int(c) for c in rng.integers(-reach, reach + 1, size=d))
        if any(m) and m not in moves and tuple(-c for c in m) not in moves:
            moves.append(m)
    w = rng.uniform(0.02, 1.0, size=len(moves) + 1)
    w[0] *= rng.random() < 0.6  # no holding at all in about 40% of kernels
    w /= w[0] + 2.0 * w[1:].sum()
    raw = {(0,) * d: w[0]}
    for m, p in zip(moves, w[1:]):
        raw[m] = raw[tuple(-c for c in m)] = p
    order = sorted(o for o in raw if raw[o] > 0)
    return np.array(order), np.array([raw[o] for o in order])


#: dimension -> (start grid, fine grid or None); 3d starts at 64, since
#: without a range-1 axis the 256^3 start grid takes 134 MB
DESCENT_GRIDS = {1: (256, 1 << 16), 2: (256, 1024), 3: (64, None)}


@pytest.mark.parametrize("d", sorted(DESCENT_GRIDS))
def test_descent_never_above_the_golden_polish_or_a_fine_grid(d):
    start, fine = DESCENT_GRIDS[d]
    starts = set()
    for seed in range(20):
        offsets, probs = _random_support(1900 + 100 * d + seed, d)
        starts.add(lattice._fibre_axis(offsets) is None)
        lower = lattice._char_lower(offsets, probs, start)
        assert lower <= _golden_lower(offsets, probs, start) + 1e-15
        if fine is not None:
            assert lower <= _fine_min(offsets, probs, fine) + 1e-15
    # in 2d and 3d both the fibre start and the full-grid start are tried
    assert len(starts) == (1 if d == 1 else 2)


@pytest.mark.parametrize(
    "make",
    [sw.simple1d, lambda: sw.lazy1d(0.25), sw.simple2d, lambda: _lazy3d(0.17)],
    ids=["simple1d", "lazy1d(0.25)", "simple2d", "lazy3d(0.17)"],
)
def test_validation_takes_few_phat_evaluations(monkeypatch, make):
    calls = []
    evaluate = lattice._char_eval

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(lattice, "_char_eval", counted)
    make()
    # the golden-section sweeps took 482 (1d) to 1442 (3d)
    assert len(calls) <= 40


def test_validate_3d_scans_no_full_grid():
    # a 256^3 p-hat grid alone is 134 MB; the fibre grid of the other two
    # axes is 256^2
    raw = {(0, 0, 0): 0.17}
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        raw[e] = raw[tuple(-c for c in e)] = (1.0 - 0.17) / 6.0
    tracemalloc.start()
    try:
        k = sw.validate_kernel(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k.lower == pytest.approx(2 * 0.17 - 1.0, abs=1e-12)
    assert peak < 8 * 2**20


def test_lazy1d_rejects_q_outside_unit_interval():
    for q in (-0.1, 1.0):
        with pytest.raises(LazinessOutOfRange) as info:
            sw.lazy1d(q)
        assert isinstance(info.value, ValueError)
    with pytest.raises(LazinessOutOfRange):
        sw.g_lambda_closed_1d(1.0, 2.0)
    with pytest.raises(LazinessOutOfRange):
        sw.lambda_pm_1d(-0.1, 1.0)


def test_apply_P_delta_and_constants():
    k = sw.simple1d()
    box = sw.LatticeBox.cube(10, 1)
    f = np.zeros(box.shape)
    f[box.index((0,))] = 1.0
    out = sw.apply_P(k, f, box)
    assert out[box.index((1,))] == pytest.approx(0.5)
    assert out[box.index((-1,))] == pytest.approx(0.5)
    assert out[box.index((0,))] == 0.0
    ones = np.ones(box.shape)
    out = sw.apply_P(k, ones, box)
    interior = [box.index((x,)) for x in range(-9, 10)]
    assert np.allclose(out[interior], 1.0)
    assert np.all(out >= 0.0)


def test_apply_P_plane_wave_eigenrelation():
    # oracle: pointwise check of (P e_theta)(x) = p-hat(theta) e_theta(x)
    k = sw.simple2d()
    box = sw.LatticeBox.cube(8, 2)
    theta = np.array([0.7, -1.2])
    sites = box.sites()
    wave = np.exp(1j * sites @ theta).reshape(box.shape)
    out = sw.apply_P(k, wave, box)
    phat = sw.char_function(k, theta)
    inner = np.max(np.abs(sites), axis=1) <= 8 - 1
    diff = (out - phat * wave).ravel()[inner]
    assert np.max(np.abs(diff)) < 1e-12


def test_apply_P_box_too_small():
    with pytest.raises(BoxTooSmall):
        sw.apply_P(sw.simple1d(), np.ones(3), sw.LatticeBox.cube(1, 1))


def test_apply_P_shape_mismatch_is_named():
    with pytest.raises(ShapeMismatch) as info:
        sw.apply_P(sw.simple2d(), np.ones((9, 7)), sw.LatticeBox.cube(4, 2))
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_convolution_power_negative_steps_are_named():
    with pytest.raises(NegativeStepCount) as info:
        sw.convolution_power_at_zero(sw.simple1d(), -1)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def _return_by_loop(k, n):
    """Repeated convolution of a delta, one apply_P per step, no weights."""
    if n == 0:
        return 1.0
    box = sw.LatticeBox.cube(n * k.reach + k.reach + 1, k.dimension)
    f = np.zeros(box.shape)
    f[(box.radius,) * k.dimension] = 1.0
    for _ in range(n):
        f = sw.apply_P(k, f, box)
    return float(f[(box.radius,) * k.dimension])


@pytest.mark.parametrize(
    "raw",
    [
        {0: 0.1, 1: 0.2, -1: 0.2, 2: 0.15, -2: 0.15, 3: 0.1, -3: 0.1},
        {(1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15, (1, 1): 0.2, (-1, -1): 0.2},
        {(0, 0): 0.15, (1, 0): 0.1, (-1, 0): 0.1, (0, 1): 0.1, (0, -1): 0.1, (1, 1): 0.1,
         (-1, -1): 0.1, (2, -1): 0.05, (-2, 1): 0.05, (0, 2): 0.075, (0, -2): 0.075},
    ],
)
def test_convolution_power_is_the_plain_loop(raw):
    k = sw.validate_kernel(raw)
    for n in range(13):
        assert sw.convolution_power_at_zero(k, n) == _return_by_loop(k, n)


def test_convolution_power_examples():
    k = sw.simple1d()
    assert sw.convolution_power_at_zero(k, 0) == 1.0
    # oracle: enumerate the four two-step paths; (+1,-1) and (-1,+1) return
    paths = [p for p in itertools.product([1, -1], repeat=2) if sum(p) == 0]
    expected = len(paths) * 0.25
    assert sw.convolution_power_at_zero(k, 2) == pytest.approx(expected)
    assert sw.convolution_power_at_zero(k, 5) == 0.0


def test_convolution_power_matches_matrix_power():
    k = sw.lazy1d(0.25)
    n = 6
    op = sw.truncated_operator(k, None, max(n * k.reach, 4))
    mat = np.linalg.matrix_power(op.matrix, n)
    origin = op.box.origin_index()
    assert sw.convolution_power_at_zero(k, n) == pytest.approx(
        mat[origin, origin], abs=1e-14
    )


def test_weyl_residual_basics():
    k = sw.simple1d()
    res = [sw.weyl_sequence_residual(k, 0.0, n) for n in (10, 25, 50, 100, 200)]
    assert all(r > 0.0 for r in res)
    assert all(a > b for a, b in zip(res, res[1:]))
    slope, _ = sw.weyl_scaling_fit(k, 0.0, (10, 25, 50, 100, 200))
    assert -0.65 <= slope <= -0.35


def test_weyl_residual_2d_exponent():
    slope, _ = sw.weyl_scaling_fit(sw.simple2d(), (0.0, 0.0), (10, 20, 40))
    assert -0.6 <= slope <= -0.4


def test_cube_rejects_a_negative_radius():
    with pytest.raises(NegativeRadius) as info:
        sw.LatticeBox.cube(-2, 1)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)
    assert sw.LatticeBox.cube(0, 2).volume == 1


def test_box_indexing_roundtrip():
    box = sw.LatticeBox.cube(3, 2)
    sites = box.sites()
    for i in range(box.volume):
        assert box.index(tuple(sites[i])) == i
    assert not box.contains((4, 0))


def _old_index(box, site):
    """The row-major index loop LatticeBox.index ran before ``flat``."""
    idx = 0
    for s, c in zip(site, box.center):
        idx = idx * box.side + (s - c + box.radius)
    return idx


def _old_neighbour_table(kernel, sites, radius):
    """The band builder on the sites of Q(0, radius) that ``_neighbour_table`` replaced."""
    weights = (2 * radius + 1) ** np.arange(kernel.dimension - 1, -1, -1)
    shifted = sites[:, None, :] + kernel.offset_array()[None, :, :]
    inside = np.all(np.abs(shifted) <= radius, axis=2)
    cols = np.where(inside, (shifted + radius) @ weights, 0)
    probs = np.where(inside, kernel.prob_array()[None, :], 0.0)
    return cols, probs


def _old_dense_P(kernel, sites, radius):
    """The former ``lattice._dense_P``: dense P on the sites of Q(0, radius)."""
    cols, probs = _old_neighbour_table(kernel, sites, radius)
    rows, ks = np.nonzero(probs)
    P0 = np.zeros((len(sites), len(sites)))
    P0[rows, cols[rows, ks]] = probs[rows, ks]
    return P0


CENTRED_BOXES = [((0,), 5), ((3,), 4), ((0, 0), 3), ((2, -1), 4), ((-1, 2, 1), 2)]
#: a 2d kernel with diagonal moves, and a lazy 3d walk, for the band checks
DIAG2D = {(1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15, (1, 1): 0.2, (-1, -1): 0.2}
LAZY3D = {(0, 0, 0): 0.4, (1, 0, 0): 0.1, (-1, 0, 0): 0.1, (0, 1, 0): 0.1, (0, -1, 0): 0.1,
          (0, 0, 1): 0.1, (0, 0, -1): 0.1}


@pytest.mark.parametrize("center, radius", CENTRED_BOXES)
def test_flat_and_index_match_the_old_index_loop(center, radius):
    box = sw.LatticeBox.cube(radius, len(center), center=center)
    sites = box.sites()
    old = [_old_index(box, tuple(int(c) for c in s)) for s in sites]
    assert old == list(range(box.volume))
    assert box.flat(sites).tolist() == old
    assert [box.index(tuple(s)) for s in sites.tolist()] == old
    assert box.origin_index() == _old_index(box, box.center)
    # an (m, k, d) array keeps its leading axes
    assert box.flat(sites.reshape(-1, 1, len(center))).shape == (box.volume, 1)


@pytest.mark.parametrize("center, radius", CENTRED_BOXES)
def test_band_on_a_centred_box_matches_the_old_dense_P(center, radius):
    d = len(center)
    kernel = sw.lazy1d(0.3) if d == 1 else sw.validate_kernel(DIAG2D if d == 2 else LAZY3D)
    box = sw.LatticeBox.cube(radius, d, center=center)
    cols, probs = lattice._neighbour_table(kernel, box)
    old = _old_dense_P(kernel, box.sites() - box.center, radius)
    assert np.array_equal(lattice._band_dense(cols, probs), old)
    old_cols, old_probs = _old_neighbour_table(kernel, box.sites() - box.center, radius)
    assert np.array_equal(cols, old_cols) and np.array_equal(probs, old_probs)


def _old_apply_P(kernel, f):
    """The padded-array convolution that ``apply_P`` ran before ``_stencil``."""
    r = kernel.reach
    padded = np.zeros(tuple(s + 2 * r for s in f.shape), dtype=f.dtype)
    padded[tuple(slice(r, r + s) for s in f.shape)] = f
    out = np.zeros_like(f)
    for off, p in zip(kernel.offsets, kernel.probs):
        out += p * padded[tuple(slice(r - o, r - o + s) for o, s in zip(off, f.shape))]
    return out


@pytest.mark.parametrize("center, radius", CENTRED_BOXES)
def test_apply_P_on_a_centred_box_matches_the_old_padded_sum(center, radius):
    d = len(center)
    kernel = sw.lazy1d(0.3) if d == 1 else sw.validate_kernel(DIAG2D if d == 2 else LAZY3D)
    box = sw.LatticeBox.cube(radius, d, center=center)
    rng = np.random.default_rng(radius)
    f = rng.standard_normal(box.shape)
    assert np.array_equal(sw.apply_P(kernel, f, box), _old_apply_P(kernel, f))
    wave = np.exp(1j * box.sites() @ rng.standard_normal(d)).reshape(box.shape)
    assert np.array_equal(sw.apply_P(kernel, wave, box), _old_apply_P(kernel, wave))


def test_site_of_the_wrong_dimension_is_named():
    box = sw.LatticeBox.cube(3, 2)
    probes = (
        lambda: box.index((1,)),
        lambda: box.contains((1, 0, 0)),
        lambda: sw.simple1d().prob((1, 0)),
    )
    for probe in probes:
        with pytest.raises(DimensionMismatch) as info:
            probe()
        assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_char_function_of_the_wrong_dimension_is_named():
    with pytest.raises(DimensionMismatch) as info:
        sw.char_function(sw.simple2d(), np.zeros(3))
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("theta", [0.0, np.zeros(3), np.zeros((1, 2))], ids=["scalar", "3-vector", "1x2"])
def test_weyl_residual_of_the_wrong_dimension_is_named(theta):
    with pytest.raises(DimensionMismatch) as info:
        sw.weyl_sequence_residual(sw.simple2d(), theta, 5)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_weyl_residual_below_radius_one_is_named():
    with pytest.raises(WaveRadiusTooSmall) as info:
        sw.weyl_sequence_residual(sw.simple1d(), 0.0, 0)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def _delta_pair(L=8):
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), L)
    return sw.perron_pair(op)


#: every count and radius read through lattice._count: (call, an integer it
#: accepts, a value that is not an integer); the last eight take a box, a
#: radius or a horizon
K1, DELTA = sw.simple1d(), sw.single_delta(1, 1.0)
COUNT_CASES = {
    "fk_monte_carlo n": (lambda n: sw.fk_monte_carlo(K1, DELTA, None, n, 2000, seed=1), 5, 2.5),
    "fk_monte_carlo samples": (
        lambda m: sw.fk_monte_carlo(K1, DELTA, None, 5, m, seed=1), 2000, 2000.5
    ),
    "counter_rng seed": (lambda s: sw.counter_rng(s).random(3), 7, 2.5),
    "simulate_chain steps": (
        lambda t: sw.simulate_chain(sw.doob_kernel(K1, DELTA, _delta_pair(), 8), (0,), t, 1),
        50,
        3.5,
    ),
    "fk_semigroup n": (
        lambda n: sw.fk_semigroup(K1, DELTA, np.ones(21), n, sw.LatticeBox.cube(10, 1)), 4, 2.5
    ),
    "partition_growth N_max": (lambda n: sw.partition_growth(K1, DELTA, n).z_values, 6, 3.5),
    "convolution_power_at_zero n": (lambda n: sw.convolution_power_at_zero(K1, n), 6, 2.5),
    "eigensolve_top count": (
        lambda c: sw.eigensolve_top(sw.truncated_operator(K1, DELTA, 8), c).by_value[-1].value,
        2,
        2.5,
    ),
    "LatticeBox.cube radius": (lambda L: sw.LatticeBox.cube(L, 1), 8, 8.5),
    "truncated_operator L": (lambda L: sw.truncated_operator(K1, DELTA, L).dvec, 8, 8.5),
    "weyl_sequence_residual n": (lambda n: sw.weyl_sequence_residual(K1, 0.0, n), 2, 2.5),
    "spectral_report L": (
        lambda L: [rep.r for rep in sw.spectral_report(K1, DELTA, [20, L]).reports], 30, 30.5
    ),
    "assemble_bs box": (lambda b: sw.assemble_bs(K1, DELTA, 1.5, b).matrix, 16, 16.0),
    "resolvent_via_bs box": (lambda b: sw.resolvent_via_bs(K1, DELTA, 1.5, b)[0], 16, 16.0),
    "neumann_invertibility box": (
        lambda b: sw.neumann_invertibility(K1, DELTA, (), 1.5, 0.3, b).contraction, 16, 16.0
    ),
    "doob_kernel box": (lambda b: sw.doob_kernel(K1, DELTA, _delta_pair(), b).probs, 8, 8.0),
    "make_potential box_radius": (
        lambda b: sw.make_potential(1, {(3,): 1.0}, box_radius=b).box_radius, 8, 8.5
    ),
    "build_geometric_sparse box_radius": (
        lambda b: sw.build_geometric_sparse(1, 1.0, 3, box_radius=b).sites, 40, 40.5
    ),
    "sparseness_profile box_radius": (
        lambda b: sw.sparseness_profile(sw.build_geometric_sparse(1, 1.0, 3, 40), 0.5, b), 32, 32.0
    ),
    "convergence_rate n": (
        lambda n: sw.convergence_rate(
            K1, DELTA, sw.doob_kernel(K1, DELTA, _delta_pair(), 8), 1, [8, 9, n], lambda p: 1.0
        ).deviations,
        12,
        12.5,
    ),
}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_counts_and_radii_must_be_integers(name):
    call, good, bad = COUNT_CASES[name]
    with pytest.raises(CountNotInteger) as info:
        call(bad)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, TypeError)
    np.testing.assert_array_equal(call(np.int64(good)), call(good))


@pytest.mark.parametrize("flag", [True, False, np.True_])
@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_counts_and_radii_must_not_be_booleans(name, flag):
    # operator.index(True) is 1: a flag passed as a count must not run as one
    with pytest.raises(CountNotInteger):
        COUNT_CASES[name][0](flag)
