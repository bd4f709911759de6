import itertools

import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk.lattice import char_on_grid
from sparsewalk.errors import (
    BoxTooSmall,
    EmptySupport,
    NotIrreducible,
    NotNormalized,
    NotSymmetric,
    ThetaNotOnSpectrum,
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
    assert sw.spectrum_bounds(sw.simple1d()).lower == pytest.approx(-1.0, abs=1e-12)
    assert sw.spectrum_bounds(sw.lazy1d(0.25)).lower == pytest.approx(-0.5, abs=1e-12)
    assert sw.spectrum_bounds(sw.simple2d()).lower == pytest.approx(-1.0, abs=1e-12)
    interval = sw.spectrum_bounds(sw.lazy1d(0.7))
    assert interval.lower == pytest.approx(0.4, abs=1e-12)
    assert interval.lower >= 2 * 0.7 - 1 - 1e-12


def test_spectrum_bounds_off_grid_minimizer():
    # oracle: p-hat = 0.6 cos t + 0.4 cos 2t has its minimum at
    # cos t = -0.375 (an irrational angle), value -0.5125 exactly
    k = sw.validate_kernel({1: 0.3, -1: 0.3, 2: 0.2, -2: 0.2})
    assert sw.spectrum_bounds(k, 256).lower == pytest.approx(-0.5125, abs=1e-10)
    # 2d kernel mixing axis and diagonal moves; fine-grid oracle value -0.4
    k2 = sw.validate_kernel(
        {
            (1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.15, (0, -1): 0.15,
            (1, 1): 0.1, (-1, -1): 0.1, (1, -1): 0.1, (-1, 1): 0.1,
        }
    )
    assert sw.spectrum_bounds(k2, 128).lower == pytest.approx(-0.4, abs=1e-9)


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


def test_weyl_theta_mismatch():
    with pytest.raises(ThetaNotOnSpectrum):
        sw.weyl_sequence_residual(sw.simple1d(), 0.0, 10, lam=0.5)


def test_box_indexing_roundtrip():
    box = sw.LatticeBox.cube(3, 2)
    sites = box.sites()
    for i in range(box.volume):
        assert box.index(tuple(sites[i])) == i
    assert not box.contains((4, 0))
