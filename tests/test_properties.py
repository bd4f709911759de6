"""Cross-module consistency on seeded random kernels and potentials.

Each trial draws a random range-2 symmetric kernel and a random compactly
supported potential, then checks the identities that tie the modules
together: Fourier vs path-counting resolvents, the diagonal/off-diagonal
split of the compressed matrix, the eigenvalue correspondence, and the
factorized resolvent against a dense inverse.
"""

import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk.spectral import truncated_operator


def _random_kernel(rng):
    while True:
        w = rng.uniform(0.05, 1.0, size=3)
        if rng.random() < 0.4:
            w[2] = 0.0
        if rng.random() < 0.4:
            w[0] = 0.0
        total = w[0] + 2 * w[1] + 2 * w[2]
        p0, p1, p2 = w / total
        try:
            return sw.validate_kernel({0: p0, 1: p1, -1: p1, 2: p2, -2: p2})
        except sw.SparseWalkError:
            continue


def _random_potential(rng):
    sites = rng.choice(np.arange(-30, 31), size=rng.integers(2, 6), replace=False)
    vals = {int(s): float(rng.uniform(0.2, 2.5)) for s in sites}
    return sw.make_potential(1, vals, tail="decaying", box_radius=64)


@pytest.mark.parametrize("trial", range(6))
def test_cross_module_identities(trial):
    rng = np.random.default_rng(911 + trial)
    k = _random_kernel(rng)
    spec = _random_potential(rng)

    lam = 1.0 + rng.uniform(0.08, 3.0)
    quad = sw.g_lambda_quadrature(k, lam, 1024).value
    series = sw.g_lambda_series(k, lam, tol=1e-11).value
    assert series == pytest.approx(quad, abs=1e-8)

    asm = sw.assemble_bs(k, spec, 1.0 + rng.uniform(0.08, 1.5), box=64)
    off_diag = asm.matrix - np.diag(np.diag(asm.matrix))
    split = asm.matrix - asm.gamma * np.diag(asm.support_values) - off_diag
    assert np.max(np.abs(split)) < 1e-12
    assert np.max(np.abs(asm.matrix - asm.matrix.T)) < 1e-12

    op = truncated_operator(k, spec, 60)
    top = float(np.linalg.eigvalsh(op.sym)[-1])
    if top > 1.05:
        crossing = sw.bs_crossing_scan(k, spec, 1.03, top + 2.0, box=60)
        assert crossing == pytest.approx(top, abs=5e-6)

    lam2 = top + rng.uniform(0.2, 1.0)
    R, resid = sw.resolvent_via_bs(k, spec, lam2, box=40)
    assert resid < 1e-6
    op40 = truncated_operator(k, spec, 40)
    direct = np.linalg.inv(lam2 * np.eye(op40.volume) - op40.matrix)
    interior = np.max(np.abs(op40.sites), axis=1) <= 18
    assert np.max(np.abs((R - direct)[np.ix_(interior, interior)])) < 1e-6
