import itertools
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

import sparsewalk as sw
from sparsewalk import acceptance, gibbs, lattice
from sparsewalk.errors import (
    EigenResidualTooLarge,
    HorizonTooShort,
    MarginalLengthInvalid,
    NegativeStepCount,
    NonPositivePhi,
    SeedOutOfRange,
    ShapeMismatch,
    SiteOutsideBox,
    SparseWalkError,
    StartOutsideBox,
    TooFewSamples,
)


def _anchor_chain(q=0.0, L=60):
    kernel = sw.lazy1d(q) if q else sw.simple1d()
    spec = sw.build_geometric_sparse(1, 1.0, 3, anchor=((0,), 2.0))
    op = sw.truncated_operator(kernel, spec, L)
    r, phi = sw.perron_pair(op, tol=1e-10)
    return kernel, spec, op, sw.doob_kernel(kernel, spec, (r, phi), op.box)


def _anchor_chain_2d(L=8):
    kernel = sw.simple2d()
    spec = sw.build_geometric_sparse(2, 0.5, 3, box_radius=L, anchor=((1, -1), 1.6))
    op = sw.truncated_operator(kernel, spec, L)
    r, phi = sw.perron_pair(op)
    return kernel, spec, op, sw.doob_kernel(kernel, spec, (r, phi), op.box)


CHAINS = {"1d": lambda: _anchor_chain(L=20), "2d": _anchor_chain_2d}


def _dense_doob(op, r, phi):
    """Dense Doob transform: normalized rows and the pre-normalization deficit."""
    rows = (op.matrix * phi[None, :]) / (r * phi[:, None])
    sums = rows.sum(axis=1)
    return rows / sums[:, None], float(np.max(np.abs(sums - 1.0)))


def _dense_path(chain, x0, steps, seed):
    """Path sampler on the dense cumulative table, one searchsorted per step."""
    cum = np.cumsum(chain.rows, axis=1)
    cum[:, -1] = 1.0
    uniforms = sw.counter_rng(seed).random(steps)
    path = np.empty(steps + 1, dtype=int)
    path[0] = cur = chain.index(x0)
    for i in range(steps):
        cur = int(np.searchsorted(cum[cur], uniforms[i], side="right"))
        path[i + 1] = cur
    return chain.sites[path]


@pytest.mark.parametrize("dim", sorted(CHAINS))
def test_doob_band_matches_dense_rows(dim):
    kernel, spec, op, _ = CHAINS[dim]()
    r, phi = sw.perron_pair(op)
    chain = sw.doob_kernel(kernel, spec, (r, phi), op.box)
    rows, deficit = _dense_doob(op, r, phi)
    assert np.all(np.abs(chain.rows - rows) <= 4 * np.spacing(rows))
    assert abs(chain.row_deficit - deficit) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("block", [1 << 16, gibbs.SIM_BLOCK, 777])
@pytest.mark.parametrize("seed", [3, 2024])
@pytest.mark.parametrize("dim", sorted(CHAINS))
def test_simulate_chain_matches_dense_sampler(dim, seed, block, monkeypatch):
    monkeypatch.setattr(gibbs, "SIM_BLOCK", block)
    _, _, _, chain = CHAINS[dim]()
    x0 = (0,) * chain.box.dim
    path = sw.simulate_chain(chain, x0, 10_000, seed)
    assert np.array_equal(path, _dense_path(chain, x0, 10_000, seed))


def _path_in_65536_blocks(chain, x0, steps, seed):
    """simulate_chain's loop as it was with 1 << 16 uniforms per block."""
    cum = np.cumsum(chain.probs, axis=1)
    cum[cum == cum[:, -1:]] = 1.0
    cum_rows, col_rows = cum.tolist(), chain.cols.tolist()
    rng = sw.counter_rng(seed)
    path = np.empty(steps + 1, dtype=int)
    cur = path[0] = chain.index(x0)
    for start in range(0, steps, 1 << 16):
        block = []
        for u in rng.random(min(1 << 16, steps - start)).tolist():
            cur = col_rows[cur][bisect_right(cum_rows[cur], u)]
            block.append(cur)
        path[start + 1 : start + 1 + len(block)] = block
    return chain.sites[path]


@pytest.mark.parametrize("dim", sorted(CHAINS))
def test_simulate_chain_path_does_not_depend_on_the_block(dim):
    # consecutive draws of the generator concatenate, so the block size only
    # bounds memory; 70 001 steps end mid-block for both sizes
    steps = 70_001
    assert steps > 1 << 16 and steps % (1 << 16) and steps % gibbs.SIM_BLOCK
    _, _, _, chain = CHAINS[dim]()
    x0 = (0,) * chain.box.dim
    path = sw.simulate_chain(chain, x0, steps, 12345)
    assert np.array_equal(path, _path_in_65536_blocks(chain, x0, steps, 12345))


@pytest.mark.parametrize(
    "build, dtype",
    [
        (lambda: _anchor_chain_2d(22), np.int8),
        (lambda: _anchor_chain(L=63), np.int8),
        (lambda: _anchor_chain(L=64), np.int16),
        (lambda: _anchor_chain(L=100), np.int16),
    ],
    ids=["2d-L22", "1d-L63", "1d-L64", "1d-L100"],
)
def test_simulate_chain_path_is_narrow_and_exact(build, dtype):
    _, _, _, chain = build()
    x0 = (0,) * chain.box.dim
    path = sw.simulate_chain(chain, x0, 20_000, 31)
    ref = _path_in_65536_blocks(chain, x0, 20_000, 31)
    assert path.dtype == dtype and ref.dtype == np.int64
    assert np.array_equal(path, ref)
    # every difference of two box sites fits, so diff, negation and abs never wrap
    info = np.iinfo(path.dtype)
    assert info.min < -2 * chain.box.radius and 2 * chain.box.radius <= info.max
    assert np.array_equal(np.diff(path, axis=0), np.diff(ref, axis=0))
    counts = np.bincount(chain.box.flat(ref), minlength=chain.box.volume)
    assert np.array_equal(sw.occupation_distribution(chain, path), counts / counts.sum())


def test_long_chain_costs_its_path_in_memory():
    # the int8 path of 1M steps is 2 MB; the old int64 path and its
    # temporaries came to about 40 MB
    _, _, _, chain = _anchor_chain_2d()
    steps = 1_000_000
    tracemalloc.start()
    try:
        path = sw.simulate_chain(chain, (0, 0), steps, 5)
        emp = sw.occupation_distribution(chain, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.nbytes == 2 * (steps + 1)
    assert emp.sum() == pytest.approx(1.0)
    assert peak < 6e6


@pytest.mark.parametrize(
    "build, path, error",
    [
        (lambda: _anchor_chain(L=8), [[0], [9]], SiteOutsideBox),
        (lambda: _anchor_chain_2d(4), [[0, 0], [0, 5]], SiteOutsideBox),
        (lambda: _anchor_chain_2d(4), [[0]] * 5, ShapeMismatch),
        (lambda: _anchor_chain(L=8), [[0]] * gibbs.SIM_BLOCK + [[-9]], SiteOutsideBox),
    ],
    ids=["1d-beyond-radius", "2d-wraps-to-next-row", "2d-rows-of-one", "1d-second-block"],
)
def test_occupation_distribution_rejects_paths_off_the_box(build, path, error):
    _, _, _, chain = build()
    with pytest.raises(error) as info:
        sw.occupation_distribution(chain, np.array(path))
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


class _TopUniforms:
    """Stands in for the generator: every uniform is the largest below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


@pytest.mark.parametrize("dim", sorted(CHAINS))
def test_simulate_chain_top_uniform_moves_to_neighbours(dim, monkeypatch):
    monkeypatch.setattr(gibbs, "counter_rng", lambda seed, stream=0: _TopUniforms())
    kernel, _, _, chain = CHAINS[dim]()
    path = sw.simulate_chain(chain, (0,) * chain.box.dim, 200, seed=1)
    assert {tuple(s) for s in np.diff(path, axis=0)} <= set(kernel.offsets)
    assert np.max(np.abs(path)) <= chain.box.radius


def test_doob_free_walk_h_transform():
    kernel = sw.simple1d()
    op = sw.truncated_operator(kernel, None, 20)
    sol = sw.eigensolve_top(op, count=1)
    pair = sol.by_value[0]
    chain = sw.doob_kernel(kernel, None, (pair.value, pair.phi), op.box)
    assert np.allclose(chain.rows.sum(axis=1), 1.0, atol=1e-14)
    # oracle: the ground-state transform of the killed walk moves to y = x +- 1
    # with probability proportional to phi(y)
    i = chain.index((0,))
    up, down = chain.index((1,)), chain.index((-1,))
    ratio = chain.rows[i, up] / chain.rows[i, down]
    assert ratio == pytest.approx(pair.phi[up] / pair.phi[down], rel=1e-10)


def test_doob_single_delta_drift_and_measure():
    kernel = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    op = sw.truncated_operator(kernel, spec, 60)
    r, phi = sw.perron_pair(op, tol=1e-10)
    chain = sw.doob_kernel(kernel, spec, (r, phi), op.box)
    m = chain.stationary
    idx = [chain.index((x,)) for x in range(1, 12)]
    ratios = m[idx][1:] / m[idx][:-1]
    # oracle: m ~ phi^2/(1+V) and phi ratio is 1/sqrt(3) away from the well
    assert np.allclose(ratios, 1.0 / 3.0, atol=1e-6)
    assert m[chain.index((0,))] == m.max()


def test_doob_detailed_balance_exact():
    _, _, _, chain = _anchor_chain()
    m = chain.stationary
    violation = np.max(np.abs(m[:, None] * chain.rows - m[None, :] * chain.rows.T))
    assert violation < 1e-12
    assert chain.row_deficit < 1e-6
    assert abs(m.sum() - 1.0) < 1e-12


def test_doob_rejects_bad_inputs():
    kernel = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    op = sw.truncated_operator(kernel, spec, 40)
    r, phi = sw.perron_pair(op, tol=1e-10)
    with pytest.raises(NonPositivePhi):
        sw.doob_kernel(kernel, spec, (r, phi - phi.max()), op.box)
    with pytest.raises(EigenResidualTooLarge):
        sw.doob_kernel(kernel, spec, (r + 0.01, phi), op.box)
    with pytest.raises(ShapeMismatch) as info:
        sw.doob_kernel(kernel, spec, (r, phi[:-1]), op.box)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_simulate_chain_contracts():
    _, _, _, chain = _anchor_chain()
    path = sw.simulate_chain(chain, (0,), 0, seed=1)
    assert path.shape == (1, 1)
    a = sw.simulate_chain(chain, (0,), 500, seed=42)
    b = sw.simulate_chain(chain, (0,), 500, seed=42)
    assert np.array_equal(a, b)
    c = sw.simulate_chain(chain, (0,), 500, seed=43)
    assert not np.array_equal(a, c)
    with pytest.raises(StartOutsideBox):
        sw.simulate_chain(chain, (1000,), 10, seed=1)
    with pytest.raises(NegativeStepCount):
        sw.simulate_chain(chain, (0,), -1, seed=1)


def test_simulate_chain_occupation_matches_stationary():
    _, _, _, chain = _anchor_chain(L=40)
    path = sw.simulate_chain(chain, (0,), 1_000_000, seed=7)
    emp = sw.occupation_distribution(chain, path)
    tv = 0.5 * np.abs(emp - chain.stationary).sum()
    assert tv < 0.01


def test_fk_semigroup_identity_and_paths():
    kernel = sw.simple1d()
    box = sw.LatticeBox.cube(8, 1)
    f = np.arange(box.volume, dtype=float).reshape(box.shape)
    assert np.array_equal(sw.fk_semigroup(kernel, None, f, 0, box), f)
    # oracle: two-step killed transition probabilities by path counting
    delta = np.zeros(box.shape)
    delta[box.index((0,))] = 1.0
    out = sw.fk_semigroup(kernel, None, delta, 2, box)
    paths = {}
    for s1, s2 in itertools.product((1, -1), repeat=2):
        end = s1 + s2
        paths[end] = paths.get(end, 0.0) + 0.25
    for end, prob in paths.items():
        assert out[box.index((end,))] == pytest.approx(prob)


def test_fk_semigroup_power_growth():
    kernel = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    box = sw.LatticeBox.cube(130, 1)
    ones = np.ones(box.shape)
    val = sw.fk_semigroup(kernel, spec, ones, 128, box)[box.index((0,))]
    rate = val ** (1.0 / 128)
    assert abs(rate - 2.0 / math.sqrt(3.0)) < 2e-2  # slow N-th-root convergence


def test_fk_semigroup_negative_steps_are_named():
    box = sw.LatticeBox.cube(4, 1)
    with pytest.raises(NegativeStepCount) as info:
        sw.fk_semigroup(sw.simple1d(), None, np.ones(box.shape), -1, box)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_fk_monte_carlo_weightless_is_exact():
    est, err = sw.fk_monte_carlo(sw.simple1d(), None, None, 10, 2000, seed=5)
    assert est == 1.0
    assert err == 0.0


def test_fk_monte_carlo_too_few_samples_is_named():
    with pytest.raises(TooFewSamples) as info:
        sw.fk_monte_carlo(sw.simple1d(), None, None, 10, gibbs.MIN_SAMPLES - 1, seed=5)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_fk_monte_carlo_reproducible_and_consistent():
    kernel = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    a = sw.fk_monte_carlo(kernel, spec, None, 20, 20_000, seed=11)
    b = sw.fk_monte_carlo(kernel, spec, None, 20, 20_000, seed=11)
    assert a == b
    box = sw.LatticeBox.cube(22, 1)
    exact = sw.fk_semigroup(kernel, spec, np.ones(box.shape), 20, box)[box.index((0,))]
    est, err = a
    assert abs(est - exact) <= 3.0 * err


def test_fk_monte_carlo_2d_end_sites_match_the_semigroup():
    # f reads the end site of each path, from a start off the origin
    kernel = sw.simple2d()
    spec = sw.build_geometric_sparse(2, 0.5, 3, box_radius=12, anchor=((1, -1), 1.6))
    n, x0 = 6, (1, -2)

    def f(sites):
        return np.exp(-0.3 * sites[:, 0]) * (sites[:, 1] >= -2)

    box = sw.LatticeBox.cube(n + 3, 2)
    exact = sw.fk_semigroup(kernel, spec, f(box.sites()).reshape(box.shape), n, box)
    est, err = sw.fk_monte_carlo(kernel, spec, f, n, 20_000, seed=3, x0=x0)
    assert 0.0 < err and abs(est - exact.ravel()[box.index(x0)]) <= 4.0 * err


def _fk_by_positions(kernel, spec, f, n, samples, seed, x0):
    """fk_monte_carlo as it ran on an (m, n + 1, d) array of path sites,
    with the steps drawn by ``searchsorted`` on the cumulative sums."""
    d = kernel.dimension
    offsets = kernel.offset_array()
    cum = np.cumsum(kernel.prob_array())
    cum[-1] = 1.0
    vbox = sw.LatticeBox.cube(max(n * kernel.reach + max(abs(c) for c in x0), 1), d)
    vgrid = gibbs._dvec_on(spec, vbox).ravel()
    weights_axis = vbox.side ** np.arange(d - 1, -1, -1)
    total = total_sq = 0.0
    for done in range(0, samples, gibbs.MC_CHUNK):
        m = min(gibbs.MC_CHUNK, samples - done)
        u = gibbs.counter_rng(seed, done // gibbs.MC_CHUNK).random((m, n))
        steps = np.cumsum(offsets[np.searchsorted(cum, u, side="right")], axis=1)
        pos = np.concatenate([np.broadcast_to(x0, (m, 1, d)), steps + np.asarray(x0)], axis=1)
        w = vgrid[(pos[:, :n, :] + vbox.radius) @ weights_axis].prod(axis=1)
        if f is not None:
            w = w * np.asarray(f(pos[:, n, :]), dtype=float)
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return mean, math.sqrt(var / samples)


def _geometric(d):
    return lambda: sw.build_geometric_sparse(
        d, 0.5, 3, box_radius=40, anchor=((1,) + (0,) * (d - 1), 1.6)
    )


def _uniform_square(r):
    """Uniform walk on the (2r + 1) x (2r + 1) square: (2r + 1)^2 offsets."""
    square = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]
    return sw.validate_kernel({x: 1.0 / len(square) for x in square})


#: heights in reach of 12 lazy steps from 0 whose products are not exact,
#: so a weight depends on the order its factors are multiplied in; they
#: spread the weights over many decades, so that the heaviest paths set the
#: last bits of the sums: at seed 11 a right-to-left or a pairwise product
#: moves the standard error
NON_DYADIC_1D = {-2: 0.3, -1: 10.0 / 3.0, 0: 70.0 / 3.0, 1: 110.0 / 7.0, 2: 4.5, 3: 2.0 / 7.0}

FK_CASES = {
    "lazy1d": (lambda: sw.lazy1d(0.25), _geometric(1), None, 12, (0,)),
    "lazy1d f from 2": (
        lambda: sw.lazy1d(0.25), _geometric(1), lambda x: (x[:, 0] % 3 == 0) + 0.5, 7, (2,)
    ),
    "lazy1d non-dyadic heights": (
        lambda: sw.lazy1d(0.25), lambda: sw.make_potential(1, NON_DYADIC_1D), None, 12, (0,)
    ),
    "simple2d": (sw.simple2d, _geometric(2), None, 12, (0, 0)),
    "simple2d f from (1, -2)": (
        sw.simple2d, _geometric(2), lambda x: np.exp(-0.1 * np.abs(x).sum(axis=1)), 9, (1, -2)
    ),
    "simple2d n 0": (sw.simple2d, _geometric(2), lambda x: x[:, 0] + 2.0, 0, (1, 1)),
    # 289 offsets: an index past 255 must not wrap
    "uniform17x17 n 4": (lambda: _uniform_square(8), _geometric(2), None, 4, (0, 0)),
    "lazy3d": (lambda: _lazy3d(0.17), _geometric(3), None, 10, (0, 0, 0)),
    "lazy3d f from (1, 0, -1)": (
        lambda: _lazy3d(0.17), _geometric(3), lambda x: 1.0 + (x[:, 2] > 0), 8, (1, 0, -1)
    ),
}


def _lazy3d(q):
    raw = {(0, 0, 0): q}
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        raw[e] = raw[tuple(-c for c in e)] = (1.0 - q) / 6.0
    return sw.validate_kernel(raw)


@pytest.mark.parametrize("case", sorted(FK_CASES))
def test_fk_monte_carlo_matches_the_site_array_reference(case):
    make, make_spec, f, n, x0 = FK_CASES[case]
    spec = make_spec()
    got = sw.fk_monte_carlo(make(), spec, f, n, 9000, seed=11, x0=x0)
    assert got == _fk_by_positions(make(), spec, f, n, 9000, 11, x0)


#: a valid 2d kernel whose cumulative sum before the last offset passes 1:
#: 1e-13, 0.5000000000001, 1.0000000000001
OVER_ONE_2D = {(1, 0): 1e-13, (-1, 0): 1e-13, (0, 1): 0.5, (0, -1): 0.5}


def _step_cums():
    lazy = np.cumsum(sw.lazy1d(0.3).prob_array())[:-1]
    over = np.cumsum(sw.validate_kernel(OVER_ONE_2D).prob_array())[:-1]
    return [0.1, 1.0 / 3.0, 0.5, *lazy.tolist(), *over.tolist()]


def test_step_limits_split_the_raw_words_as_the_uniforms():
    cums = _step_cums()
    assert max(cums) > 1.0
    limits = gibbs._step_limits(np.array(cums))
    assert limits.dtype == np.uint64
    assert len(limits) == sum(c < 1.0 for c in cums)
    for c, limit in zip((c for c in cums if c < 1.0), limits.tolist()):
        # the word at the limit and the one below it
        for raw in (limit, limit - 1):
            u = (raw >> 11) * 2.0**-53
            assert (np.uint64(raw) >= np.uint64(limit)) == (u >= c), (c, raw)
    # Generator.random reads a raw word as (raw >> 11) 2^-53
    raw = gibbs.counter_rng(7, 3).bit_generator.random_raw(1000)
    assert np.array_equal((raw >> np.uint64(11)) * 2.0**-53, gibbs.counter_rng(7, 3).random(1000))


@pytest.mark.parametrize("kernel", [lambda: sw.lazy1d(0.3), lambda: sw.validate_kernel(OVER_ONE_2D)])
def test_steps_from_raw_words_are_the_steps_from_uniforms(kernel):
    cum = np.cumsum(kernel().prob_array())[:-1]
    limits = gibbs._step_limits(cum)
    u = gibbs.counter_rng(5, 2).random((gibbs.MC_CHUNK, 20))
    raw = gibbs.counter_rng(5, 2).bit_generator.random_raw((gibbs.MC_CHUNK, 20))
    assert np.array_equal(sum(u >= c for c in cum), sum(raw >= limit for limit in limits))


def test_criterion_13_reads_both_sample_sizes_from_one_run():
    kernel, spec = sw.simple1d(), sw.single_delta(1, 1.0)
    est1, err1 = sw.fk_monte_carlo(kernel, spec, None, 20, 100_000, seed=2024)
    est3, err3 = sw.fk_monte_carlo(kernel, spec, None, 20, 300_000, seed=2024)
    values = acceptance.criterion_13().values
    assert (values["estimate"], values["stderr"], values["stderr_3x"]) == (est1, err1, err3)
    assert values["ratio"] == err1 / err3


def test_estimates_read_a_count_inside_a_chunk_as_a_run_of_that_count():
    kernel, spec = sw.lazy1d(0.25), _geometric(1)()
    counts = (1000, gibbs.MC_CHUNK, gibbs.MC_CHUNK + 1, 10_000)
    weights = gibbs._fk_weights(kernel, spec, None, 9, counts[-1], 13, None)
    got = gibbs._estimates(weights, counts)
    assert got == [sw.fk_monte_carlo(kernel, spec, None, 9, k, seed=13) for k in counts]


def _no_draws(seed, stream=0):
    raise AssertionError("drew before the input was checked")


def test_fk_monte_carlo_negative_steps_are_named(monkeypatch):
    monkeypatch.setattr(gibbs, "counter_rng", _no_draws)
    with pytest.raises(NegativeStepCount) as info:
        sw.fk_monte_carlo(sw.simple1d(), None, None, -1, 2000, seed=5)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: 2.0,  # one value for all paths
        lambda x: x.astype(float),  # (m, 1): would broadcast to (m, m)
        lambda x: np.ones(len(x) - 1),
    ],
    ids=["scalar", "column", "short"],
)
def test_fk_monte_carlo_f_without_one_value_per_path_is_named(f):
    with pytest.raises(ShapeMismatch) as info:
        sw.fk_monte_carlo(sw.simple1d(), None, f, 5, 2000, seed=5)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def _gibbs_marginal(kernel, spec, N, ks, box):
    """The former ``gibbs.gibbs_marginal``: the law of (S_1 .. S_k) under the
    horizon-N Gibbs measure for each k in ks, and Z_N = (M^N 1)(0), from one
    sweep of M^m 1 to m = N on a box that absorbs the horizon."""
    dvec = gibbs._dvec_on(spec, box)
    powers = enumerate(lattice._powers(kernel, dvec, np.ones(box.shape), N, box))
    back = {m: cur for m, cur in powers if m == N or N - m in ks}
    partition = float(back[N][(box.radius,) * kernel.dimension])
    laws = {k: gibbs._prefix_law(kernel, dvec, box, k, back[N - k], partition) for k in ks}
    return laws, partition


def test_gibbs_marginal_normalization_and_z1():
    kernel = sw.simple1d()
    spec = sw.single_delta(1, 1.0)
    box = sw.LatticeBox.cube(45, 1)
    laws, _ = _gibbs_marginal(kernel, spec, 40, [1, 2], box)
    assert abs(sum(laws[1].values()) - 1.0) < 1e-12
    assert abs(sum(laws[2].values()) - 1.0) < 1e-12
    # oracle: Z_1 = 1 + V(0)
    _, z1 = _gibbs_marginal(kernel, spec, 1, [0], sw.LatticeBox.cube(4, 1))
    assert z1 == pytest.approx(1.0 + 1.0)


def test_gibbs_marginal_free_walk_law():
    kernel = sw.simple1d()
    box = sw.LatticeBox.cube(12, 1)
    laws, _ = _gibbs_marginal(kernel, None, 8, [2], box)
    for path, prob in laws[2].items():
        assert prob == pytest.approx(0.25)
        assert abs(path[0][0]) == 1 and abs(path[1][0] - path[0][0]) == 1


def test_chain_prefix_law_matches_matrix_powers():
    _, _, _, chain = _anchor_chain(L=20)
    law = sw.chain_prefix_law(chain, 2)
    # marginal of S_2 two ways: path sum vs squared transition matrix
    start = chain.index((0,))
    two_step = np.linalg.matrix_power(chain.rows, 2)[start]
    marg: dict = {}
    for path, p in law.items():
        marg[path[-1]] = marg.get(path[-1], 0.0) + p
    for site, p in marg.items():
        assert p == pytest.approx(two_step[chain.index(site)], abs=1e-12)


def test_convergence_rate_constant_functional():
    kernel, spec, op, chain = _anchor_chain(q=0.3, L=40)
    fit = sw.convergence_rate(kernel, spec, chain, 1, range(8, 20), lambda path: 1.0)
    assert fit.eps_fit == 0.0
    assert all(d <= 1e-13 for _, d in fit.deviations)  # rounding noise only


def test_convergence_rate_indicator():
    kernel, spec, op, chain = _anchor_chain(q=0.3, L=60)
    w = np.linalg.eigvalsh(op.sym)
    pred = float(np.abs(w)[np.abs(w) < w[-1] - 1e-10].max() / w[-1])
    fit = sw.convergence_rate(
        kernel, spec, chain, 1, range(10, 41), lambda path: 1.0 if path[0] == (1,) else 0.0
    )
    assert fit.eps_fit < 1.0
    assert abs(fit.eps_fit - pred) <= 0.15 * pred


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_counter_rng_seed_out_of_range_is_named(seed):
    # the 64-bit key would alias it: -1 to 2^64 - 1, and 2^64 to seed 0
    with pytest.raises(SeedOutOfRange) as info:
        sw.counter_rng(seed)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def test_partition_growth_free_walk():
    growth = sw.partition_growth(sw.simple1d(), None, 12)
    assert np.allclose(growth.z_values, 1.0)
    assert np.allclose(growth.roots, 1.0)


def test_partition_growth_single_delta():
    growth = sw.partition_growth(sw.simple1d(), sw.single_delta(1, 1.0), 200)
    target = 2.0 / math.sqrt(3.0)
    assert abs(growth.final_ratio_estimate - target) < 1e-9
    # raw N-th root converges like log(coefficient)/N: near, not at, the target
    assert abs(growth.final_root - target) < 0.01
    assert abs(growth.final_root - target) > 1e-4
    # sandwich: below max row sum, above the late-sequence floor, and the
    # even-index tail decreases monotonically toward the limit
    op = sw.truncated_operator(sw.simple1d(), sw.single_delta(1, 1.0), 20)
    assert growth.final_root <= op.matrix.sum(axis=1).max() + 1e-12
    evens = growth.roots[100::2]
    assert all(a >= b - 1e-12 for a, b in zip(evens, evens[1:]))
    assert all(r >= target - 1e-9 for r in evens)


def test_ratio_estimate_tracks_spectral_top_for_anchor():
    kernel = sw.simple1d()
    spec = sw.build_geometric_sparse(1, 1.0, 3, anchor=((0,), 2.0))
    op = sw.truncated_operator(kernel, spec, 80)
    r = float(np.linalg.eigvalsh(op.sym)[-1])
    growth = sw.partition_growth(kernel, spec, 120)
    assert abs(growth.final_ratio_estimate - r) < 1e-6


def test_partition_growth_short_horizon_is_named():
    with pytest.raises(HorizonTooShort) as info:
        sw.partition_growth(sw.simple1d(), None, 2)
    assert isinstance(info.value, SparseWalkError) and isinstance(info.value, ValueError)


def _chain11():
    """Kernel, potential and chain of acceptance criterion 11."""
    kernel = sw.lazy1d(0.3)
    spec = acceptance._geometric(anchored=True)
    op = sw.truncated_operator(kernel, spec, 80)
    return kernel, spec, sw.doob_kernel(kernel, spec, sw.perron_pair(op, tol=1e-9), op.box)


def _deviations_per_n(kernel, spec, chain, k, ns, f):
    """One _gibbs_marginal call per n on the box of max(ns): each replays M^m 1."""
    box = sw.LatticeBox.cube(max(ns) * kernel.reach + 1, kernel.dimension)
    nu = sum(p * f(path) for path, p in sw.chain_prefix_law(chain, k).items())
    devs = []
    for n in ns:
        law = _gibbs_marginal(kernel, spec, n, [k], box)[0][k]
        devs.append((n, abs(sum(p * f(path) for path, p in law.items()) - nu)))
    return tuple(devs)


def _first_step_to(site):
    return lambda path: 1.0 if path[0] == site else 0.0


@pytest.mark.parametrize(
    "case, k, ns",
    [
        ("1d", 1, range(10, 61)),
        ("1d", 2, [12, 30, 21, 30]),
        ("2d", 1, range(10, 31)),
        ("2d", 0, range(3, 9)),
    ],
)
def test_convergence_rate_one_sweep_matches_per_n_marginals(case, k, ns):
    if case == "1d":
        (kernel, spec, chain), site = _chain11(), (1,)
    else:
        (kernel, spec, _, chain), site = _anchor_chain_2d(), (1, 0)
    f = _first_step_to(site) if k else (lambda path: 1.0)
    fit = sw.convergence_rate(kernel, spec, chain, k, ns, f)
    assert fit.deviations == _deviations_per_n(kernel, spec, chain, k, sorted(ns), f)


def test_convergence_rate_steps_once_to_the_largest_n(monkeypatch):
    kernel, spec, chain = _chain11()
    apply_P, calls = lattice.apply_P, []

    def counted(*args):
        calls.append(1)
        return apply_P(*args)

    monkeypatch.setattr(lattice, "apply_P", counted)
    sw.convergence_rate(kernel, spec, chain, 1, range(10, 61), _first_step_to((1,)))
    assert len(calls) == 60  # one _gibbs_marginal per n takes sum(range(10, 61)) = 1785


@pytest.mark.parametrize(
    "k, ns, error",
    [
        (1, range(1, 5), HorizonTooShort),
        (1, range(0, 5), HorizonTooShort),
        (1, [], HorizonTooShort),
        (-1, range(2, 5), MarginalLengthInvalid),
    ],
)
def test_convergence_rate_lengths_are_named(k, ns, error):
    _, _, _, chain = _anchor_chain(L=20)
    with pytest.raises(error):
        sw.convergence_rate(sw.simple1d(), None, chain, k, ns, lambda path: 1.0)


def test_gibbs_to_chain_rate_2d():
    """Criterion 11 on Z^2: simple2d under an anchored geometric potential.

    The walk is bipartite, so the top two |lambda| are +-r and the rate is
    set by the third, |lambda_3| / r.
    """
    kernel = sw.simple2d()
    spec = sw.build_geometric_sparse(2, 0.5, 3, box_radius=40, anchor=((1, -1), 1.5))
    op = sw.truncated_operator(kernel, spec, 40)
    chain = sw.doob_kernel(kernel, spec, sw.perron_pair(op), op.box)
    top = sw.eigensolve_top(op, 3).by_abs
    pred = abs(top[2].value) / abs(top[0].value)
    fit = sw.convergence_rate(kernel, spec, chain, 1, range(10, 61), _first_step_to((1, 0)))
    assert fit.deviations[0][1] > fit.deviations[-1][1]
    assert abs(fit.eps_fit - pred) <= 0.15 * pred


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_partition_values_are_the_semigroup_at_x0(case):
    if case == "1d":
        kernel, spec, N_max = sw.simple1d(), sw.single_delta(1, 1.0), 30
    else:
        kernel, spec, _, _ = _anchor_chain_2d()
        N_max = 20
    growth = sw.partition_growth(kernel, spec, N_max)
    box = sw.LatticeBox.cube(N_max * kernel.reach + 1, kernel.dimension)
    origin = (box.radius,) * kernel.dimension
    for N in range(1, N_max + 1):
        exact = sw.fk_semigroup(kernel, spec, np.ones(box.shape), N, box)[origin]
        assert growth.z_values[N - 1] == exact
