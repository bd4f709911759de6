"""Path-measure dynamics: Doob chain, Feynman-Kac semigroup, Gibbs limits.

The multiplicative semigroup admits the path representation

    (M^n f)(x) = E[ f(x + S_n) prod_{j<n} (1 + V(x + S_j)) ],

so reweighting paths by the product and normalizing defines a Gibbs
measure over walk trajectories.  Once the top eigenpair (r, phi) of the
truncation is in hand, the ground-state (Doob) transform

    K(x, y) = r^(-1) phi(x)^(-1) (1 + V(x)) p(y - x) phi(y)

is a genuine stochastic matrix, reversible for m ~ phi^2 / (1 + V), and
the Gibbs marginals converge to the law of that chain at the geometric
rate set by the absolute spectral gap.  This module computes the exact
semigroup and marginals by transfer matrices, simulates the chain, runs
unbiased Monte Carlo with a counter-based RNG, and fits the convergence
and partition-growth rates.  The Monte Carlo picks each step by comparing
raw Philox words with integer limits, which split the words exactly where
the uniforms made of them cross the cumulative step probabilities, and runs
time-major: one step updates the weights and positions of a whole chunk of
paths, two vectors that stay in cache, and multiplies each path's factors
from the left as ``prod`` along the path would, so its estimates are bit
for bit those of uniforms and a path-major array of positions reduced by
``prod``.  One generator, ``_fk_weights``, yields the weights chunk by
chunk and one reducer, ``_estimates``, reads the mean and standard error
of any prefix of them.  Every M^m f comes from one sweep,
``lattice._powers``, and each reader keeps only the powers it uses:
``convergence_rate`` reads all n from one pass to max(n).

K has the sparsity of p, so the chain keeps its rows on the band of the
truncation (one column per kernel offset, zero weight for a neighbour
outside the box): the transform, the prefix law and the path sampler all
walk that band, and the dense matrix is only derived on request.

A chain path costs its own length in memory and no more.  ``simulate_chain``
stores it in the narrowest signed integer type that holds -(2m + 1), with
m = max |center| + radius of the box (int8 for a 2d box of radius 22), so
every difference of two sites fits and ``np.diff``, negation and ``abs``
never wrap; other arithmetic on coordinates, such as a product or a
squared distance, casts first.  Each block of steps writes its sites
straight into the path, and ``occupation_distribution`` counts the path
one block at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EigenResidualTooLarge,
    HorizonTooShort,
    MarginalLengthInvalid,
    NegativeStepCount,
    NoDecayDetected,
    NonPositivePhi,
    RowDeficitTooLarge,
    SeedOutOfRange,
    ShapeMismatch,
    SiteOutsideBox,
    StartOutsideBox,
    TooFewSamples,
)
from .lattice import LatticeBox, WalkKernel, _as_offset, _band_dense, _box, _count, _powers
from .potential import PotentialSpec, _one_plus_v
from .spectral import truncated_operator

#: fixed Monte Carlo chunk so sample i always uses stream (seed, i // CHUNK)
MC_CHUNK = 4096

#: fewest samples fk_monte_carlo accepts
MIN_SAMPLES = 1000

#: uniforms drawn at a time by simulate_chain, and path rows counted at a time
#: by occupation_distribution; the stream is the same as one draw of every
#: step, the block only bounds memory
SIM_BLOCK = 1 << 12

#: seeds and streams are the two 64-bit words of the Philox key: [0, 2^64)
SEED_LIMIT = 1 << 64


def counter_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed, stream).

    Streams are independent by key separation, so chunked or parallel
    sampling reproduces exactly regardless of scheduling.  A seed or stream
    outside [0, 2^64) would alias another key (SeedOutOfRange); one that is
    not an integer raises CountNotInteger.
    """
    key = [_count(seed, "seed"), _count(stream, "stream")]
    if not all(0 <= word < SEED_LIMIT for word in key):
        raise SeedOutOfRange(f"seed {seed} and stream {stream} must lie in [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@dataclass(frozen=True)
class ChainKernel:
    """Doob-transformed stochastic matrix with its reversible measure.

    The rows live on the truncation's band: ``probs[i, k]`` is the
    probability of the move from site i to box index ``cols[i, k]``, zero
    for a neighbour outside the box.
    """

    box: LatticeBox
    sites: np.ndarray
    cols: np.ndarray
    probs: np.ndarray
    stationary: np.ndarray
    row_deficit: float
    rate: float

    def index(self, site) -> int:
        return self.box.index(site)

    @property
    def rows(self) -> np.ndarray:
        """Dense (volume, volume) transition matrix, built from the band."""
        return _band_dense(self.cols, self.probs)


def doob_kernel(
    kernel: WalkKernel,
    spec: PotentialSpec | None,
    eigenpair: tuple[float, np.ndarray],
    box: LatticeBox | int,
) -> ChainKernel:
    """Ground-state transform of the truncation at the supplied eigenpair.

    The eigenpair must be accurate (relative residual <= 1e-8) and phi
    strictly positive; rows are renormalized exactly, with the pre-
    normalization deficit recorded (it quantifies truncation honesty, and
    must not exceed 1e-6).
    """
    op = truncated_operator(kernel, spec, _box(box, kernel.dimension).radius)
    r, phi = float(eigenpair[0]), np.asarray(eigenpair[1], dtype=float)
    if phi.shape != (op.volume,):
        raise ShapeMismatch(f"phi shape {phi.shape} does not match box volume {op.volume}")
    if phi.min() <= 0.0:
        raise NonPositivePhi(f"min phi = {phi.min()!r}; Doob transform needs phi > 0")
    resid = op.residual(r, phi)
    if resid > 1e-8:
        raise EigenResidualTooLarge(f"eigen residual {resid:.3e} exceeds 1e-8")
    probs = (op.dvec[:, None] * op.probs * phi[op.cols]) / (r * phi[:, None])
    sums = probs.sum(axis=1)
    deficit = float(np.max(np.abs(sums - 1.0)))
    if deficit > 1e-6:
        raise RowDeficitTooLarge(f"row deficit {deficit:.3e} exceeds 1e-6")
    probs = probs / sums[:, None]
    probs.flags.writeable = False
    m = phi * phi / op.dvec
    m = m / m.sum()
    return ChainKernel(
        box=op.box,
        sites=op.sites,
        cols=op.cols,
        probs=probs,
        stationary=m,
        row_deficit=deficit,
        rate=r,
    )


def simulate_chain(chain: ChainKernel, x0, steps: int, seed: int) -> np.ndarray:
    """Sample a path of the chain; deterministic given the seed.

    Returns the visited sites as a (steps + 1, d) array, allocated once, in
    the narrowest signed integer type that holds -(2m + 1), where m is
    max |center| + radius of the box: every site lies in [-m, m], so every
    difference of two sites lies in [-2m, 2m] and ``np.diff``, negation and
    ``abs`` of the path never wrap (int8 up to m = 63, int16 up to 16383).
    Other arithmetic on coordinates, such as a product or a squared
    distance, casts first.  Each block of ``SIM_BLOCK`` steps writes its
    sites straight into the path, so the memory of a path is the path
    itself.
    """
    steps = _count(steps, "steps")
    if steps < 0:
        raise NegativeStepCount(f"steps must be >= 0, got {steps}")
    x0 = _as_offset(x0, chain.box.dim)
    if not chain.box.contains(x0):
        raise StartOutsideBox(f"{x0} outside {chain.box}")
    cum = np.cumsum(chain.probs, axis=1)
    # entries that reach the rounded row total (the last in-box neighbour and
    # the zero-weight ones after it) close the row at exactly 1, so a uniform
    # above that total still lands on a neighbour
    cum[cum == cum[:, -1:]] = 1.0
    cum_rows, col_rows = cum.tolist(), chain.cols.tolist()
    extent = max(abs(c) for c in chain.box.center) + chain.box.radius
    sites = chain.sites.astype(np.min_scalar_type(-(2 * extent + 1)))
    rng = counter_rng(seed)
    path = np.empty((steps + 1, chain.box.dim), dtype=sites.dtype)
    cur = chain.index(x0)
    path[0] = sites[cur]
    for start in range(0, steps, SIM_BLOCK):
        uniforms = rng.random(min(SIM_BLOCK, steps - start)).tolist()
        block = [cur := col_rows[cur][bisect_right(cum_rows[cur], u)] for u in uniforms]
        rows = path[start + 1 : start + 1 + len(block)]
        sites.take(np.fromiter(block, np.intp, len(block)), axis=0, out=rows)
    return path


def occupation_distribution(chain: ChainKernel, path_sites: np.ndarray) -> np.ndarray:
    """Empirical occupation over box indices from a simulated path.

    ``path_sites`` is an (n, d) integer array of box sites, such as the path
    of ``simulate_chain`` in the narrowest type that holds every difference
    of two box sites.  It is counted ``SIM_BLOCK`` rows at a time: each
    block's offsets from the box corner, taken in int64 against the int64
    corner, give its row-major indices (those of ``box.flat``), and one
    ``bincount`` per block is summed in int64.  So a narrow path is never
    widened as a whole, and the memory is the path itself plus one block.
    Rows that are not d long, and a path with no rows, raise ShapeMismatch;
    a site outside the chain's box raises SiteOutsideBox before its block
    is counted.
    """
    box = chain.box
    sites = np.asarray(path_sites)
    if sites.ndim != 2 or sites.shape[1] != box.dim:
        raise ShapeMismatch(f"path shape {sites.shape} is not (n, {box.dim})")
    if len(sites) == 0:
        raise ShapeMismatch(f"path of shape {sites.shape} has no rows to count")
    # the corner on every row of a block: a same-shape subtraction, which
    # numpy runs several times faster than a broadcast over d-long rows
    corners = np.tile(np.asarray(box.center) - box.radius, (SIM_BLOCK, 1))
    strides = box.side ** np.arange(box.dim - 1, -1, -1)
    counts = np.zeros(box.volume, dtype=np.int64)
    for start in range(0, len(sites), SIM_BLOCK):
        block = sites[start : start + SIM_BLOCK]
        offsets = block - corners[: len(block)]
        # the box is a cube: a site is inside when every offset is in [0, 2r]
        if offsets.min() < 0 or offsets.max() > 2 * box.radius:
            bad = block[((offsets < 0) | (offsets > 2 * box.radius)).any(axis=1)][0]
            raise SiteOutsideBox(f"path site {tuple(bad.tolist())} outside {box}")
        counts += np.bincount(offsets @ strides, minlength=box.volume)
    return counts / counts.sum()


def fk_semigroup(
    kernel: WalkKernel,
    spec: PotentialSpec | None,
    f: np.ndarray,
    n: int,
    box: LatticeBox,
) -> np.ndarray:
    """Exact n-fold application of the weighted transfer operator.

    One step is convolution by p followed by the pointwise multiplication
    with 1 + V; zero boundary outside the box (paths leaving the box are
    killed, so a box absorbing the full horizon reproduces the free-lattice
    value exactly).
    """
    n = _count(n, "n")
    if n < 0:
        raise NegativeStepCount(f"n must be >= 0, got {n}")
    steps = _powers(kernel, _dvec_on(spec, box), np.array(f, dtype=float), n, box)
    return deque(steps, maxlen=1)[0]


def _dvec_on(spec: PotentialSpec | None, box: LatticeBox) -> np.ndarray:
    return _one_plus_v(spec, box).reshape(box.shape)


def fk_monte_carlo(
    kernel: WalkKernel,
    spec: PotentialSpec | None,
    f,
    n: int,
    samples: int,
    seed: int,
    x0=None,
) -> tuple[float, float]:
    """Unbiased Monte Carlo for the weighted semigroup applied to f at x0.

    Walk paths are sampled exactly (no truncation), each carrying the
    multiplicative weight prod (1 + V); f is a callable on an (m, d) site
    array that returns m values, or None for f = 1.  Randomness comes in
    fixed chunks keyed by (seed, chunk), so the estimate is reproducible
    however the chunks are scheduled, and the first k paths of a run are
    the k paths of a run of k samples.  Returns (estimate, standard error).

    The path weights come from ``_fk_weights``, one chunk at a time, and
    ``_estimates`` reduces them.  n < 0 raises NegativeStepCount, an n or a
    sample count that is not an integer CountNotInteger, and an f that does
    not return one value per path ShapeMismatch.
    """
    n, samples = _count(n, "n"), _count(samples, "samples")
    if samples < MIN_SAMPLES:
        raise TooFewSamples(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if n < 0:
        raise NegativeStepCount(f"n must be >= 0, got {n}")
    return _estimates(_fk_weights(kernel, spec, f, n, samples, seed, x0), (samples,))[0]


def _step_limits(cum) -> np.ndarray:
    """Raw Philox words at which each cumulative threshold c is reached.

    ``Generator.random`` returns u = (raw >> 11) * 2^-53, so u >= c holds
    exactly when raw >= ceil(c 2^53) << 11.  A threshold c >= 1 is never
    reached (its word would not fit in 64 bits) and is dropped; the sums
    increase, so only trailing ones go.
    """
    return np.array(
        [math.ceil(Fraction(c) * 2**53) << 11 for c in cum.tolist() if c < 1.0], dtype=np.uint64
    )


def _fk_weights(
    kernel: WalkKernel, spec: PotentialSpec | None, f, n: int, samples: int, seed: int, x0
):
    """Yield the path weights f(x0 + S_n) prod (1 + V) of each chunk of samples.

    A chunk of m paths draws its m n raw Philox words as one (m, n) block
    and picks each step by comparing the words with ``_step_limits``, so
    the steps are those of ``random`` compared with the cumulative sums.
    It then runs time-major: the offset indices, in the narrowest unsigned
    type that holds them, are transposed to (n, m), and step t multiplies
    the m weights by 1 + V at the current sites, then moves the m
    positions; both vectors stay in cache.  Each weight takes its factors
    from the left, t = 0 .. n-1, the order numpy's ``prod`` multiplies
    along a path in, so the weights are bit for bit those of ``prod`` over
    an (m, n) array of path sites.  Arguments are checked by the caller.
    """
    d = kernel.dimension
    x0 = (0,) * d if x0 is None else _as_offset(x0, d)
    offsets = kernel.offset_array()
    # offset k is drawn when cum[k - 1] <= u < cum[k]; the last one also
    # takes the rounding gap below 1, so its cumulative sum is not needed.
    # The first offset has a mirror of the same weight, so cum[0] is about
    # 1/2 at most and limits[0] always exists
    limits = _step_limits(np.cumsum(kernel.prob_array())[:-1])
    # the narrowest unsigned type that holds every offset index 0 .. len(limits)
    index_dtype = np.min_scalar_type(len(limits))
    # dense potential lookup covering the walk range
    reach = n * kernel.reach + max((abs(c) for c in x0), default=0)
    vbox = LatticeBox.cube(max(reach, 1), d)
    vgrid = _dvec_on(spec, vbox).ravel()
    # flat vbox indices are linear in the site, so a walk adds flat steps
    flat_steps = vbox.flat(offsets) - vbox.origin_index()
    flat0 = vbox.flat(x0)

    for done in range(0, samples, MC_CHUNK):
        m = min(MC_CHUNK, samples - done)
        raw = counter_rng(seed, done // MC_CHUNK).bit_generator.random_raw((m, n))
        step = (raw >= limits[0]).astype(index_dtype)  # index of the offset drawn
        for limit in limits[1:]:
            step += raw >= limit
        step = np.ascontiguousarray(step.T)  # row t: the offsets of step t
        pos = np.full(m, flat0, dtype=flat_steps.dtype)
        w = np.ones(m)
        for row in step:
            w *= vgrid.take(pos)
            pos += flat_steps.take(row)
        if f is not None:
            end = np.stack(np.unravel_index(pos, vbox.shape), axis=1) - vbox.radius
            fv = np.asarray(f(end), dtype=float)
            if fv.shape != (m,):
                raise ShapeMismatch(f"f returned shape {fv.shape} for {m} end sites; need ({m},)")
            w *= fv
        yield w


def _estimates(weights, counts) -> list[tuple[float, float]]:
    """(mean, standard error) over the first k weights of a chunk stream, per k.

    counts must increase and the stream hold at least the last of them.
    Each chunk adds its ``w[:j].sum()`` (and that of w * w) from left to
    right, so a k is reduced exactly as a stream of k weights would be,
    and one stream gives every k without holding the weights.
    """
    out: list[tuple[float, float]] = []
    total = total_sq = 0.0
    done = 0
    for w in weights:
        sq = w * w
        for k in counts[len(out) :]:
            if k > done + len(w):
                break
            s, s_sq = total + float(w[: k - done].sum()), total_sq + float(sq[: k - done].sum())
            mean = s / k
            var = max(s_sq / k - mean * mean, 0.0) * k / (k - 1)
            out.append((mean, math.sqrt(var / k)))
        total += float(w.sum())
        total_sq += float(sq.sum())
        done += len(w)
    return out


def _prefix_law(kernel: WalkKernel, dvec, box: LatticeBox, k: int, back, partition: float) -> dict:
    """Law of (S_1 .. S_k) from 0: path weights times back = M^(N-k) 1, over Z_N."""
    law: dict[tuple, float] = {}

    def extend(prefix, site, weight):
        if len(prefix) == k:
            idx = tuple(c + box.radius for c in site)
            law[prefix] = law.get(prefix, 0.0) + weight * float(back[idx]) / partition
            return
        w_here = weight * float(dvec[tuple(c + box.radius for c in site)])
        for off, p in zip(kernel.offsets, kernel.probs):
            nxt = tuple(a + b for a, b in zip(site, off))
            extend(prefix + (nxt,), nxt, w_here * p)

    extend((), (0,) * kernel.dimension, 1.0)
    return law


def chain_prefix_law(chain: ChainKernel, k: int) -> dict[tuple, float]:
    """Exact law of the first k chain steps started at the origin."""
    start = chain.index((0,) * chain.box.dim)
    law: dict[tuple, float] = {}

    def extend(prefix, idx, prob):
        if len(prefix) == k:
            law[prefix] = law.get(prefix, 0.0) + prob
            return
        for j in np.nonzero(chain.probs[idx])[0]:
            col = int(chain.cols[idx, j])
            extend(prefix + (tuple(chain.sites[col]),), col, prob * float(chain.probs[idx, j]))

    extend((), start, 1.0)
    return law


@dataclass(frozen=True)
class ConvergenceFit:
    eps_fit: float
    deviations: tuple[tuple[int, float], ...]


def convergence_rate(
    kernel: WalkKernel,
    spec: PotentialSpec | None,
    chain: ChainKernel,
    k_fixed: int,
    n_range,
    f,
) -> ConvergenceFit:
    """Geometric fit of D(n) = |E_mu_n F - E_nu F| for F = f(S_1 .. S_k).

    mu_n marginals come from the exact transfer computation, nu from the
    chain's exact prefix law; f maps a k-tuple of sites to a float.  Every
    n is read from one sweep of M^m 1 up to max(n_range) on one box: mu_n needs
    Z_n = (M^n 1)(0) and M^(n-k) 1, so only the last k + 1 powers are kept.
    The fitted ratio must be < 1; NoDecayDetected otherwise, or when only
    one or two deviations lie above floating-point noise.  When none does,
    E_mu_n F = E_nu F to rounding at every n and eps_fit is 0.0.
    """
    ns = sorted(_count(n, "n") for n in n_range)
    if k_fixed < 0:
        raise MarginalLengthInvalid(f"marginal length must be nonnegative, got {k_fixed}")
    if not ns or ns[0] < k_fixed + 1:
        raise HorizonTooShort(f"need some n, each > k = {k_fixed}; min n = {min(ns, default=None)}")
    box = LatticeBox.cube(max(ns) * kernel.reach + 1, kernel.dimension)
    dvec = _dvec_on(spec, box)
    nu_val = sum(p * f(path) for path, p in chain_prefix_law(chain, k_fixed).items())
    recent = deque(maxlen=k_fixed + 1)  # recent[0] = M^(m-k) 1 once m >= k
    dev_at = dict.fromkeys(ns)
    for m, cur in enumerate(_powers(kernel, dvec, np.ones(box.shape), max(ns), box)):
        recent.append(cur)
        if m in dev_at:
            z = float(cur[(box.radius,) * kernel.dimension])
            law = _prefix_law(kernel, dvec, box, k_fixed, recent[0], z)
            dev_at[m] = abs(sum(p * f(path) for path, p in law.items()) - nu_val)
    devs = [(n, dev_at[n]) for n in ns]
    floor = 1e-13 * (1.0 + abs(nu_val))
    usable = [(n, dv) for n, dv in devs if dv > floor]
    if not usable:
        return ConvergenceFit(eps_fit=0.0, deviations=tuple(devs))
    if len(usable) < 3:
        raise NoDecayDetected("fewer than 3 nonzero deviations to fit")
    xs = np.array([n for n, _ in usable], dtype=float)
    ys = np.log([dv for _, dv in usable])
    eps = float(np.exp(np.polyfit(xs, ys, 1)[0]))
    if eps >= 1.0:
        raise NoDecayDetected(f"fitted ratio {eps:.4f} is not < 1")
    return ConvergenceFit(eps_fit=eps, deviations=tuple(devs))


@dataclass(frozen=True)
class PartitionGrowth:
    """Growth diagnostics of the partition function Z_N = (M^N 1)(0)."""

    z_values: tuple[float, ...]
    roots: tuple[float, ...]
    ratio_estimates: tuple[float, ...]

    @property
    def final_root(self) -> float:
        return self.roots[-1]

    @property
    def final_ratio_estimate(self) -> float:
        return self.ratio_estimates[-1]


def partition_growth(kernel: WalkKernel, spec: PotentialSpec | None, N_max: int) -> PartitionGrowth:
    """Z_N = (M^N 1)(0) for N = 1 .. N_max with two growth-rate readouts.

    roots[N-1] = Z_N^(1/N) converges to the top of the spectrum but only at
    speed log(Z_N / r^N) / N, i.e. O(1/N).  ratio_estimates[N-1] =
    sqrt(Z_N / Z_{N-2}) is the power-method readout of the same limit and
    converges geometrically (the two-step stride cancels the sign-flipping
    peripheral component of bipartite kernels).
    """
    N_max = _count(N_max, "N_max")
    if N_max < 3:
        raise HorizonTooShort(f"N_max must be >= 3, got {N_max}")
    box = LatticeBox.cube(N_max * kernel.reach + 1, kernel.dimension)
    idx = (box.radius,) * kernel.dimension
    steps = _powers(kernel, _dvec_on(spec, box), np.ones(box.shape), N_max, box)
    zs = [float(cur[idx]) for cur in steps][1:]
    roots = [z ** (1.0 / (i + 1)) for i, z in enumerate(zs)]
    ratios = [float("nan")] * 2 + [math.sqrt(zs[i] / zs[i - 2]) for i in range(2, N_max)]
    return PartitionGrowth(
        z_values=tuple(zs), roots=tuple(roots), ratio_estimates=tuple(ratios)
    )
