"""Exception hierarchy.

Every error named in an operation contract is a distinct class so callers can
catch precisely the failure they are prepared to handle.  All of them derive
from :class:`SparseWalkError`.
"""


class SparseWalkError(Exception):
    """Base class for all errors raised by this package."""


# -- kernel validation ------------------------------------------------------

class EmptySupport(SparseWalkError):
    """Kernel or potential has no support where some is required."""


class NotNormalized(SparseWalkError):
    """Kernel probabilities are negative or do not sum to one."""


class NotSymmetric(SparseWalkError):
    """p(x) != p(-x) for some offset."""


class NotIrreducible(SparseWalkError):
    """The support generates a proper subgroup of Z^d: a Euclid pivot is not +-1."""


class BoxTooSmall(SparseWalkError):
    """Working box does not strictly contain the kernel range."""


class NegativeRadius(SparseWalkError, ValueError):
    """Lattice cube requested with a negative radius (also a ValueError)."""


class NegativeStepCount(SparseWalkError, ValueError):
    """A power of P or of the weighted transfer operator, a Monte Carlo
    path or a chain path with a negative step count.

    Also a ValueError, like NoSignChange.
    """


class CountNotInteger(SparseWalkError, TypeError):
    """A count, a box radius or a seed that is not an integer, such as 2.5.

    Also a TypeError, as operator.index raises.
    """


class ShapeMismatch(SparseWalkError, ValueError):
    """An array has the wrong shape: f on a box for P, phi for the Doob
    transform, the values of f on the end sites of Monte Carlo paths, or a
    chain path whose rows are not d long.

    Also a ValueError, like NoSignChange.
    """


class DimensionMismatch(SparseWalkError, ValueError):
    """A site or a frequency whose length is not the lattice dimension.

    Also a ValueError, like NoSignChange.
    """


class WaveRadiusTooSmall(SparseWalkError, ValueError):
    """Plane-wave residual asked for a cube of half-width n < 1 (also a ValueError)."""


class LazinessOutOfRange(SparseWalkError, ValueError):
    """Holding probability q of the 1d lazy walk outside [0, 1).

    Also a ValueError, like NoSignChange.
    """


# -- resolvent --------------------------------------------------------------

class LambdaInSpectrum(SparseWalkError):
    """Resolvent requested at a point of (or too close to) the spectrum."""


class LambdaNotFinite(SparseWalkError):
    """Resolvent or assembly requested at a NaN or infinite lambda."""


class QuadratureNotConverged(SparseWalkError):
    """An aliasing bound above 1e-12 (1 + |G|), or a level-crossing root that fails verification."""


class GridTooCoarse(SparseWalkError):
    """Quadrature grid below the floor of 64 points per axis.

    Deliberately not a QuadratureNotConverged: a grid that is too coarse is
    a caller error, not a level that a finer grid may still fix.
    """


class SeriesDiverges(SparseWalkError):
    """Resolvent power series requested with |lambda| <= 1."""


class NonPositiveValue(SparseWalkError):
    """Log-linear fit fed a value <= 0."""


class TooFewPoints(SparseWalkError):
    """Fit requested with fewer points than the contract minimum."""


class TargetNotAboveOne(SparseWalkError, ValueError):
    """Level-crossing target g_lambda(0) = 1 + 1/v is not above 1.

    Also a ValueError, like NoSignChange.
    """


# -- potentials -------------------------------------------------------------

class AnchorBelowV0(SparseWalkError):
    """Anchor value smaller than the sparse level it must dominate."""


class TailInvalid(SparseWalkError, ValueError):
    """Tail kind other than "decaying" or "sparse", or a decaying tail that
    declares an essential value other than 0.

    Also a ValueError, like NoSignChange.
    """


class NegativePotential(SparseWalkError, ValueError):
    """A potential value or a declared essential value below 0.

    Also a ValueError, like NoSignChange.
    """


class SiteOutsideBox(SparseWalkError, ValueError):
    """A potential site outside the working box, or a site of a chain path
    outside the chain's box.

    Also a ValueError, like NoSignChange.
    """


class BaseTooSmall(SparseWalkError, ValueError):
    """Geometric sparse family asked for a base below 2 (also a ValueError)."""


# -- Birman-Schwinger -------------------------------------------------------

class BSNotInvertible(SparseWalkError):
    """1 is an eigenvalue of the Birman-Schwinger matrix within tolerance."""


class Epsilon0Zero(SparseWalkError):
    """inf |1 - gamma V_K| vanished; the excluded set K is too small."""


class AlphaTooLarge(SparseWalkError):
    """Requested weight exponent is not below the Green decay rate."""


class AlphaNotPositive(SparseWalkError, ValueError):
    """Requested weight exponent (alpha of the Neumann certificate, epsilon of
    the sparseness profile) is zero or negative.

    Also a ValueError, like NoSignChange.
    """


class NoSignChange(SparseWalkError, ValueError):
    """Crossing bracket does not straddle the crossing.

    Also a ValueError, so callers that caught the former bare ValueError
    still catch it.
    """


class TailRadiusTooLarge(SparseWalkError, ValueError):
    """Off-diagonal tail bound asked for a radius N not below the box radius.

    Also a ValueError, like NoSignChange.
    """


class SpreadTooLarge(SparseWalkError, ValueError):
    """Sites spread so far that their displacement codes would pass 2^63.

    Also a ValueError, like NoSignChange.
    """


# -- spectral truncations ---------------------------------------------------

class BoxTooLarge(SparseWalkError):
    """Dense build above DENSE_CAP sites: a truncation's M or S, or a matrix on the support of V."""


class TruncationTooSmall(SparseWalkError, ValueError):
    """Truncation radius below four kernel ranges.

    Also a ValueError, like NoSignChange.
    """


class TooFewRadii(SparseWalkError, ValueError):
    """Spectral report asked for fewer than two box radii.

    Also a ValueError, like NoSignChange.
    """


class PairCountOutOfRange(SparseWalkError, ValueError):
    """Number of eigenpairs requested from eigensolve_top outside [1, 10].

    Also a ValueError, like NoSignChange.
    """


class ToleranceNotPositive(SparseWalkError, ValueError):
    """Power iteration asked for a zero or negative tolerance (also a ValueError)."""


class NoConvergence(SparseWalkError):
    """Iterative eigensolver hit its iteration cap."""


class NotSparse(SparseWalkError, ValueError):
    """Potential declared sparse whose sparseness profile does not collapse.

    Also a ValueError, like NoSignChange.
    """


class LevelNotPositive(SparseWalkError, ValueError):
    """Height v of a point perturbation or of a sparse family is zero or negative.

    Also a ValueError, like NoSignChange.
    """


class NoRootAboveOne(SparseWalkError):
    """g_lambda(0) = 1 + 1/v0 has no solution above 1 (legitimate in d >= 3)."""


class NotStabilized(SparseWalkError):
    """Discrete eigenvalue candidates failed the Cauchy check across boxes."""


class GapNotCertified(SparseWalkError):
    """Neither -r < ell nor a bipartite sign certifies the absolute gap."""


class NotTridiagonal(SparseWalkError, ValueError):
    """Sturm oracle asked for a kernel that is not range-1 in d = 1.

    Also a ValueError, like NoSignChange.
    """


class TargetNotNumeric(SparseWalkError, ValueError):
    """Sturm oracle target that `decimal` cannot read as a number, such as "abc".

    Also a ValueError, like NoSignChange.
    """


# -- Gibbs dynamics ---------------------------------------------------------

class EigenResidualTooLarge(SparseWalkError):
    """Eigenpair handed to the Doob transform is not converged enough."""


class NonPositivePhi(SparseWalkError):
    """Doob transform needs a strictly positive eigenfunction."""


class MarginalLengthInvalid(SparseWalkError, ValueError):
    """Gibbs marginal length k negative.

    Also a ValueError, like NoSignChange.
    """


class HorizonTooShort(SparseWalkError, ValueError):
    """Gibbs horizon N not above every marginal length, or N_max < 3 for
    the partition-growth ratios.

    Also a ValueError, like NoSignChange.
    """


class TooFewSamples(SparseWalkError, ValueError):
    """Monte Carlo asked for fewer samples than the contract minimum.

    Also a ValueError, like NoSignChange.
    """


class RowDeficitTooLarge(SparseWalkError):
    """Chain rows lose too much mass before renormalization."""


class SeedOutOfRange(SparseWalkError, ValueError):
    """Counter RNG seed or stream outside [0, 2^64), where it would alias another stream.

    Also a ValueError, like NoSignChange.
    """


class StartOutsideBox(SparseWalkError):
    """Chain simulation started outside the truncation box."""


class NoDecayDetected(SparseWalkError):
    """Marginal deviations do not decay over the requested range."""


# -- CLI --------------------------------------------------------------------

class ConfigInvalid(SparseWalkError):
    """Experiment configuration failed validation."""


class ExperimentFailed(SparseWalkError):
    """An experiment assertion was violated; message names the invariant."""
