"""Spectral laboratory for random walks perturbed by sparse potentials."""

from .errors import SparseWalkError
from .lattice import (
    LatticeBox,
    WalkKernel,
    apply_P,
    char_function,
    convolution_power_at_zero,
    lazy1d,
    simple1d,
    simple2d,
    validate_kernel,
    weyl_scaling_fit,
    weyl_sequence_residual,
)
from .resolvent import (
    DecayFit,
    GreenEvaluation,
    decay_rate_estimate,
    g_lambda_closed_1d,
    g_lambda_quadrature,
    g_lambda_series,
    g_level_crossings,
    green_kernel,
    green_table,
    phi_closed_1d,
)
from .potential import (
    PotentialSpec,
    build_geometric_sparse,
    dense_level,
    make_potential,
    single_delta,
    sparseness_profile,
)
from .spectral import (
    EigenSolution,
    LambdaVPrediction,
    ReportBundle,
    SpectralReport,
    TruncatedOperator,
    bipartite_detect,
    diag_dominance_check,
    edge_inequality_check,
    eigensolve_top,
    essential_spectrum_predictor,
    gap_projection_test,
    lambda_pm_1d,
    perron_pair,
    spectral_report,
    truncated_operator,
    truncated_spectrum_distance_1d,
)
from .birman_schwinger import (
    BSAssembly,
    NeumannCertificate,
    assemble_bs,
    bs_crossing_scan,
    bs_eigenvalue_test,
    neumann_invertibility,
    off_diag_tail_norm,
    resolvent_via_bs,
)
from .gibbs import (
    ChainKernel,
    PartitionGrowth,
    chain_prefix_law,
    convergence_rate,
    counter_rng,
    doob_kernel,
    fk_monte_carlo,
    fk_semigroup,
    occupation_distribution,
    partition_growth,
    simulate_chain,
)

__version__ = "0.1.0"
