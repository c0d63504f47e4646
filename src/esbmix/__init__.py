"""Stick-breaking species sampling processes with exchangeable length
variables: exact prior analytics and slice-within-Gibbs mixture estimation.
"""

from .analytics import (
    AllocationVector,
    KnSummary,
    allocation_probability,
    allocation_probability_dsb,
    allocation_probability_mc,
    conditional_ordering_probability,
    conditional_ordering_probability_dsb,
    expected_kn_curve,
    ordering_probability_dsb,
    ordering_probability_general,
    ordering_probability_mc,
    sample_allocations,
    sample_kn,
    truncated_pair_mass,
    tv_distance,
)
from .eppf import (
    Dirichlet,
    EppfModel,
    IdenticalDegenerate,
    IidDegenerate,
    PitmanYor,
    check_addition_rule,
    nig_tie_probability,
)
from .mcmc import (
    BivariateNormalInvWishart,
    FitConfig,
    FitResult,
    GibbsState,
    RandomRho,
    UnivariateNormalGamma,
    cluster_assign,
    default_kernel,
    eap_density,
    fit,
    gibbs_sweep,
    map_select,
    posterior_kn,
)
from .numerics import (
    exp_integral_e1,
    gauss_2f1_11,
    log_beta_moment,
    rising_factorial,
)
from .sticks import (
    IidBeta,
    LengthPrefix,
    SharedBeta,
    SpeciesDriven,
    dsb,
    extend_weights_until,
    sample_length_pairs,
    sample_lengths_prefix,
    sb_inverse,
    sb_transform,
)

__version__ = "0.1.0"
