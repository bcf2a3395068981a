"""Proximal sampler for log-concave densities with nonsmooth potentials.

Draws from exp(-f) for convex potentials whose subgradient is Holder
continuous (semi-smooth) or a smooth + semi-smooth composite, by Gibbs
sampling on an augmented density whose inner conditional is realized with
rejection sampling around an (exact or cutting-plane) proximal point.
"""

__version__ = "0.1.0"

from .bundle import (
    BundleLimitError,
    BundleResult,
    CuttingPlane,
    DualSolverError,
    ProxObjective,
    SamplerError,
    gap_start_bound,
    iteration_bound_composite,
    iteration_bound_semismooth,
    prox_bundle,
    solve_model_subproblem,
)
from .chain import (
    ChainConfig,
    ChainTrace,
    IterationBudget,
    MomentEstimate,
    gibbs_step,
    moment_estimate,
    run_chain,
    select_mu,
    select_num_iters,
    select_params_composite,
    select_params_semismooth,
)
from .checks import (
    CheckReport,
    SandwichReport,
    acceptance_probability_oracle,
    check_prop_key_bound,
    default_prop_key_grid,
    sandwich_suite,
    wendel_check,
)
from .metrics import (
    ks_1samp,
    ks_2samp,
    ks_critical,
    tv_hist,
)
from .potentials import (
    Potential,
    ProfileReport,
    RegularizedTarget,
    SmoothnessProfile,
    default_zoo,
    make_by_name,
    make_gaussian,
    make_hinge_sum,
    make_l1,
    make_power_norm,
    make_quad_plus_l1,
    validate_profile,
)
from .quadrature import QuadratureDensity, kl_divergence, modified_gaussian_ratio
from .rejection import (
    ENVELOPE_VERSION,
    EnvelopeViolationError,
    RejectionBound,
    RejectionLimitError,
    RgoConfig,
    RgoSample,
    StepSizeWarning,
    envelope_offset,
    lower_envelope,
    prox_of_target,
    rejection_bound,
    rgo_sample,
    step_condition_ok,
    upper_envelope,
)
