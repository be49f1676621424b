"""Fixed-domain Bayesian inference for mean-zero Matern Gaussian processes.

Kernels and spectral densities, exact and O(n) OU likelihoods, per-alpha
profile statistics, posterior MCMC over the (microergodic, range)
parameters, the limiting Bernstein-von Mises posteriors, kriging
prediction-efficiency measures, and the simulation harness that reproduces
the reference study at desk scale.
"""

__version__ = "0.1.0"

from .kernels import MaternSpec, bessel_k, matern_correlation, matern_kernel, spectral_density
from .gp import (
    CovFactorization,
    DegenerateDataError,
    DenseEngine,
    Design,
    GpDataset,
    NotPositiveDefiniteError,
    OuEngine,
    OuStats,
    ProfileStats,
    build_correlation_matrix,
    factorize,
    is_ou_model,
    likelihood_engine,
    load_dataset,
    log_likelihood,
    ou_loglik_fast,
    ou_profile_stats,
    ou_stats,
    profile_stats,
    save_dataset,
)
from .posterior import (
    ChainSamples,
    GammaPrior,
    InitializationError,
    McmcConfig,
    PriorSpec,
    TiltedParams,
    conditional_bvm_logdensity,
    joint_limit_sampler,
    log_joint_posterior,
    profile_posterior_logdensity,
    rwm_chain,
    tilted_logdensity,
    tilted_params,
)
from .kriging import (
    CoincidentTestPointError,
    DenseMseFactors,
    EfficiencyRatios,
    KlReport,
    MseBreakdown,
    OuMseFactors,
    PredictionQuery,
    blup,
    efficiency_envelope,
    efficiency_ratios,
    kl_report,
    mse_breakdown,
    ou_mse_profiles,
    sym_kl_finite,
    sym_kl_limit,
    write_efficiency_sweep,
)
from .diagnostics import LambdaSpectrum, generalized_lambdas, summarize, w2_distance
from .experiments import (
    ExperimentConfig,
    FailureBudgetExceededError,
    ReplicationResult,
    emit_contour_grid,
    gen_lhs_testpoints,
    gen_perturbed_grid,
    kl_check_sweep,
    lambda_check_sweep,
    run_table1,
    run_table2,
    run_table3,
    sample_gp_path,
    sample_ou_path_markov,
)
