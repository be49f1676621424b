"""Fixed-domain Bayesian inference for mean-zero Matern Gaussian processes.

Kernels and spectral densities, exact and O(n) OU likelihoods, per-alpha
profile statistics, posterior MCMC over the (microergodic, range)
parameters, the limiting Bernstein-von Mises posteriors, kriging
prediction-efficiency measures, and the simulation harness that reproduces
the reference study at desk scale.
"""

__version__ = "0.1.0"

# The names the demos use; everything else is imported from its module.
from .kernels import MaternSpec, bessel_k, matern_correlation, spectral_density
from .gp import (
    Design,
    likelihood_engine,
    log_likelihood,
    ou_loglik_fast,
    ou_profile_stats,
    profile_stats,
)
from .posterior import McmcConfig, joint_limit_sampler, log_joint_posterior, rwm_chain
from .kriging import (
    PredictionQuery,
    blup,
    efficiency_ratios,
    mse_breakdown,
    sym_kl_finite,
    sym_kl_limit,
)
from .diagnostics import generalized_lambdas, summarize, w2_distance
from .experiments import ExperimentConfig, gen_perturbed_grid, sample_gp_path
