"""Fixed-domain Bayesian inference for mean-zero Matern Gaussian processes.

Kernels and spectral densities, exact and O(n) OU likelihoods, per-alpha
profile statistics, posterior MCMC over the (microergodic, range)
parameters, the limiting Bernstein-von Mises posteriors, kriging
prediction-efficiency measures, and the simulation harness that reproduces
the reference study at desk scale.
"""

__version__ = "0.1.0"

# The names the demos use (a test keeps the two in step); everything else is
# imported from its module.
from .kernels import MaternSpec, matern_correlation, spectral_density
from .gp import Design, likelihood_engine, log_likelihood, ou_loglik_fast
from .posterior import lockstep_target, rwm_chains, theta_limit_draws
from .kriging import blup, efficiency_ratios, mse_breakdown, sym_kl_finite, sym_kl_limit
from .diagnostics import generalized_lambdas, w2_distance
from .experiments import ExperimentConfig, gen_perturbed_grid, sample_gp_path
