from collections import namedtuple

import numpy as np
import pytest

from fixedgp.experiments import ExperimentConfig
from fixedgp.gp import DegenerateDataError, GpDataset
from fixedgp.kernels import MaternSpec
from fixedgp.kriging import DenseMseFactors, efficiency_ratios
from fixedgp.posterior import lockstep_target

# Pass/fail lines recorded by the acceptance tests, echoed at the end of the
# run so they are visible without -s.
ACCEPTANCE_LINES = []


def record_criterion(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}" + (f": {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# the priors of a default run, for the tests that need some prior
DEFAULT_PRIOR = ExperimentConfig().prior

OuStats = namedtuple("OuStats", "a1 a2 a3")


def ou_stats(data) -> OuStats:
    """The interior sum of squares A1, the lag-1 sum of products A2 and the
    total sum of squares A3 of a 1-d dataset: the statistics the OU closed
    forms below are written in."""
    x = data.x
    return OuStats(a1=float(x[1:-1] @ x[1:-1]), a2=float(x[:-1] @ x[1:]), a3=float(x @ x))


def tilted_center_scale(data) -> tuple:
    """Center u* = n (A1 - A2) / A1 and scale v* = n (A1 - 2 A2 + A3) / A1
    of the tilted normal limit of a 1-d dataset."""
    s = ou_stats(data)
    return data.n * (s.a1 - s.a2) / s.a1, data.n * (s.a1 - 2.0 * s.a2 + s.a3) / s.a1


def tilted_logdensity(u_star, v_star, prior, alpha):
    """Unnormalized log density of the tilted normal limit for alpha,
    (1/2) log alpha - (alpha - u*)^2 / (2 v*) + log prior(alpha), at positive
    ``alpha``: the oracle the tilted rows of
    :func:`fixedgp.posterior.lockstep_target` are checked against."""
    a = np.asarray(alpha, dtype=float)
    return 0.5 * np.log(a) - (a - u_star) ** 2 / (2.0 * v_star) + prior.alpha_prior.logpdf(a)


def ou_profile_loglik(stats, n: int, alpha: float) -> float:
    """Closed-form OU profile log-likelihood for the equispaced grid s_i = i/n,
    from the statistics of :func:`ou_stats`: the oracle the engines' profiles
    are checked against.

    Equals the dense profile log-likelihood minus the alpha-independent
    constant (n/2) log n.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    q = np.exp(-alpha / n)
    arg = stats.a1 * q * q - 2.0 * stats.a2 * q + stats.a3
    if arg <= 0.0:
        raise DegenerateDataError(f"quadratic-form argument {arg} is not positive")
    return -0.5 * n * np.log(arg) + 0.5 * np.log1p(-q * q)


def joint_posterior_logdensity(engine, prior, theta: float, alpha: float) -> float:
    """Unnormalized joint log posterior of (theta, alpha) as a one-row
    :func:`fixedgp.posterior.lockstep_target` call; the oracle that the rows
    of a larger block and the cells of a contour grid are checked against."""
    point = np.array([[theta, alpha]], dtype=float)
    return float(lockstep_target(prior, joint=[engine])(point)[0])


def profile_posterior_logdensity(engine, prior, alpha: float) -> float:
    """Unnormalized log density of the profile posterior for alpha: the
    profile log-likelihood plus the log prior of alpha, as a one-row
    :func:`fixedgp.posterior.lockstep_target` call; the oracle that the
    rows of a larger block are checked against."""
    point = np.array([[alpha]], dtype=float)
    return float(lockstep_target(prior, profile=[engine])(point)[0])


def sample_ou_path_markov(design, truth, seed) -> GpDataset:
    """Sequential O(n) sampler of the OU model (nu = 1/2, d = 1): x_{i+1} =
    rho_i x_i + innovation.  Distributionally identical to
    :func:`fixedgp.experiments.sample_gp_path`, which it cross-validates."""
    rng = np.random.default_rng(seed)
    sd = np.sqrt(truth.sigma2)
    z = rng.standard_normal(design.n)
    x = np.empty(design.n)
    x[0] = sd * z[0]
    rho = np.exp(-truth.alpha * np.diff(design.coords_1d))
    for i in range(design.n - 1):
        x[i + 1] = rho[i] * x[i] + sd * np.sqrt(1.0 - rho[i] ** 2) * z[i + 1]
    return GpDataset(design=design, x=x)


def efficiency_envelope(design, nu, alpha, truth, pts) -> float:
    """Max over the (K, d) test points ``pts`` of the two MSE ratio
    deviations when the assumed variance is the half-oracle
    theta0 / alpha^{2 nu}: both vanish at alpha = alpha0, and the max
    estimates the efficiency sequence at this alpha."""
    if pts.shape[0] == 0:
        raise ValueError("efficiency_envelope requires at least one test point")
    factors = DenseMseFactors(design, nu, truth.alpha, pts)
    m, q = factors(np.array([alpha]))
    mse_assumed = MaternSpec.from_theta(truth.theta, alpha, nu).sigma2 * m[0]
    r1, r2 = efficiency_ratios(mse_assumed, truth.sigma2 * q[0], truth.sigma2 * factors.m0)
    return float(np.maximum(r1, r2).max())


def per_draw_mean_max_ratios(cfg, engine, theta, alpha, points):
    """Posterior means over the draws ``theta``, ``alpha`` of the two
    max-over-test-points MSE ratios with one MSE-factor evaluation per
    retained draw: the oracle
    :func:`fixedgp.experiments._posterior_mean_max_ratios` must equal bit
    for bit."""
    truth = cfg.truth
    factors = engine.mse_factors(truth.alpha, points)
    mse_oracle = truth.sigma2 * factors.m0
    thetas = theta[:: cfg.mse_draw_thin]
    alphas = alpha[:: cfg.mse_draw_thin]
    max_r1 = np.empty(thetas.shape[0])
    max_r2 = np.empty(thetas.shape[0])
    for i, (th, al) in enumerate(zip(thetas, alphas)):
        m, q = factors(np.array([al]))
        mse_assumed = th / al ** (2.0 * cfg.nu) * m[0]
        max_r1[i] = np.abs(mse_assumed / (truth.sigma2 * q[0]) - 1.0).max()
        max_r2[i] = np.abs(mse_assumed / mse_oracle - 1.0).max()
    return float(np.mean(max_r1)), float(np.mean(max_r2))


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
