import numpy as np
import pytest

from fixedgp.gp import DegenerateDataError, GpDataset, LikelihoodBlock
from fixedgp.kernels import MaternSpec
from fixedgp.kriging import DenseMseFactors

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


def ou_profile_loglik(stats, n: int, alpha: float) -> float:
    """Closed-form OU profile log-likelihood for the equispaced grid s_i = i/n,
    from the statistics of :func:`fixedgp.gp.ou_stats`: the oracle the
    engines' profiles are checked against.

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


def profile_posterior_logdensity(engine, prior, alpha: float) -> float:
    """Unnormalized log density of the profile posterior for alpha: the
    profile log-likelihood plus the log prior of alpha, as a one-row block
    call; the oracle that the rows of a larger block are checked against."""
    point = np.array([alpha], dtype=float)
    return float(LikelihoodBlock([engine]).log_profile_posterior(point, prior)[0])


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


def efficiency_envelope(design, nu, alpha, truth, test_points) -> float:
    """Max over the test points (``PredictionQuery`` objects) of the two MSE
    ratio deviations when the assumed variance is the half-oracle
    theta0 / alpha^{2 nu}: both vanish at alpha = alpha0, and the max
    estimates the efficiency sequence at this alpha."""
    pts = np.asarray([q.s_star for q in test_points], dtype=float)
    if pts.shape[0] == 0:
        raise ValueError("efficiency_envelope requires at least one test point")
    factors = DenseMseFactors(design, nu, truth.alpha, pts)
    m, q = factors(np.array([alpha]))
    mse_assumed = MaternSpec.from_theta(truth.theta, alpha, nu).sigma2 * m[0]
    return float(np.maximum(np.abs(mse_assumed / (truth.sigma2 * q) - 1.0),
                            np.abs(mse_assumed / (truth.sigma2 * factors.m0) - 1.0)).max())


def per_draw_mean_max_ratios(cfg, engine, chain, queries):
    """Posterior means of the two max-over-test-points MSE ratios with one
    MSE-factor evaluation per retained draw: the oracle
    :func:`fixedgp.experiments._posterior_mean_max_ratios` must equal bit
    for bit."""
    truth = cfg.truth
    factors = engine.mse_factors(truth.alpha, np.asarray([q.s_star for q in queries]))
    mse_oracle = truth.sigma2 * factors.m0
    thetas = chain.theta[:: cfg.mse_draw_thin]
    alphas = chain.alpha[:: cfg.mse_draw_thin]
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
