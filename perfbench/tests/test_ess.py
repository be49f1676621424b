"""Geyer's initial monotone sequence ESS on AR(1) chains, whose ESS for the
mean is known in closed form: n (1 - phi) / (1 + phi).

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from ess import autocorrelation, geyer_ess  # noqa: E402

N_DRAWS = 20_000
N_CHAINS = 40


def ar1(phi: float, n: int, rng) -> np.ndarray:
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)   # start in the stationary law
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ar1_ess_within_monte_carlo_error(phi):
    rng = np.random.default_rng(20240601)
    expected = N_DRAWS * (1.0 - phi) / (1.0 + phi)
    ratios = np.array([geyer_ess(ar1(phi, N_DRAWS, rng)) / expected for _ in range(N_CHAINS)])
    se = ratios.std(ddof=1) / np.sqrt(N_CHAINS)
    # 4 standard errors of the 40-chain mean, plus 2% for the estimator's
    # own truncation bias, which does not shrink with more chains
    assert abs(ratios.mean() - 1.0) < 4.0 * se + 0.02, (ratios.mean(), se)


def test_antithetic_chain_is_capped():
    x = np.tile([1.0, -1.0], 500)
    assert geyer_ess(x) == pytest.approx(x.size * np.log10(x.size))


def test_autocorrelation_starts_at_one_and_rejects_constant_chains():
    rho = autocorrelation(np.random.default_rng(1).standard_normal(100))
    assert rho[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        geyer_ess(np.ones(50))
    with pytest.raises(ValueError):
        geyer_ess([1.0, 2.0])
