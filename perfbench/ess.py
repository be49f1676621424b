"""Effective sample size of one Markov chain by Geyer's initial monotone
sequence estimator (Geyer 1992, "Practical Markov chain Monte Carlo";
single-chain form of Vehtari et al. 2021, arXiv:1903.08008)."""

from __future__ import annotations

import numpy as np


def autocorrelation(x) -> np.ndarray:
    """Sample autocorrelations rho_0..rho_{n-1} (biased autocovariance, so
    the sequence is positive semi-definite), computed by FFT."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 4:
        raise ValueError("autocorrelation needs a 1-d chain of at least 4 draws")
    n = x.shape[0]
    xc = x - x.mean()
    spec = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec), 2 * n)[:n] / n
    if acov[0] <= 0.0:
        raise ValueError("chain is constant; its effective sample size is undefined")
    return acov / acov[0]


def geyer_ess(x) -> float:
    """n / tau with tau = -1 + 2 sum_k P_k, where P_k = rho_{2k} + rho_{2k+1}
    are summed up to the first non-positive pair (initial positive sequence)
    and forced non-increasing (initial monotone sequence).

    As in Stan, tau is floored at 1 / log10(n) so that an antithetic chain
    reports at most n log10 n draws.
    """
    rho = autocorrelation(x)
    n = rho.shape[0]
    m = n // 2
    pairs = rho[0:2 * m:2] + rho[1:2 * m:2]
    nonpositive = np.flatnonzero(pairs <= 0.0)
    if nonpositive.size:
        pairs = pairs[:nonpositive[0]]
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / np.log10(n))
    return n / tau
