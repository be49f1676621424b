"""One-dimensional Wasserstein-2 distance between equal-size samples and the
generalized eigenvalue spectrum of a matched-theta covariance pair.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .gp import Design, build_correlation_matrix, cholesky

__all__ = [
    "w2_distance",
    "generalized_lambdas",
]


def w2_distance(a, b) -> float:
    """Wasserstein-2 distance between two equal-size 1-d samples.

    With equal counts the optimal coupling pairs order statistics, so the
    distance is the root mean square of sorted differences.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("w2_distance expects 1-d samples")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"sample sizes differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    diff = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(diff**2)))


def generalized_lambdas(
    design: Design,
    nu: float,
    alpha: float,
    alpha0: float,
    theta0: float,
) -> np.ndarray:
    """Spectrum of the whitened matched-theta covariance pair, ascending.

    With sigma0^2 R0 = L0 L0' the returned values are the eigenvalues of
    L0^{-1} (sigma2 R_alpha) L0^{-'} where both variances are pinned to the
    shared microergodic value theta0.  At alpha = alpha0 the spectrum is
    identically one.  A spectrum that is not strictly positive raises
    ``ValueError``.
    """
    if not theta0 > 0:
        raise ValueError(f"theta0 must be positive, got {theta0}")
    sigma2 = theta0 / alpha ** (2.0 * nu)
    sigma2_0 = theta0 / alpha0 ** (2.0 * nu)
    l0 = np.sqrt(sigma2_0) * cholesky(build_correlation_matrix(design, alpha0, nu))
    r_alpha = sigma2 * build_correlation_matrix(design, alpha, nu)
    half = solve_triangular(l0, r_alpha, lower=True)
    m = solve_triangular(l0, half.T, lower=True)
    m = 0.5 * (m + m.T)
    lambdas = np.linalg.eigvalsh(m)
    if np.any(lambdas <= 0):
        raise ValueError("generalized eigenvalues must be strictly positive")
    return lambdas
