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


def generalized_lambdas(design: Design, nu: float, alpha: float, alpha0: float) -> np.ndarray:
    """Spectrum of the whitened matched-theta covariance pair, ascending.

    Two Matern models with one microergodic value theta = sigma2 alpha^{2 nu}
    have variances in the ratio sigma2 / sigma0^2 = (alpha0 / alpha)^{2 nu}
    whatever theta is, so with R0 = L0 L0' at alpha0 the returned values are
    the eigenvalues of (alpha0 / alpha)^{2 nu} L0^{-1} R_alpha L0^{-'}.  At
    alpha = alpha0 the spectrum is identically one.  A spectrum that is not
    strictly positive raises ``ValueError``.
    """
    l0 = cholesky(build_correlation_matrix(design, alpha0, nu))
    r_alpha = build_correlation_matrix(design, alpha, nu)
    r_alpha *= (alpha0 / alpha) ** (2.0 * nu)
    half = solve_triangular(l0, r_alpha, lower=True)
    m = solve_triangular(l0, half.T, lower=True)
    m = 0.5 * (m + m.T)
    lambdas = np.linalg.eigvalsh(m)
    if np.any(lambdas <= 0):
        raise ValueError("generalized eigenvalues must be strictly positive")
    return lambdas
