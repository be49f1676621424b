"""Kriging prediction, the three prediction MSEs at a (K, d) array of test
points, the efficiency ratios, and the symmetrized-KL convergence
diagnostic.

For a misspecified inverse range alpha with correlation matrix R and
cross-correlation vector r(s*), the predictor is r' R^{-1} X_n and

    mse_assumed     = sigma2   (1 - r' R^{-1} r)
    mse_under_truth = sigma0^2 (1 - 2 r' R^{-1} r0 + r' R^{-1} R0 R^{-1} r)
    mse_oracle      = sigma0^2 (1 - r0' R0^{-1} r0)

where the 0-subscripted quantities use the true parameters.  Every entry
point takes its K test points as one (K, d) array and returns K values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .diagnostics import generalized_lambdas
from .gp import DegenerateDataError, Design, GpDataset, build_correlation_matrix, cholesky
from .kernels import MaternSpec, matern_kernel

__all__ = [
    "MseBreakdown",
    "CoincidentTestPointError",
    "DenseMseFactors",
    "OuMseFactors",
    "blup",
    "mse_breakdown",
    "efficiency_ratios",
    "sym_kl_finite",
    "sym_kl_limit",
]


class CoincidentTestPointError(ValueError):
    """Test point coincides with a design point; the supremum is over the
    complement of the design, so this is rejected rather than returning 0."""


@dataclass(frozen=True)
class MseBreakdown:
    """The three prediction MSEs at K test points, each a (K,) array."""

    mse_assumed: np.ndarray
    mse_under_truth: np.ndarray
    mse_oracle: np.ndarray

    def __post_init__(self):
        if not all(np.all(v > 0) for v in (self.mse_assumed, self.mse_under_truth,
                                            self.mse_oracle)):
            raise ValueError(f"all MSEs must be positive, got {self}")
        # oracle BLUP optimality, up to factorization round-off
        if np.any(self.mse_under_truth < self.mse_oracle * (1.0 - 1e-8) - 1e-12):
            raise ValueError(
                f"mse_under_truth {self.mse_under_truth} below oracle {self.mse_oracle}"
            )


def _test_point_array(design: Design, points) -> np.ndarray:
    """``points`` as a float array, which must be (K, d) for the design's d."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != design.d:
        raise ValueError(f"test points must be a (K, {design.d}) array, got shape {points.shape}")
    return points


def _cross_distances(design: Design, points: np.ndarray) -> np.ndarray:
    """The (n, K) distances from the design points to the (K, d) ``points``,
    none of which may coincide with a design point."""
    points = _test_point_array(design, points)
    diffs = design.points[None, :, :] - points[:, None, :]
    dist = np.sqrt(np.einsum("kij,kij->ki", diffs, diffs)).T
    if np.any(dist == 0.0):
        raise CoincidentTestPointError("test points must avoid design points")
    return dist


def blup(data: GpDataset, alpha: float, nu: float, points: np.ndarray) -> np.ndarray:
    """Best linear unbiased predictor r' R^{-1} X_n at each of the (K, d)
    ``points``, as a (K,) array.

    Depends on alpha but not on the variance, which cancels from the
    weights.
    """
    dist = _cross_distances(data.design, points)
    chol = cholesky(build_correlation_matrix(data.design, alpha, nu))
    y, _ = lapack.dtrtrs(chol, matern_kernel(nu)(alpha * dist), lower=1)
    return lapack.dtrtrs(chol, data.x, lower=1)[0] @ y


def mse_breakdown(design: Design, assumed: MaternSpec, truth: MaternSpec,
                  points: np.ndarray) -> MseBreakdown:
    """The three prediction MSEs at the (K, d) ``points``; see the module
    header.  The two specs must share their smoothness."""
    if assumed.nu != truth.nu:
        raise ValueError(f"assumed and truth specs must share the smoothness nu, "
                         f"got {assumed.nu} and {truth.nu}")
    factors = DenseMseFactors(design, truth.nu, truth.alpha, points)
    m, q = factors(np.array([assumed.alpha]))
    return MseBreakdown(mse_assumed=assumed.sigma2 * m[0],
                        mse_under_truth=truth.sigma2 * q[0],
                        mse_oracle=truth.sigma2 * factors.m0)


class DenseMseFactors:
    """Correlation-scale MSE factors at a (K, d) array of test points under
    the dense Cholesky path.

    Everything that does not depend on the assumed alpha (distances, the
    truth correlation and its factor, the truth cross-correlations and the
    oracle factor ``m0`` = mse_oracle / sigma0^2) is built once; calling the
    object with a 1-d array of B alphas gives the (B, K) arrays ``(m, q)``:
    m = mse_assumed / sigma2 and q = mse_under_truth / sigma0^2, one row per
    alpha.  The alphas are factorized one at a time, in order.  A factor
    that rounds to zero or below (or NaN) at any test point, as the smooth
    kernels' 1 - r' R^{-1} r can, raises
    :class:`fixedgp.gp.DegenerateDataError`: a ratio of such factors means
    nothing.
    """

    def __init__(self, design: Design, nu: float, alpha0: float, points: np.ndarray):
        self._corr = matern_kernel(nu)
        self.dist_nn = design.distance_matrix()
        self.dist_nk = _cross_distances(design, points)
        self.r0 = self._corr(alpha0 * self.dist_nn)
        self.rv0 = self._corr(alpha0 * self.dist_nk)
        y0, _ = lapack.dtrtrs(cholesky(self.r0.copy()), self.rv0, lower=1)
        self.m0 = 1.0 - np.sum(y0 * y0, axis=0)
        _check_positive("m0", self.m0)

    def __call__(self, alpha: np.ndarray):
        m, q = zip(*(self._one(a) for a in alpha))
        return np.stack(m), np.stack(q)

    def _one(self, alpha):
        chol = cholesky(self._corr(alpha * self.dist_nn))
        rv = self._corr(alpha * self.dist_nk)
        y, _ = lapack.dtrtrs(chol, rv, lower=1)
        w, _ = lapack.dtrtrs(chol, y, lower=1, trans=1)
        m = 1.0 - np.sum(rv * w, axis=0)
        q = 1.0 - 2.0 * np.sum(self.rv0 * w, axis=0) + np.sum(w * (self.r0 @ w), axis=0)
        _check_positive("m", m)
        _check_positive("q", q)
        return m, q


def _check_positive(name, factor):
    if not np.all(factor > 0):
        raise DegenerateDataError(f"MSE factor {name} is not positive at every test point")


def efficiency_ratios(mse_assumed, mse_under_truth, mse_oracle):
    """Elementwise absolute relative deviations of the assumed MSE from the
    MSE under the truth (r1) and from the oracle MSE (r2), as ``(r1, r2)``."""
    return np.abs(mse_assumed / mse_under_truth - 1.0), np.abs(mse_assumed / mse_oracle - 1.0)


def sym_kl_finite(design: Design, alpha: float, alpha0: float) -> float:
    """Finite-sample symmetrized KL divergence between the matched-theta
    models with inverse ranges alpha and alpha0:

        r_n = (1/2) sum_k (lambda_k - 1)^2 / lambda_k

    over the generalized eigenvalues lambda_k of the pair
    (:func:`fixedgp.diagnostics.generalized_lambdas`), in which the shared
    microergodic value cancels.  At alpha = alpha0 the two laws are one and
    r_n is exactly 0, which the computed spectrum gives only to rounding.
    The models are the OU ones (nu = 1/2), the one smoothness whose limit
    is known in closed form (:func:`sym_kl_limit`).
    """
    _check_ranges(alpha, alpha0)
    if alpha == alpha0:
        return 0.0
    lam = generalized_lambdas(design, 0.5, alpha, alpha0, 1.0)
    return float(0.5 * np.sum((lam - 1.0) ** 2 / lam))


def sym_kl_limit(alpha: float, alpha0: float) -> float:
    """Closed-form infill limit of the symmetrized KL for the unit-interval
    OU family: (alpha - alpha0)^2 (alpha + alpha0 + 2) / (4 alpha alpha0)."""
    _check_ranges(alpha, alpha0)
    return (alpha - alpha0) ** 2 * (alpha + alpha0 + 2.0) / (4.0 * alpha * alpha0)


def _check_ranges(alpha, alpha0):
    if not (0 < alpha < np.inf and 0 < alpha0 < np.inf):
        raise ValueError(f"alpha and alpha0 must be positive and finite, got {alpha}, {alpha0}")


class OuMseFactors:
    """The :class:`DenseMseFactors` quantities for the OU kernel in O(n + K).

    The OU predictor weights are supported on the (at most two) bracketing
    neighbors of each test point, so on a d = 1 design in ascending order
    every factor is local; the bracketing gaps and the truth terms of the
    (K, 1) ``points`` are computed once.
    Every operation on an alpha is elementwise, so a 1-d array of B alphas
    is evaluated at once as (B, K) arrays, each row equal bit for bit to a
    call with that alpha alone.
    """

    def __init__(self, design: Design, alpha0: float, points: np.ndarray):
        coords = design.coords_1d
        tp = _test_point_array(design, points)[:, 0]
        if np.any(np.isin(tp, coords)):
            raise CoincidentTestPointError("test points must avoid design points")
        idx = np.searchsorted(coords, tp)
        self.interior = (idx > 0) & (idx < coords.shape[0])
        il = np.clip(idx - 1, 0, coords.shape[0] - 1)
        ir = np.clip(idx, 0, coords.shape[0] - 1)
        self.dl = np.abs(tp - coords[il])
        self.dr = np.where(self.interior, coords[ir] - tp, 0.0)
        self.rho_l0 = np.exp(-alpha0 * self.dl)
        self.rho_r0 = np.where(self.interior, np.exp(-alpha0 * self.dr), 1.0)
        self.rho_gap0 = self.rho_l0 * self.rho_r0
        wl0, wr0 = self._weights(self.rho_l0, np.where(self.interior, self.rho_r0, 0.0))
        # oracle factor: truth weights evaluated under the truth
        self.m0 = 1.0 - wl0 * self.rho_l0 - np.where(self.interior, wr0 * self.rho_r0, 0.0)

    def _weights(self, rho_l, rho_r):
        rho_gap = rho_l * rho_r
        denom = 1.0 - rho_gap**2
        wl = np.where(self.interior, rho_l * (1.0 - rho_r**2) / denom, rho_l)
        wr = np.where(self.interior, rho_r * (1.0 - rho_l**2) / denom, 0.0)
        return wl, wr

    def __call__(self, alpha: np.ndarray):
        alpha = alpha[:, None]
        rho_l = np.exp(-alpha * self.dl)
        rho_r = np.where(self.interior, np.exp(-alpha * self.dr), 0.0)
        wl, wr = self._weights(rho_l, rho_r)
        m = 1.0 - wl * rho_l - wr * rho_r
        q = (1.0 + wl**2 + wr**2 + 2.0 * wl * wr * self.rho_gap0
             - 2.0 * wl * self.rho_l0
             - 2.0 * np.where(self.interior, wr * self.rho_r0, 0.0))
        return m, q
