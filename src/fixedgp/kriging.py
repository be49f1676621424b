"""Kriging prediction, the three prediction MSEs at a new location, the
derived efficiency ratios, and the symmetrized-KL convergence diagnostic.

For a misspecified inverse range alpha with correlation matrix R and
cross-correlation vector r(s*), the predictor is r' R^{-1} X_n and

    mse_assumed     = sigma2   (1 - r' R^{-1} r)
    mse_under_truth = sigma0^2 (1 - 2 r' R^{-1} r0 + r' R^{-1} R0 R^{-1} r)
    mse_oracle      = sigma0^2 (1 - r0' R0^{-1} r0)

where the 0-subscripted quantities use the true parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .gp import DegenerateDataError, Design, GpDataset, build_correlation_matrix, cholesky
from .kernels import MaternSpec, matern_correlation, matern_kernel

__all__ = [
    "PredictionQuery",
    "MseBreakdown",
    "EfficiencyRatios",
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
class PredictionQuery:
    """A prediction location distinct from all design points."""

    s_star: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.s_star, dtype=float))
        if s.ndim != 1 or s.shape[0] not in (1, 2, 3):
            raise ValueError(f"s_star must be a 1/2/3-vector, got shape {s.shape}")
        object.__setattr__(self, "s_star", s)


@dataclass(frozen=True)
class MseBreakdown:
    mse_assumed: float
    mse_under_truth: float
    mse_oracle: float

    def __post_init__(self):
        if min(self.mse_assumed, self.mse_under_truth, self.mse_oracle) <= 0:
            raise ValueError(f"all MSEs must be positive, got {self}")
        # oracle BLUP optimality, up to factorization round-off
        if self.mse_under_truth < self.mse_oracle * (1.0 - 1e-8) - 1e-12:
            raise ValueError(
                f"mse_under_truth {self.mse_under_truth} below oracle {self.mse_oracle}"
            )


@dataclass(frozen=True)
class EfficiencyRatios:
    """r1 compares the assumed MSE to its value under the truth, r2 to the
    oracle MSE; varsigma_hat is their max, which is the per-point envelope
    contribution when the assumed variance is theta0 / alpha^{2 nu}."""

    r1: float
    r2: float
    varsigma_hat: float


def blup(data: GpDataset, alpha: float, nu: float, query: PredictionQuery) -> float:
    """Best linear unbiased predictor r' R^{-1} X_n at the query point.

    Depends on alpha but not on the variance, which cancels from the
    weights.
    """
    dists = np.sqrt(np.sum((data.design.points - query.s_star[None, :]) ** 2, axis=1))
    if dists.min() == 0.0:
        raise CoincidentTestPointError(f"test point {query.s_star} coincides with a design point")
    chol = cholesky(build_correlation_matrix(data.design, alpha, nu))
    y, _ = lapack.dtrtrs(chol, matern_correlation(alpha, nu, dists), lower=1)
    return float(y @ lapack.dtrtrs(chol, data.x, lower=1)[0])


def mse_breakdown(
    design: Design,
    nu: float,
    assumed: MaternSpec,
    truth: MaternSpec,
    query: PredictionQuery,
) -> MseBreakdown:
    """The three prediction MSEs at one test point; see the module header."""
    if abs(assumed.nu - nu) > 1e-14 or abs(truth.nu - nu) > 1e-14:
        raise ValueError("assumed and truth specs must share the smoothness nu")
    factors = DenseMseFactors(design, nu, truth.alpha, query.s_star[None, :])
    m, q = factors(np.array([assumed.alpha]))
    return MseBreakdown(mse_assumed=float(assumed.sigma2 * m[0, 0]),
                        mse_under_truth=float(truth.sigma2 * q[0, 0]),
                        mse_oracle=float(truth.sigma2 * factors.m0[0]))


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
        diffs = design.points[None, :, :] - points[:, None, :]
        self.dist_nk = np.sqrt(np.einsum("kij,kij->ki", diffs, diffs)).T
        if np.any(self.dist_nk == 0.0):
            raise CoincidentTestPointError("test points must avoid design points")
        self.r0 = self._corr_nn(alpha0)
        self.rv0 = self._corr(alpha0 * self.dist_nk)
        y0, _ = lapack.dtrtrs(cholesky(self.r0.copy()), self.rv0, lower=1)
        self.m0 = 1.0 - np.sum(y0 * y0, axis=0)
        _check_positive("m0", self.m0)

    def __call__(self, alpha: np.ndarray):
        m, q = zip(*(self._one(a) for a in alpha))
        return np.stack(m), np.stack(q)

    def _corr_nn(self, alpha):
        r = self._corr(alpha * self.dist_nn)
        np.fill_diagonal(r, 1.0)
        return r

    def _one(self, alpha):
        chol = cholesky(self._corr_nn(alpha))
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


def efficiency_ratios(breakdown: MseBreakdown) -> EfficiencyRatios:
    """Absolute relative deviations of the assumed MSE from the other two."""
    r1 = abs(breakdown.mse_assumed / breakdown.mse_under_truth - 1.0)
    r2 = abs(breakdown.mse_assumed / breakdown.mse_oracle - 1.0)
    return EfficiencyRatios(r1=r1, r2=r2, varsigma_hat=max(r1, r2))


def sym_kl_finite(design: Design, nu: float, alpha: float, alpha0: float) -> float:
    """Finite-sample symmetrized KL divergence between the matched-theta
    models with inverse ranges alpha and alpha0:

        -n + (c/2) tr(R^{-1} R0) + (1/(2c)) tr(R0^{-1} R),  c = (alpha/alpha0)^{2 nu}

    Only nu = 1/2 is accepted, the one smoothness whose limit is known in
    closed form (:func:`sym_kl_limit`).
    """
    if not (alpha > 0 and alpha0 > 0):
        raise ValueError("alpha and alpha0 must be positive")
    if abs(nu - 0.5) > 1e-14:
        raise ValueError("sym_kl_finite is derived for nu = 1/2")
    n = design.n
    la, l0 = (cholesky(build_correlation_matrix(design, a, nu)) for a in (alpha, alpha0))
    upper = np.triu_indices(n, 1)
    la[upper] = l0[upper] = 0.0   # in place: np.tril would copy to C order
    # tr(A^{-1} B) = ||chol(A) \ chol(B)||_F^2, via triangular solves only
    g = solve_triangular(la, l0, lower=True)
    h = solve_triangular(l0, la, lower=True)
    c = (alpha / alpha0) ** (2.0 * nu)
    return float(-n + 0.5 * c * np.sum(g * g) + 0.5 / c * np.sum(h * h))


def sym_kl_limit(alpha: float, alpha0: float) -> float:
    """Closed-form infill limit of the symmetrized KL for the unit-interval
    OU family: (alpha - alpha0)^2 (alpha + alpha0 + 2) / (4 alpha alpha0)."""
    if not (alpha > 0 and alpha0 > 0):
        raise ValueError("alpha and alpha0 must be positive")
    return (alpha - alpha0) ** 2 * (alpha + alpha0 + 2.0) / (4.0 * alpha * alpha0)


class OuMseFactors:
    """The :class:`DenseMseFactors` quantities for the OU kernel in O(n + K).

    The OU predictor weights are supported on the (at most two) bracketing
    neighbors of each test point, so for sorted 1-d coordinates every factor
    is local; the bracketing gaps and the truth terms are computed once.
    Every operation on an alpha is elementwise, so a 1-d array of B alphas
    is evaluated at once as (B, K) arrays, each row equal bit for bit to a
    call with that alpha alone.
    """

    def __init__(self, coords: np.ndarray, alpha0: float, test_points: np.ndarray):
        coords = np.asarray(coords, dtype=float)
        tp = np.asarray(test_points, dtype=float)
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
