"""Sampling designs, Gaussian log-likelihoods, per-alpha profile statistics,
and the O(n) Ornstein-Uhlenbeck fast path (nu = 1/2, d = 1).

The likelihood of a dataset is evaluated by one engine, built once per
dataset: :class:`DenseEngine` (dense Cholesky) or :class:`OuEngine` (O(n)
Markov factorization), chosen by :func:`likelihood_engine`.  The posteriors of
R datasets of one size are evaluated by one block of their engines,
:class:`DenseBlock` or :class:`OuBlock`, chosen by :func:`likelihood_block`;
the backend is picked nowhere else.  The module-level functions are thin
wrappers that build a throwaway engine.

The log-likelihood convention throughout drops the -(n/2) log(2 pi) constant:

    L_n(sigma2, alpha) = -(n/2) log sigma2 - (1/2) log|R_alpha|
                         - (1/(2 sigma2)) x' R_alpha^{-1} x

The OU engine subtracts the same constant so cross-checks against the
dense path are exact rather than up to a constant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .kernels import MaternSpec, matern_correlation, matern_kernel

__all__ = [
    "Design",
    "GpDataset",
    "CovFactorization",
    "ProfileStats",
    "OuStats",
    "NotPositiveDefiniteError",
    "DegenerateDataError",
    "DenseEngine",
    "OuEngine",
    "likelihood_engine",
    "is_ou_model",
    "build_correlation_matrix",
    "factorize",
    "log_likelihood",
    "profile_stats",
    "ou_stats",
    "ou_loglik_fast",
    "ou_profile_stats",
    "load_dataset",
    "save_dataset",
]


class NotPositiveDefiniteError(Exception):
    """Cholesky failure; ``pivot`` is the 1-based index of the failing minor."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix not positive definite at pivot {pivot}")


class DegenerateDataError(Exception):
    """Quadratic form of the data collapsed to a non-positive value."""


@dataclass(frozen=True)
class Design:
    """Distinct sampling points in [0, T]^d, d in {1, 2, 3}.

    Points are stored as an (n, d) array.  For d = 1 they are sorted
    ascending, which the OU fast path requires.
    """

    points: np.ndarray
    T: float = 1.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2, 3):
            raise ValueError(f"points must be (n, d) with d in {{1,2,3}}, got {pts.shape}")
        if not self.T > 0:
            raise ValueError(f"domain size T must be positive, got {self.T}")
        if np.any(pts < 0) or np.any(pts > self.T):
            raise ValueError("all coordinates must lie in [0, T]")
        if pts.shape[1] == 1:
            pts = pts[np.argsort(pts[:, 0])]
            if np.any(np.diff(pts[:, 0]) <= 0):
                raise ValueError("design points must be pairwise distinct")
        else:
            diff = pts[:, None, :] - pts[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", diff, diff)
            np.fill_diagonal(dist2, np.inf)
            if dist2.min() <= 0.0:
                raise ValueError("design points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def coords_1d(self) -> np.ndarray:
        """Sorted coordinate vector; only defined for d = 1."""
        if self.d != 1:
            raise ValueError(f"coords_1d requires d = 1, design has d = {self.d}")
        return self.points[:, 0]

    def distance_matrix(self) -> np.ndarray:
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@dataclass(frozen=True)
class GpDataset:
    """A design together with the observed vector on it."""

    design: Design
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.design.n:
            raise ValueError(
                f"x must be a length-{self.design.n} vector, got shape {x.shape}"
            )
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.design.n


@dataclass
class CovFactorization:
    """Cholesky factorization of sigma2 * R with derived solves.

    ``corr_chol`` is the lower factor of the correlation matrix R; the scale
    sigma2 is carried separately so theta-moves can reuse the factor.
    """

    corr_chol: np.ndarray
    sigma2: float
    log_det: float = field(init=False)

    def __post_init__(self):
        n = self.corr_chol.shape[0]
        self.log_det = n * np.log(self.sigma2) + 2.0 * np.sum(
            np.log(np.diag(self.corr_chol))
        )

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the full covariance sigma2 * R."""
        return np.sqrt(self.sigma2) * self.corr_chol

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b for the correlation factor L (whitening up to scale)."""
        return solve_triangular(self.corr_chol, b, lower=True)

    def quad_form(self, v: np.ndarray, w: np.ndarray | None = None) -> float:
        """v' (sigma2 R)^{-1} w (w defaults to v)."""
        yv = solve_triangular(self.corr_chol, v, lower=True)
        if w is None:
            return float(yv @ yv) / self.sigma2
        yw = solve_triangular(self.corr_chol, w, lower=True)
        return float(yv @ yw) / self.sigma2


@dataclass(frozen=True)
class ProfileStats:
    """Per-alpha profile quantities: the variance and microergodic maximizers
    and the profiled log-likelihood."""

    alpha: float
    nu: float
    sigma2_tilde: float
    theta_tilde: float
    profile_loglik: float


@dataclass(frozen=True)
class OuStats:
    """Quadratic statistics of a 1-d observation vector.

    a1 sums interior squares, a2 the lag-1 cross products, a3 all squares;
    a1 + a3 - 2 a2 is a sum of squared increments and hence nonnegative.
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if self.a1 + self.a3 - 2.0 * self.a2 < -1e-12 * max(self.a3, 1.0):
            raise ValueError("invalid OU statistics: a1 + a3 - 2 a2 < 0")


def build_correlation_matrix(design: Design, alpha: float, nu: float) -> np.ndarray:
    """Matern correlation matrix of a design; unit diagonal, symmetric."""
    dist = design.distance_matrix()
    r = matern_correlation(alpha, nu, dist)
    np.fill_diagonal(r, 1.0)
    return r


def factorize(cov: np.ndarray, sigma2: float) -> CovFactorization:
    """Cholesky-factorize sigma2 * cov, with no diagonal jitter, so failures
    surface instead of being masked.

    Parameters
    ----------
    cov : ndarray
        Symmetric positive-definite matrix (typically a correlation matrix).
    sigma2 : float
        Positive scale.

    Raises
    ------
    NotPositiveDefiniteError
        With the 1-based failing pivot index.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    a = np.array(cov, dtype=float)
    c, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(int(info))
    if info < 0:
        raise ValueError(f"invalid argument {-info} to dpotrf")
    return CovFactorization(corr_chol=c, sigma2=float(sigma2))


class _Engine:
    """Likelihood of one dataset with its geometry validated once.

    Subclasses provide ``_terms(alpha) -> (x' R^{-1} x, log|R|)`` and
    ``loglik(sigma2, alpha)``; the profile is shared.
    """

    data: GpDataset
    nu: float

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def is_ou(self) -> bool:
        """True when the model is the OU process (d = 1, nu = 1/2), whichever
        backend evaluates it."""
        return is_ou_model(self.data.design.d, self.nu)

    def profile(self, alpha: float) -> ProfileStats:
        """Profile out the variance at fixed alpha.

        sigma2_tilde = x' R^{-1} x / n,  theta_tilde = sigma2_tilde alpha^{2 nu},
        profile_loglik = -(n/2) log(x' R^{-1} x / n) - (1/2) log|R|.
        """
        qf, log_det = self._terms(alpha)
        if qf <= 0.0:
            raise DegenerateDataError(f"x' R^{{-1}} x = {qf} is not positive")
        n = self.n
        sigma2_tilde = qf / n
        return ProfileStats(
            alpha=float(alpha),
            nu=self.nu,
            sigma2_tilde=sigma2_tilde,
            theta_tilde=sigma2_tilde * alpha ** (2.0 * self.nu),
            profile_loglik=-0.5 * n * np.log(sigma2_tilde) - 0.5 * log_det,
        )


class DenseEngine(_Engine):
    """Dense Cholesky likelihood under Matern smoothness ``nu``.

    The distance matrix is built once; distances are nonnegative by
    construction, so the per-call checks of :func:`matern_correlation` are
    not needed.  Each evaluation builds the correlation from the cached
    distances, factorizes it in place with LAPACK ``dpotrf`` (the symmetric
    matrix is passed as its Fortran-ordered transpose, so nothing is copied)
    and whitens the data with ``dtrtrs``: the routines :func:`factorize` and
    ``solve_triangular`` call, so the numbers are the same.
    """

    def __init__(self, data: GpDataset, nu: float):
        if not np.all(np.isfinite(data.x)):
            raise ValueError("observations must be finite")
        self.data = data
        self.nu = float(nu)
        self.dist = data.design.distance_matrix()
        self._corr = matern_kernel(self.nu)

    def _terms(self, alpha):
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        r = self._corr(alpha * self.dist)
        np.fill_diagonal(r, 1.0)
        chol, info = lapack.dpotrf(r.T, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise NotPositiveDefiniteError(int(info))
        # a successful dpotrf leaves a positive diagonal, so dtrtrs cannot fail
        y, _ = lapack.dtrtrs(chol, self.data.x, lower=1)
        return float(y @ y), 2.0 * np.sum(np.log(np.diag(chol)))

    def loglik(self, sigma2: float, alpha: float) -> float:
        """-(1/2) log|sigma2 R| - (1/2) x' (sigma2 R)^{-1} x."""
        if not sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        qf, log_det = self._terms(alpha)
        return -0.5 * (self.n * np.log(sigma2) + log_det) - 0.5 * (qf / sigma2)

    def mse_factors(self, alpha0: float, points: np.ndarray):
        """:class:`fixedgp.kriging.DenseMseFactors` at the (K, d) ``points``."""
        from .kriging import DenseMseFactors
        return DenseMseFactors(self.data.design, self.nu, alpha0, points)


class OuEngine(_Engine):
    """Exact O(n) OU (nu = 1/2, d = 1) likelihood.

    Uses the Markov factorization with per-gap correlations
    rho_i = exp(-alpha (s_{i+1} - s_i)), valid for any strictly increasing
    1-d design; the gaps are computed and checked once.
    """

    nu = 0.5

    def __init__(self, data: GpDataset):
        if data.design.d != 1:
            raise ValueError(f"the OU engine requires d = 1, design has d = {data.design.d}")
        self.data = data
        self.gaps = np.diff(data.design.coords_1d)
        if np.any(self.gaps <= 0):
            raise ValueError("OU fast path requires strictly increasing points")
        x = data.x
        self._x0_sq, self._head, self._tail = x[0] ** 2, x[:-1], x[1:]

    def _terms(self, alpha):
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        qf, log_det = _ou_terms(self.gaps, self._x0_sq, self._head, self._tail, alpha)
        return float(qf), float(log_det)

    def loglik(self, sigma2: float, alpha: float) -> float:
        """Matches :meth:`DenseEngine.loglik` (same constant convention)."""
        if not sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        qf, log_det = self._terms(alpha)
        return -0.5 * self.n * np.log(sigma2) - 0.5 * log_det - qf / (2.0 * sigma2)

    def mse_factors(self, alpha0: float, points: np.ndarray):
        """:class:`fixedgp.kriging.OuMseFactors` at the (K, 1) ``points``."""
        from .kriging import OuMseFactors
        return OuMseFactors(self.data.design.coords_1d, alpha0, points[:, 0])


def _ou_terms(gaps, x0_sq, head, tail, alpha):
    """x' R^{-1} x and log|R| of the OU model from the per-gap correlations
    rho_i = exp(-alpha g_i) and the Markov residuals x_{i+1} - rho_i x_i.

    Every reduction runs along the last axis, so one dataset (1-d arrays,
    scalar alpha) and a stack of R datasets ((R, n-1) arrays, an (R, 1)
    column of alphas) give each dataset the same numbers.
    """
    rho = np.exp(-alpha * gaps)
    one_minus_rho2 = -np.expm1(-2.0 * alpha * gaps)
    resid = tail - rho * head
    # np.add.reduce is the reduction np.sum runs, minus its Python wrapper
    qf = x0_sq + np.add.reduce(resid**2 / one_minus_rho2, axis=-1)
    return qf, np.add.reduce(np.log(one_minus_rho2), axis=-1)


class DenseBlock:
    """The dense engines of R datasets, evaluated row by row with scalar
    arithmetic.  Each method maps R rows to R values, -inf in a row whose
    parameters are invalid, whose correlation fails to factorize, or whose
    profile is degenerate (x' R^{-1} x <= 0).
    """

    def __init__(self, engines):
        self.engines = list(engines)

    def log_posterior(self, p, prior):
        """Joint log posterior at the (R, 2) rows (theta, alpha)."""
        return np.array([_dense_log_posterior(e, prior, t, a)
                         for e, (t, a) in zip(self.engines, p)])

    def log_profile_posterior(self, alpha, prior):
        """Profile log-likelihood plus log alpha prior at the (R,) ``alpha``."""
        return np.array([_dense_log_profile_posterior(e, prior, a)
                         for e, a in zip(self.engines, alpha)])


def _dense_log_posterior(engine, prior, theta, alpha):
    if not (theta > 0 and alpha > 0) or not math.isfinite(theta) or not math.isfinite(alpha):
        return -np.inf
    sigma2 = theta / alpha ** (2.0 * engine.nu)
    if not math.isfinite(sigma2) or sigma2 <= 0:
        return -np.inf
    try:
        ll = engine.loglik(sigma2, alpha)
    except NotPositiveDefiniteError:
        return -np.inf
    return ll + prior.theta_prior.logpdf(theta) + prior.alpha_prior.logpdf(alpha)


def _dense_log_profile_posterior(engine, prior, alpha):
    if not alpha > 0 or not math.isfinite(alpha):
        return -np.inf
    try:
        ps = engine.profile(alpha)
    except (NotPositiveDefiniteError, DegenerateDataError):
        return -np.inf
    return ps.profile_loglik + prior.alpha_prior.logpdf(alpha)


class OuBlock:
    """The OU engines of R datasets of one size, stacked so that one call
    evaluates all R rows in :class:`OuEngine` operation order; the methods
    and -inf rows are those of :class:`DenseBlock`."""

    nu = 0.5

    def __init__(self, engines):
        self.n = engines[0].n
        if any(e.n != self.n for e in engines):
            raise ValueError("an OU block stacks datasets of one size")
        self.gaps = np.stack([e.gaps for e in engines])
        self._x0_sq = np.array([e._x0_sq for e in engines])
        self._head = np.stack([e._head for e in engines])
        self._tail = np.stack([e._tail for e in engines])

    def terms(self, alpha):
        """Row-wise x' R^{-1} x and log|R| at the (R,) positive ``alpha``."""
        return _ou_terms(self.gaps, self._x0_sq, self._head, self._tail, alpha[:, None])

    def log_posterior(self, p, prior):
        theta, alpha = p[:, 0], p[:, 1]
        ok = np.all((p > 0) & (p < np.inf), axis=1)
        if not ok.all():
            theta, alpha = np.where(ok, theta, 1.0), np.where(ok, alpha, 1.0)
        sigma2 = theta / alpha ** (2.0 * self.nu)
        ok &= (sigma2 > 0) & (sigma2 < np.inf)
        if not ok.all():
            sigma2 = np.where(ok, sigma2, 1.0)
        qf, log_det = self.terms(alpha)
        out = (-0.5 * self.n * np.log(sigma2) - 0.5 * log_det - qf / (2.0 * sigma2)
               + prior.theta_prior.logpdf(theta) + prior.alpha_prior.logpdf(alpha))
        return np.where(ok, out, -np.inf)

    def log_profile_posterior(self, alpha, prior):
        ok = (alpha > 0) & (alpha < np.inf)
        if not ok.all():
            alpha = np.where(ok, alpha, 1.0)
        qf, log_det = self.terms(alpha)
        ok &= qf > 0.0
        if not ok.all():
            qf = np.where(ok, qf, 1.0)
        out = (-0.5 * self.n * np.log(qf / self.n) - 0.5 * log_det
               + prior.alpha_prior.logpdf(alpha))
        return np.where(ok, out, -np.inf)


def is_ou_model(d: int, nu: float) -> bool:
    """The Ornstein-Uhlenbeck model: d = 1 and nu = 1/2."""
    return d == 1 and abs(nu - 0.5) < 1e-14


def lockstep_backend(d: int, nu: float, likelihood: str) -> bool:
    """The backend rule: the O(n) OU backend when ``likelihood == "ou"`` and
    the model is OU, dense otherwise.  Only an OU block evaluates its rows
    together, so only OU datasets share a block in the harness."""
    if likelihood not in ("ou", "dense"):
        raise ValueError(f"likelihood must be 'ou' or 'dense', got {likelihood!r}")
    return likelihood == "ou" and is_ou_model(d, nu)


def likelihood_engine(data: GpDataset, nu: float, likelihood: str = "dense") -> _Engine:
    """The engine of a dataset under :func:`lockstep_backend`'s rule:
    :class:`OuEngine` or :class:`DenseEngine`."""
    if lockstep_backend(data.design.d, nu, likelihood):
        return OuEngine(data)
    return DenseEngine(data, nu)


def likelihood_block(engines):
    """The block of engines made by :func:`likelihood_engine`: an
    :class:`OuBlock` of OU engines, a :class:`DenseBlock` otherwise."""
    if all(isinstance(e, OuEngine) for e in engines):
        return OuBlock(engines)
    return DenseBlock(engines)


def log_likelihood(data: GpDataset, spec: MaternSpec) -> float:
    """Exact Gaussian log-likelihood (2 pi constant dropped), dense path."""
    return DenseEngine(data, spec.nu).loglik(spec.sigma2, spec.alpha)


def profile_stats(data: GpDataset, alpha: float, nu: float) -> ProfileStats:
    """Dense profile statistics at fixed alpha; see :meth:`DenseEngine.profile`."""
    return DenseEngine(data, nu).profile(alpha)


def ou_stats(data: GpDataset) -> OuStats:
    """Interior, cross, and total quadratic statistics of a 1-d dataset."""
    if data.design.d != 1:
        raise ValueError(f"ou_stats requires d = 1, design has d = {data.design.d}")
    x = data.x
    return OuStats(
        a1=float(x[1:-1] @ x[1:-1]),
        a2=float(x[:-1] @ x[1:]),
        a3=float(x @ x),
    )


def ou_loglik_fast(data: GpDataset, sigma2: float, alpha: float) -> float:
    """Exact OU (nu = 1/2, d = 1) log-likelihood in O(n); see :class:`OuEngine`."""
    return OuEngine(data).loglik(sigma2, alpha)


def ou_profile_stats(data: GpDataset, alpha: float) -> ProfileStats:
    """O(n) version of :func:`profile_stats` for nu = 1/2, d = 1 designs."""
    return OuEngine(data).profile(alpha)


def load_dataset(path, T: float = 1.0) -> GpDataset:
    """Read a dataset CSV with header ``s1[,s2[,s3]],x``.

    Validates coordinate bounds and pairwise distinctness through
    :class:`Design`; 1-d rows are sorted jointly with their observations.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    expected = [f"s{i + 1}" for i in range(len(header) - 1)] + ["x"]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"bad dataset header {header}, expected {expected}")
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(header):
        raise ValueError("malformed dataset rows")
    pts, x = arr[:, :-1], arr[:, -1]
    if pts.shape[1] == 1:
        order = np.argsort(pts[:, 0])
        pts, x = pts[order], x[order]
    return GpDataset(design=Design(points=pts, T=T), x=x)


def save_dataset(data: GpDataset, path) -> None:
    """Write the ``s1[,s2[,s3]],x`` CSV for :func:`load_dataset`."""
    d = data.design.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"s{i + 1}" for i in range(d)] + ["x"])
        for row, xi in zip(data.design.points, data.x):
            writer.writerow([f"{v:.17g}" for v in row] + [f"{xi:.17g}"])
